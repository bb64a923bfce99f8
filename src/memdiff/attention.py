"""Cosine-attention recall math shared by the two memory modules.

Both memories hold G groups: G = 1 shares one memory across channels, G =
n_channels gives each channel its own. Channel rows (B*N, d), with channel
= row % N, reach a memory as (G, B*N/G, d) through group_rows; the score,
weight and backward functions here work on the trailing axes, so they
batch over the groups.

Scores are cosine similarities; recall weights clamp negative scores to
zero and add a small epsilon before normalizing, so the aggregation is
always a convex combination even when every score is non-positive (the
epsilon then yields uniform weights). Backward passes are exact; the
clamp uses the zero subgradient at the kink.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantError, NumericError

WEIGHT_EPS = 1e-8
_NORM_FLOOR = 1e-30


def check_norms(norms: np.ndarray, what: str) -> np.ndarray:
    """Return norms unchanged, rejecting numerically zero vectors."""
    if (norms < _NORM_FLOOR).any():
        bad = int(np.argmax(norms < _NORM_FLOOR))
        raise NumericError(f"zero-norm {what} vector at index {bad}")
    return norms


def l2_norms(x: np.ndarray) -> np.ndarray:
    """L2 norms of rows, unchecked."""
    return np.sqrt((x * x).sum(axis=-1))


def row_norms(x: np.ndarray, what: str) -> np.ndarray:
    """L2 norms of rows, rejecting numerically zero vectors."""
    return check_norms(l2_norms(x), what)


def group_rows(rows: np.ndarray, groups: int) -> np.ndarray:
    """(R, ...) channel rows to (groups, R // groups, ...): row r joins group r % groups.

    With groups = N, group j holds channel j's rows ``rows[j::N]``; with one
    group this is a (1, R, ...) view.
    """
    if rows.shape[0] % groups:
        raise InvariantError(f"{rows.shape[0]} rows do not split into {groups} groups")
    return rows.reshape(-1, groups, *rows.shape[1:]).swapaxes(0, 1)


def ungroup_rows(grouped: np.ndarray) -> np.ndarray:
    """Inverse of group_rows: (G, R', ...) back to (G * R', ...) channel rows."""
    return grouped.swapaxes(0, 1).reshape(-1, *grouped.shape[2:])


def cosine_score(block: np.ndarray, query: np.ndarray) -> float:
    """Cosine similarity of two nonzero vectors, in [-1, 1]."""
    block = np.asarray(block, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    nb = row_norms(block[None, :], "block")[0]
    nq = row_norms(query[None, :], "query")[0]
    return float(block @ query / (nb * nq))


def cosine_matrix(blocks: np.ndarray, queries: np.ndarray):
    """All-pairs cosine scores, batched over leading axes.

    blocks: (..., B, d), queries: (..., R, d) -> scores (..., R, B) plus
    cached norms.
    """
    nb = row_norms(blocks, "block")
    nq = row_norms(queries, "query")
    scores = queries @ blocks.swapaxes(-1, -2)
    scores /= nq[..., :, None] * nb[..., None, :]
    return scores, nq, nb


def top_k(scores: np.ndarray, k: int) -> "tuple[np.ndarray, np.ndarray]":
    """(R, k) column indices and values of each row's k largest scores.

    Picks exactly what ``np.argsort(-scores, axis=1, kind="stable")[:, :k]``
    picks, in the same order: ties go to the lowest index. That holds for
    rows without NaN and for all-NaN rows. k argmax passes, each masking
    its pick with -inf, cost far less than the full sort when k is small.
    ``scores`` serves as the scratch: do not read it afterwards.
    """
    scores = np.ascontiguousarray(scores)
    rows, cols = scores.shape
    flat = scores.reshape(-1)                 # a view, so masking reaches scores
    row_start = np.arange(0, rows * cols, cols)
    idx = np.empty((rows, k), dtype=np.intp)
    vals = np.empty((rows, k), dtype=scores.dtype)
    for j in range(k):
        col = scores.argmax(axis=1)
        idx[:, j] = col
        at = row_start + col
        vals[:, j] = flat[at]
        if j + 1 < k:
            flat[at] = -np.inf
    return idx, vals


def clamp_normalize(scores: np.ndarray):
    """Rows of clamped scores to convex weights: (max(s,0)+eps) / rowsum."""
    pos = np.maximum(scores, 0.0)
    pos += WEIGHT_EPS
    z = pos.sum(axis=-1)
    pos /= z[..., None]
    return pos, z


def weights_backward(d_weights: np.ndarray, weights: np.ndarray, z: np.ndarray,
                     scores: np.ndarray) -> np.ndarray:
    """Backprop through clamp_normalize: d(loss)/d(scores)."""
    rowdot = np.sum(weights * d_weights, axis=-1, keepdims=True)
    d_pos = (d_weights - rowdot) / z[..., None]
    return d_pos * (scores > 0.0)


def cosine_matrix_backward(d_scores: np.ndarray, blocks: np.ndarray, queries: np.ndarray,
                           scores: np.ndarray, nq: np.ndarray, nb: np.ndarray):
    """Backprop through cosine_matrix: returns (d_queries, d_blocks)."""
    scaled = d_scores / (nq[..., :, None] * nb[..., None, :])
    ds_dot = np.sum(d_scores * scores, axis=-1)
    d_queries = scaled @ blocks - (ds_dot / (nq * nq))[..., None] * queries
    ds_dot_b = np.sum(d_scores * scores, axis=-2)
    d_blocks = scaled.swapaxes(-1, -2) @ queries - (ds_dot_b / (nb * nb))[..., None] * blocks
    return d_queries, d_blocks
