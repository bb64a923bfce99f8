"""Cosine-attention read shared by the two memory modules.

Both memories hold G groups: G = 1 shares one memory across channels, G =
n_channels gives each channel its own. Channel rows (B*N, d), with channel
= row % N, reach a memory's (G, n, d) keys as (G, B*N/G, d) through
group_rows. ``read`` weighs every key of the row's group (semantic memory)
or the row's top k (episodic memory); ``read_backward`` serves both.

Scores are cosine similarities; recall weights clamp negative scores to
zero and add a small epsilon before normalizing, so the aggregation is
always a convex combination even when every score is non-positive (the
epsilon then yields uniform weights). Backward passes are exact; the
clamp uses the zero subgradient at the kink.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, NumericError

WEIGHT_EPS = 1e-8
_NORM_FLOOR = 1e-30


def as_rows(x) -> np.ndarray:
    """x as 2-D float64 rows; an array that already is one is returned as is."""
    if type(x) is np.ndarray and x.ndim == 2 and x.dtype == np.float64:
        return x
    return np.atleast_2d(np.asarray(x, dtype=np.float64))


def check_norms(norms: np.ndarray, what: str) -> np.ndarray:
    """Return norms unchanged, rejecting numerically zero vectors."""
    # the ufunc reductions are what .any() and .sum() call, without their Python frames
    if np.logical_or.reduce(norms < _NORM_FLOOR, axis=None):
        bad = int(np.argmax(norms < _NORM_FLOOR))
        raise NumericError(f"zero-norm {what} vector at index {bad}")
    return norms


def l2_norms(x: np.ndarray) -> np.ndarray:
    """L2 norms of rows, unchecked."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


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


@functools.lru_cache(maxsize=64)
def group_starts(groups: int, stride: int) -> np.ndarray:
    """(G, 1, 1) read-only offsets g * stride: a group's first flat row in (G * stride, ...)."""
    starts = np.arange(0, groups * stride, stride).reshape(groups, 1, 1)
    starts.setflags(write=False)
    return starts


def cosine(rows: np.ndarray, keys: np.ndarray, key_norms: np.ndarray):
    """Cosine scores of (R, d) channel rows against their group's (G, n, d) keys.

    Returns the (G, R', d) grouped rows, their (G, R', n) scores and (G, R')
    norms. Key norms are checked before row norms.
    """
    grouped = group_rows(rows, len(keys))
    check_norms(key_norms, "block")
    nq = row_norms(grouped, "query")
    scores = grouped @ keys.swapaxes(-1, -2)
    scores /= nq[..., None] * key_norms[:, None, :]
    return grouped, scores, nq


def top_k(scores: np.ndarray, k: int) -> "tuple[np.ndarray, np.ndarray]":
    """(..., k) column indices and values of each row's k largest of (..., n) scores.

    Picks exactly what ``np.argsort(-scores, axis=-1, kind="stable")[..., :k]``
    picks, in the same order: ties go to the lowest index. That holds for
    rows without NaN and for all-NaN rows. k argmax passes over a copy,
    each masking its pick with -inf, cost far less than the full sort when
    k is small. ``scores`` is left unchanged.
    """
    # the passes run over (rows, n): offsetting and masking by (G, R') picks took 1.6x as long
    work = scores.reshape(-1, scores.shape[-1]).copy()   # C order, so flat views it
    rows, cols = work.shape
    flat = work.reshape(-1)
    row_start = np.arange(0, rows * cols, cols)
    at = np.empty((rows, k), dtype=np.intp)  # flat positions of the picks
    for j in range(k):
        pick = at[:, j]
        work.argmax(axis=1, out=pick)
        pick += row_start
        if j + 1 < k:
            flat[pick] = -np.inf
    vals = scores.reshape(-1).take(at)
    at -= row_start[:, None]
    shape = (*scores.shape[:-1], k)
    return at.reshape(shape), vals.reshape(shape)


def clamp_normalize(scores: np.ndarray):
    """Rows of clamped scores to convex weights: (max(s,0)+eps) / rowsum."""
    pos = np.maximum(scores, 0.0)
    pos += WEIGHT_EPS
    z = np.add.reduce(pos, axis=-1)
    pos /= z[..., None]
    return pos, z


@dataclass
class ReadTrace:
    """One read, its row arrays grouped as group_rows lays them out: (G, R', ...)."""

    rows: np.ndarray        # (G, R', d) grouped rows
    idx: "np.ndarray | None"   # (G, R', k) picks within the group; None: every key was read
    keys: np.ndarray        # (G, n, d) shared, or (G, R', k, d) each row's picks, C order
    key_norms: np.ndarray   # (G, 1, n) or (G, R', k), broadcasting like the scores
    scores: np.ndarray      # (G, R', n or k) cosine scores
    weights: np.ndarray     # (G, R', n or k) clamp-normalized scores
    z: np.ndarray           # (G, R') weight normalizers
    nq: np.ndarray          # (G, R') row norms


def _mix(weights: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """(G, R', d) weighted key sums: shared keys by matmul, each row's picks by einsum."""
    if keys.ndim == 3:
        return weights @ keys
    return np.einsum("...k,...kd->...d", weights, keys)


def read(rows: np.ndarray, keys: np.ndarray, key_norms: np.ndarray,
         k: "int | None" = None) -> "tuple[np.ndarray, ReadTrace]":
    """Recall (R, d) channel rows from their group's (G, n, d) keys; returns (R, d), trace.

    k = None weighs every key of the group; an integer k weighs each row's
    top k, picked by top_k even when k >= n, which fixes the summation order.
    The picks are gathered by flat row of the (G*n, d) keys.
    """
    groups, n, dim = keys.shape
    grouped, scores, nq = cosine(rows, keys, key_norms)
    idx = None
    if k is None:
        key_norms = key_norms[:, None, :]
    else:
        idx, scores = top_k(scores, k)
        at = idx + group_starts(groups, n)
        keys, key_norms = keys.reshape(-1, dim).take(at, axis=0), key_norms.reshape(-1).take(at)
    weights, z = clamp_normalize(scores)
    trace = ReadTrace(grouped, idx, keys, key_norms, scores, weights, z, nq)
    return ungroup_rows(_mix(weights, keys)), trace


def read_backward(trace: ReadTrace, upstream: np.ndarray,
                  key_grad: "np.ndarray | None" = None) -> np.ndarray:
    """Gradient of a read w.r.t. its (R, d) rows, given upstream (R, d).

    Shared keys add their gradient to a (G, n, d) key_grad, if given;
    selected keys are constants.
    """
    keys, kn, weights, scores = trace.keys, trace.key_norms, trace.weights, trace.scores
    nq, rows = trace.nq, trace.rows
    upstream = group_rows(upstream, len(keys))
    if trace.idx is None:
        d_weights = upstream @ keys.swapaxes(-1, -2)
    else:
        d_weights = np.einsum("...d,...kd->...k", upstream, keys)
    rowdot = (weights * d_weights).sum(axis=-1, keepdims=True)      # through clamp_normalize
    d_scores = (d_weights - rowdot) / trace.z[..., None] * (scores > 0.0)
    scaled = d_scores / (nq[..., None] * kn)                        # through the cosine
    ds_scores = d_scores * scores
    d_rows = _mix(scaled, keys) - (ds_scores.sum(axis=-1) / (nq * nq))[..., None] * rows
    if key_grad is not None:
        key_grad += weights.swapaxes(-1, -2) @ upstream
        ds_dot, kn = ds_scores.sum(axis=-2), kn[:, 0]
        key_grad += scaled.swapaxes(-1, -2) @ rows - (ds_dot / (kn * kn))[..., None] * keys
    return ungroup_rows(d_rows)
