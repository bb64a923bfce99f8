"""Semantic memory: learnable pattern blocks, channel-shared or per channel.

One bank of N1 d-vectors per group, addressed by cosine attention.
Recall aggregates every block of the query's group (no top-k truncation);
the compactness losses pull each query toward its most similar block and
push the runner-up at least a margin away. Blocks are plain parameters
updated by the optimizer, so gradient reaches them both through recall and
through the losses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention
from .errors import InvariantError
from .nn import ParamTensor

REJITTER_NORM = 1e-8


@dataclass
class SemanticRecallTrace:
    """Row arrays are group-major: group g's R' query rows come g-th."""

    queries: np.ndarray    # (G*R', d)
    scores: np.ndarray     # (G*R', N1)
    weights: np.ndarray    # (G*R', N1)
    z: np.ndarray          # (G*R',)
    nq: np.ndarray         # (G*R',)
    nb: np.ndarray         # (G, N1)
    blocks: np.ndarray     # (G, N1, d)


@dataclass
class SemanticLossTrace:
    queries: np.ndarray        # group-major, as in SemanticRecallTrace
    nearest: np.ndarray        # per-row parameter row of the most similar block
    second: "np.ndarray | None"
    hinge_active: "np.ndarray | None"


class SemanticMemory:
    """The (G*N1, d) block parameter, G groups of N1 blocks, with recall and losses.

    Query rows are channel rows, grouped by attention.group_rows: one group
    shares the blocks across channels, n_channels groups give each channel
    its own N1 blocks.
    """

    def __init__(self, blocks: ParamTensor, groups: int = 1):
        if blocks.values.ndim != 2 or blocks.values.shape[0] % groups:
            raise InvariantError(f"semantic blocks must be a ({groups} * N1, d) matrix")
        self.blocks = blocks
        self.groups = groups

    @property
    def count(self) -> int:
        """Blocks per group."""
        return self.blocks.values.shape[0] // self.groups

    def _split(self, a: np.ndarray) -> np.ndarray:
        """(G*X, ...) group-major array as (G, X, ...)."""
        return a.reshape(self.groups, -1, *a.shape[1:])

    def rejitter(self, rng: np.random.Generator):
        """Re-draw any block whose norm collapsed below the floor."""
        vals = self.blocks.values
        norms = np.sqrt(np.sum(vals * vals, axis=1))
        bad = norms < REJITTER_NORM
        if np.any(bad):
            vals[bad] = rng.standard_normal((int(bad.sum()), vals.shape[1]))

    def scores(self, queries: np.ndarray) -> np.ndarray:
        """Raw (R, N1) cosine scores of each row against its group's blocks;
        feeds the attention-score export."""
        s, _, _ = attention.cosine_matrix(self._split(self.blocks.values),
                                          attention.group_rows(queries, self.groups))
        return attention.ungroup_rows(s)

    def recall(self, queries: np.ndarray) -> "tuple[np.ndarray, SemanticRecallTrace]":
        """Aggregate all of a group's blocks per query with clamp-normalized weights."""
        blocks = self._split(self.blocks.values)
        _, n1, dim = blocks.shape
        if n1 < 1:
            raise InvariantError("semantic memory is empty")
        grouped = attention.group_rows(queries, self.groups)
        scores, nq, nb = attention.cosine_matrix(blocks, grouped)
        weights, z = attention.clamp_normalize(scores)
        out = attention.ungroup_rows(weights @ blocks)
        return out, SemanticRecallTrace(grouped.reshape(-1, dim), scores.reshape(-1, n1),
                                        weights.reshape(-1, n1), z.ravel(), nq.ravel(),
                                        nb, blocks)

    def recall_backward(self, trace: SemanticRecallTrace, upstream: np.ndarray) -> np.ndarray:
        """Accumulate block grads; return gradient w.r.t. the queries."""
        split = self._split
        upstream = attention.group_rows(upstream, self.groups)
        weights, scores = split(trace.weights), split(trace.scores)
        grad = split(self.blocks.grad)
        d_weights = upstream @ trace.blocks.swapaxes(-1, -2)
        grad += weights.swapaxes(-1, -2) @ upstream
        d_scores = attention.weights_backward(d_weights, weights, split(trace.z), scores)
        d_queries, d_blocks = attention.cosine_matrix_backward(
            d_scores, trace.blocks, split(trace.queries), scores, split(trace.nq), trace.nb
        )
        grad += d_blocks
        return attention.ungroup_rows(d_queries)

    def losses(self, trace: SemanticRecallTrace, margin: float
               ) -> "tuple[float, float, SemanticLossTrace]":
        """Consistency and contrastive losses over a recall's query rows.

        Nearest/second-nearest are ranked by the recall's cosine scores,
        ties to the lowest block index. With a single block the contrastive
        term is 0.
        """
        # top_k scratches its input, and recall_backward still reads the scores
        order, _ = attention.top_k(trace.scores.copy(), min(2, self.count))
        # block index within the group -> row of the (G*N1, d) parameter
        order += np.repeat(np.arange(self.groups) * self.count,
                           len(order) // self.groups)[:, None]
        queries = trace.queries
        nearest = order[:, 0]
        d1 = queries - self.blocks.values[nearest]
        sq1 = np.sum(d1 * d1, axis=1)
        l1 = float(np.sum(sq1))
        if self.count < 2:
            return l1, 0.0, SemanticLossTrace(queries, nearest, None, None)
        second = order[:, 1]
        d2 = queries - self.blocks.values[second]
        sq2 = np.sum(d2 * d2, axis=1)
        hinge = sq1 - sq2 + margin
        active = hinge > 0.0
        l2 = float(np.sum(hinge[active]))
        return l1, l2, SemanticLossTrace(queries, nearest, second, active)

    def losses_backward(self, trace: SemanticLossTrace, c1: float, c2: float) -> np.ndarray:
        """Accumulate block grads for c1*L1 + c2*L2; return query gradient."""
        queries = trace.queries
        blocks = self.blocks.values
        d1 = queries - blocks[trace.nearest]
        d_queries = 2.0 * c1 * d1
        np.add.at(self.blocks.grad, trace.nearest, -2.0 * c1 * d1)
        if trace.second is not None and c2 != 0.0:
            act = trace.hinge_active.astype(queries.dtype)[:, None]
            d2 = queries - blocks[trace.second]
            d_queries += 2.0 * c2 * act * (d1 - d2)
            np.add.at(self.blocks.grad, trace.nearest, -2.0 * c2 * act * d1)
            np.add.at(self.blocks.grad, trace.second, 2.0 * c2 * act * d2)
        return attention.ungroup_rows(self._split(d_queries))
