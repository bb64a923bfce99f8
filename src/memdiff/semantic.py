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
class SemanticLossTrace:
    queries: np.ndarray        # group-major, as in attention.ReadTrace
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
        bad = attention.l2_norms(vals) < REJITTER_NORM
        if np.any(bad):
            vals[bad] = rng.standard_normal((int(bad.sum()), vals.shape[1]))

    def _keys(self) -> "tuple[np.ndarray, np.ndarray]":
        """The (G, N1, d) block view and its (G, N1) norms."""
        blocks = self._split(self.blocks.values)
        return blocks, attention.l2_norms(blocks)

    def scores(self, queries: np.ndarray) -> np.ndarray:
        """Raw (R, N1) cosine scores of each row against its group's blocks (score export)."""
        return attention.ungroup_rows(attention.cosine(queries, *self._keys())[1])

    def recall(self, queries: np.ndarray) -> "tuple[np.ndarray, attention.ReadTrace]":
        """Aggregate all of a group's blocks per query with clamp-normalized weights."""
        if self.count < 1:
            raise InvariantError("semantic memory is empty")
        return attention.read(queries, *self._keys())

    def recall_backward(self, trace: attention.ReadTrace, upstream: np.ndarray) -> np.ndarray:
        """Accumulate block grads; return gradient w.r.t. the queries."""
        return attention.read_backward(trace, upstream, self._split(self.blocks.grad))

    def losses(self, trace: attention.ReadTrace, margin: float
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
        queries = trace.rows
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
