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
    """Row arrays grouped (G, R', ...), as in attention.ReadTrace."""

    nearest: np.ndarray        # (G, R') parameter row of each query's most similar block
    second: "np.ndarray | None"
    hinge_active: "np.ndarray | None"
    d1: np.ndarray             # (G, R', d) query minus its nearest block
    d2: "np.ndarray | None"    # (G, R', d) query minus its second-nearest block


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
        """The (G*N1, d) block values or grads as (G, N1, d)."""
        return a.reshape(self.groups, -1, *a.shape[1:])

    def rejitter(self, rng: np.random.Generator):
        """Re-draw any block whose norm collapsed below the floor."""
        vals = self.blocks.values
        bad = attention.l2_norms(vals) < REJITTER_NORM
        if bad.any():
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
        order, _ = attention.top_k(trace.scores, min(2, self.count))
        # block index within the group -> row of the (G*N1, d) parameter
        order += attention.group_starts(self.groups, self.count)
        queries, blocks = trace.rows, self.blocks.values
        nearest = order[..., 0]
        d1 = queries - blocks.take(nearest, axis=0)
        sq1 = (d1 * d1).sum(axis=-1)
        l1 = float(sq1.sum())
        if self.count < 2:
            return l1, 0.0, SemanticLossTrace(nearest, None, None, d1, None)
        second = order[..., 1]
        d2 = queries - blocks.take(second, axis=0)
        sq2 = (d2 * d2).sum(axis=-1)
        hinge = sq1 - sq2
        hinge += margin
        active = hinge > 0.0
        l2 = float(hinge[active].sum())
        return l1, l2, SemanticLossTrace(nearest, second, active, d1, d2)

    def losses_backward(self, trace: SemanticLossTrace, c1: float, c2: float) -> np.ndarray:
        """Accumulate block grads for c1*L1 + c2*L2; return query gradient."""
        d1, d2 = trace.d1, trace.d2
        d_queries = 2.0 * c1 * d1
        rows, terms = [trace.nearest], [-2.0 * c1 * d1]
        if trace.second is not None and c2 != 0.0:
            act = trace.hinge_active.astype(d1.dtype)[..., None]
            d_queries += 2.0 * c2 * act * (d1 - d2)
            rows += [trace.nearest, trace.second]
            terms += [-2.0 * c2 * act * d1, 2.0 * c2 * act * d2]
        # One flat scatter-add, its terms in the order three row-wise ones would
        # add them; the grad is a C-order view, so reshape(-1) views it too.
        grad = self.blocks.grad
        dim = grad.shape[1]
        at = (np.concatenate(rows)[..., None] * dim + np.arange(dim)).reshape(-1)
        np.add.at(grad.reshape(-1), at, np.concatenate(terms).reshape(-1))
        return attention.ungroup_rows(d_queries)
