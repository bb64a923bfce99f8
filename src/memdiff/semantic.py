"""Semantic memory: learnable channel-shared pattern blocks.

A bank of N1 d-vectors addressed by cosine attention. Recall aggregates
every block (no top-k truncation); the compactness losses pull each query
toward its most similar block and push the runner-up at least a margin
away. Blocks are plain parameters updated by the optimizer, so gradient
reaches them both through recall and through the losses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention
from .errors import InvariantError
from .nn import ParamTensor

REJITTER_NORM = 1e-8

cosine_score = attention.cosine_score


@dataclass
class SemanticRecallTrace:
    queries: np.ndarray
    scores: np.ndarray
    weights: np.ndarray
    z: np.ndarray
    nq: np.ndarray
    nb: np.ndarray
    blocks: np.ndarray


@dataclass
class SemanticLossTrace:
    queries: np.ndarray
    nearest: np.ndarray        # per-row index of most similar block
    second: "np.ndarray | None"
    hinge_active: "np.ndarray | None"


class SemanticMemory:
    """Wraps the (N1, d) block parameter with recall and loss machinery."""

    def __init__(self, blocks: ParamTensor):
        if blocks.values.ndim != 2:
            raise InvariantError("semantic blocks must be a (N1, d) matrix")
        self.blocks = blocks

    @property
    def count(self) -> int:
        return self.blocks.values.shape[0]

    @property
    def dim(self) -> int:
        return self.blocks.values.shape[1]

    def rejitter(self, rng: np.random.Generator):
        """Re-draw any block whose norm collapsed below the floor."""
        vals = self.blocks.values
        norms = np.sqrt(np.sum(vals * vals, axis=1))
        bad = norms < REJITTER_NORM
        if np.any(bad):
            vals[bad] = rng.standard_normal((int(bad.sum()), self.dim))

    def scores(self, queries: np.ndarray) -> np.ndarray:
        """Raw (R, N1) cosine score matrix; feeds the attention-score export."""
        s, _, _ = attention.cosine_matrix(self.blocks.values, queries)
        return s

    def recall(self, queries: np.ndarray) -> "tuple[np.ndarray, SemanticRecallTrace]":
        """Aggregate all blocks per query with clamp-normalized weights."""
        if self.count < 1:
            raise InvariantError("semantic memory is empty")
        blocks = self.blocks.values
        scores, nq, nb = attention.cosine_matrix(blocks, queries)
        weights, z = attention.clamp_normalize(scores)
        out = weights @ blocks
        return out, SemanticRecallTrace(queries, scores, weights, z, nq, nb, blocks)

    def recall_backward(self, trace: SemanticRecallTrace, upstream: np.ndarray) -> np.ndarray:
        """Accumulate block grads; return gradient w.r.t. the queries."""
        d_weights = upstream @ trace.blocks.T
        self.blocks.grad += trace.weights.T @ upstream
        d_scores = attention.weights_backward(d_weights, trace.weights, trace.z, trace.scores)
        d_queries, d_blocks = attention.cosine_matrix_backward(
            d_scores, trace.blocks, trace.queries, trace.scores, trace.nq, trace.nb
        )
        self.blocks.grad += d_blocks
        return d_queries

    def losses(self, queries: np.ndarray, margin: float) -> "tuple[float, float, SemanticLossTrace]":
        """Consistency and contrastive losses over the query rows.

        Nearest/second-nearest are ranked by cosine score, ties to the
        lowest block index. With a single block the contrastive term is 0.
        """
        order, _ = attention.top_k(self.scores(queries), min(2, self.count))
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
        return d_queries
