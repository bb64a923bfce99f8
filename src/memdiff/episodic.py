"""Episodic memory: a non-parametric store of special patterns.

Patterns are frozen snapshots of per-channel query vectors taken from the
hardest sample of a batch. Recall is top-k cosine attention over every
live record (main slots and the candidate queue), counting how often each
record is recalled. Updates follow a frequency-based eviction scheme with
a circular candidate queue: new patterns enter at the queue head and only
face eviction after transiting to the tail, which protects fresh patterns
from the low-frequency churn that would otherwise replace them at once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import attention
from .errors import InvariantError


@dataclass
class EpisodicRecord:
    pattern: np.ndarray    # frozen (d,) snapshot, never touched by gradients
    freq: int
    birth: int             # global insertion counter, breaks ranking ties

    def clone(self) -> "EpisodicRecord":
        return EpisodicRecord(self.pattern, self.freq, self.birth)


@dataclass
class EpisodicRecallTrace:
    queries: np.ndarray
    idx: np.ndarray         # (R, K) selected record indices
    gathered: np.ndarray    # (R, K, d) selected patterns
    scores: np.ndarray      # (R, K) selected cosine scores
    weights: np.ndarray
    z: np.ndarray
    nq: np.ndarray
    np_sel: np.ndarray      # (R, K) norms of selected patterns


class EpisodicStore:
    """Capacity-limited pattern store with recall counting and queue-guarded eviction."""

    def __init__(self, dim: int, capacity: int, queue_capacity: int, recall_top_k: int = 5):
        if queue_capacity > capacity:
            raise InvariantError(f"queue capacity {queue_capacity} exceeds store capacity {capacity}")
        if capacity < 1 or queue_capacity < 1 or recall_top_k < 1:
            raise InvariantError("capacities and recall_top_k must be positive")
        self.dim = dim
        self.capacity = capacity
        self.queue_capacity = queue_capacity
        self.recall_top_k = recall_top_k
        self.entries: "list[EpisodicRecord]" = []
        self.queue: "deque[EpisodicRecord]" = deque()   # index 0 = head, -1 = tail
        self._birth = 0
        self._stacked = None   # (records, patterns, norms), dropped on every change

    def __len__(self):
        return len(self.entries)

    @property
    def is_empty(self) -> bool:
        return not self.entries and not self.queue

    def _records(self) -> "list[EpisodicRecord]":
        return self.entries + list(self.queue)

    def _stack(self) -> "tuple[list[EpisodicRecord], np.ndarray, np.ndarray]":
        """Live records, their (n, d) pattern matrix and its row norms.

        Patterns are frozen, so the stack stays valid until the next
        update or load; the store must not be empty.
        """
        if self._stacked is None:
            recs = self._records()
            pats = np.stack([r.pattern for r in recs])
            self._stacked = (recs, pats, attention.row_norms(pats, "block"))
        return self._stacked

    def _new_record(self, pattern: np.ndarray) -> EpisodicRecord:
        pat = np.array(pattern, dtype=np.float64, copy=True)
        pat.setflags(write=False)
        rec = EpisodicRecord(pat, 0, self._birth)
        self._birth += 1
        return rec

    def _check_invariants(self):
        if len(self.entries) > self.capacity:
            raise InvariantError("episodic entries exceed capacity")
        if len(self.queue) > self.queue_capacity:
            raise InvariantError("episodic queue exceeds capacity")

    # -- recall ---------------------------------------------------------

    def _cosine(self, queries: np.ndarray):
        """attention.cosine_matrix against the stacked patterns, reusing their norms."""
        _, pats, npat = self._stack()
        nq = attention.row_norms(queries, "query")
        return (queries @ pats.T) / (nq[:, None] * npat[None, :]), nq

    def scores(self, queries: np.ndarray) -> np.ndarray:
        """(R, n_records) cosine score matrix; empty store gives zero columns."""
        queries = np.atleast_2d(queries)
        if self.is_empty:
            return np.zeros((queries.shape[0], 0))
        return self._cosine(queries)[0]

    def recall(self, queries: np.ndarray, update_freq: bool = True
               ) -> "tuple[np.ndarray, EpisodicRecallTrace | None]":
        """Weighted sum of the top-k most similar records per query row.

        An empty store recalls the zero vector. Each recalled record's
        freq is incremented once per query row unless update_freq is off
        (the gradient checker re-evaluates the loss without counting).
        """
        queries = np.atleast_2d(queries)
        if self.is_empty:
            return np.zeros((queries.shape[0], self.dim)), None
        recs, pats, npat = self._stack()
        scores, nq = self._cosine(queries)
        k = min(self.recall_top_k, len(recs))
        idx = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        sel_scores = np.take_along_axis(scores, idx, axis=1)
        weights, z = attention.clamp_normalize(sel_scores)
        gathered = pats[idx]                           # (R, K, d)
        out = np.einsum("rk,rkd->rd", weights, gathered)
        if update_freq:
            counts = np.bincount(idx.ravel(), minlength=len(recs)).tolist()
            for rec, n in zip(recs, counts):
                rec.freq += n
        trace = EpisodicRecallTrace(queries, idx, gathered, sel_scores,
                                    weights, z, nq, npat[idx])
        return out, trace

    def recall_backward(self, trace: "EpisodicRecallTrace | None", upstream: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. the queries. Stored patterns are constants."""
        if trace is None:
            return np.zeros_like(upstream)
        d_weights = np.einsum("rd,rkd->rk", upstream, trace.gathered)
        d_scores = attention.weights_backward(d_weights, trace.weights, trace.z, trace.scores)
        scaled = d_scores / (trace.nq[:, None] * trace.np_sel)
        ds_dot = np.sum(d_scores * trace.scores, axis=1)
        return (np.einsum("rk,rkd->rd", scaled, trace.gathered)
                - (ds_dot / (trace.nq * trace.nq))[:, None] * trace.queries)

    # -- update ---------------------------------------------------------

    def update(self, new_patterns: np.ndarray):
        """Insert one batch of special patterns.

        Filling phase: straight into the main slots. Steady state: pop as
        many tail records as needed to make room in the queue (the last k
        once the queue runs full), rank them together with the main slots
        by recall frequency (ties keep the older record), keep the top N2,
        and push the new patterns at the queue head. Popping only what
        overflows guarantees every record transits the whole queue before
        facing eviction. Main-slot frequency counters reset to zero after
        every update.
        """
        new_patterns = np.atleast_2d(np.asarray(new_patterns, dtype=np.float64))
        k = new_patterns.shape[0]
        if k == 0:
            return
        if k > self.queue_capacity:
            raise InvariantError(
                f"{k} patterns per update exceeds queue capacity {self.queue_capacity}"
            )
        fresh = [self._new_record(p) for p in new_patterns]

        while fresh and len(self.entries) < self.capacity:
            self.entries.append(fresh.pop(0))
        if fresh:
            n_pop = max(0, len(self.queue) + len(fresh) - self.queue_capacity)
            popped = [self.queue.pop() for _ in range(n_pop)]
            pool = self.entries + popped
            pool.sort(key=lambda rec: (-rec.freq, rec.birth))
            self.entries = pool[: self.capacity]
            for rec in reversed(fresh):
                self.queue.appendleft(rec)
        for rec in self.entries:
            rec.freq = 0
        self._stacked = None
        self._check_invariants()

    # -- persistence ----------------------------------------------------

    def state_arrays(self, prefix: str = "episodic") -> "dict[str, np.ndarray]":
        def pack(recs):
            if not recs:
                return (np.zeros((0, self.dim)), np.zeros(0, dtype=np.int64),
                        np.zeros(0, dtype=np.int64))
            return (np.stack([r.pattern for r in recs]),
                    np.array([r.freq for r in recs], dtype=np.int64),
                    np.array([r.birth for r in recs], dtype=np.int64))

        e_pat, e_freq, e_birth = pack(self.entries)
        q_pat, q_freq, q_birth = pack(list(self.queue))
        return {
            f"{prefix}/entries/patterns": e_pat,
            f"{prefix}/entries/freqs": e_freq,
            f"{prefix}/entries/births": e_birth,
            f"{prefix}/queue/patterns": q_pat,
            f"{prefix}/queue/freqs": q_freq,
            f"{prefix}/queue/births": q_birth,
            f"{prefix}/birth_counter": np.array([self._birth], dtype=np.int64),
        }

    def load_state_arrays(self, arrays: "dict[str, np.ndarray]", prefix: str = "episodic"):
        def unpack(pats, freqs, births):
            recs = []
            for pat, freq, birth in zip(pats, freqs, births):
                p = np.array(pat, dtype=np.float64)
                p.setflags(write=False)
                recs.append(EpisodicRecord(p, int(freq), int(birth)))
            return recs

        self.entries = unpack(arrays[f"{prefix}/entries/patterns"],
                              arrays[f"{prefix}/entries/freqs"],
                              arrays[f"{prefix}/entries/births"])
        self.queue = deque(unpack(arrays[f"{prefix}/queue/patterns"],
                                  arrays[f"{prefix}/queue/freqs"],
                                  arrays[f"{prefix}/queue/births"]))
        self._birth = int(arrays[f"{prefix}/birth_counter"][0])
        self._stacked = None
        self._check_invariants()


def select_special(batch_losses: np.ndarray, batch_queries: np.ndarray) -> "np.ndarray | None":
    """Channel query vectors of the hardest (highest-loss) batch sample.

    Samples with non-finite loss are excluded; returns None when none
    remain so the caller can skip the episodic update. Ties resolve to the
    lowest batch index.
    """
    losses = np.asarray(batch_losses, dtype=np.float64)
    if losses.size == 0:
        raise InvariantError("select_special on an empty batch")
    finite = np.isfinite(losses)
    if not np.any(finite):
        return None
    masked = np.where(finite, losses, -np.inf)
    pick = int(np.argmax(masked))
    return np.asarray(batch_queries[pick], dtype=np.float64).copy()
