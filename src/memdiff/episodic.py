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

from dataclasses import dataclass

import numpy as np

from . import attention
from .checkpoint import require
from .errors import DataError, InvariantError


@dataclass
class EpisodicRecord:
    """Read-only snapshot of one live record (see EpisodicStore.records)."""

    pattern: np.ndarray    # frozen (d,) snapshot, never touched by gradients
    freq: int
    birth: int             # global insertion counter, breaks ranking ties


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
    """Capacity-limited pattern store with recall counting and queue-guarded eviction.

    Preallocated arrays of capacity + queue_capacity rows hold the records:
    pattern, pattern norm (taken once, at insertion), recall frequency and
    birth. The live rows are the main slots first, then the queue from head
    to tail; a record's index in recall is its row. Recall reads the live
    rows in place; ``entries``, ``queue`` and ``records`` build read-only
    EpisodicRecord snapshots of them.
    """

    def __init__(self, dim: int, capacity: int, queue_capacity: int, recall_top_k: int = 5):
        if queue_capacity > capacity:
            raise InvariantError(f"queue capacity {queue_capacity} exceeds store capacity {capacity}")
        if capacity < 1 or queue_capacity < 1 or recall_top_k < 1:
            raise InvariantError("capacities and recall_top_k must be positive")
        self.dim = dim
        self.capacity = capacity
        self.queue_capacity = queue_capacity
        self.recall_top_k = recall_top_k
        rows = capacity + queue_capacity
        self._patterns = np.zeros((rows, dim))
        self._norms = np.zeros(rows)
        self._freqs = np.zeros(rows, dtype=np.int64)
        self._births = np.zeros(rows, dtype=np.int64)
        self._columns = (self._patterns, self._norms, self._freqs, self._births)
        self._rows = np.arange(rows)
        self._n_main = 0    # rows [0, _n_main) are the main slots
        self._n_queue = 0   # the next _n_queue rows the queue, head first
        self._birth = 0

    def __len__(self):
        return self._n_main

    @property
    def is_empty(self) -> bool:
        return self._n_main + self._n_queue == 0

    def _snapshot(self, lo: int, hi: int) -> "list[EpisodicRecord]":
        patterns = self._patterns[lo:hi].copy()
        patterns.setflags(write=False)
        return [EpisodicRecord(p, f, b) for p, f, b in zip(
            patterns, self._freqs[lo:hi].tolist(), self._births[lo:hi].tolist())]

    @property
    def entries(self) -> "list[EpisodicRecord]":
        return self._snapshot(0, self._n_main)

    @property
    def queue(self) -> "list[EpisodicRecord]":
        """Queued records, head (newest) first."""
        return self._snapshot(self._n_main, self._n_main + self._n_queue)

    @property
    def records(self) -> "list[EpisodicRecord]":
        """Every live record in recall-index order: entries, then the queue."""
        return self._snapshot(0, self._n_main + self._n_queue)

    def _put(self, dst: int, fresh: tuple, lo: int, hi: int):
        """Write rows [lo, hi) of the fresh columns at row dst onwards."""
        for col, new in zip(self._columns, fresh):
            col[dst:dst + hi - lo] = new[lo:hi]

    # -- recall ---------------------------------------------------------

    def _cosine(self, queries: np.ndarray):
        """attention.cosine_matrix against the live patterns, reusing their norms."""
        n = self._n_main + self._n_queue
        npat = attention.check_norms(self._norms[:n], "block")
        nq = attention.row_norms(queries, "query")
        return (queries @ self._patterns[:n].T) / (nq[:, None] * npat[None, :]), nq

    def scores(self, queries: np.ndarray) -> np.ndarray:
        """(R, n_records) cosine score matrix; empty store gives zero columns."""
        queries = np.atleast_2d(queries)
        if self.is_empty:
            return np.zeros((queries.shape[0], 0))
        return self._cosine(queries)[0]

    def recall(self, queries: np.ndarray, update_freq: bool = True
               ) -> "tuple[np.ndarray, EpisodicRecallTrace | None]":
        """Weighted sum of the top-k most similar records per query row.

        Ties between equal scores go to the lower record index. An empty
        store recalls the zero vector. Each recalled record's freq is
        incremented once per query row unless update_freq is off (the
        gradient checker re-evaluates the loss without counting).
        """
        queries = np.atleast_2d(queries)
        if self.is_empty:
            return np.zeros((queries.shape[0], self.dim)), None
        n = self._n_main + self._n_queue
        scores, nq = self._cosine(queries)
        idx, sel_scores = attention.top_k(scores, min(self.recall_top_k, n))
        weights, z = attention.clamp_normalize(sel_scores)
        gathered = self._patterns[idx]                 # (R, K, d)
        out = np.einsum("rk,rkd->rd", weights, gathered)
        if update_freq:
            self._freqs[:n] += np.bincount(idx.ravel(), minlength=n)
        trace = EpisodicRecallTrace(queries, idx, gathered, sel_scores,
                                    weights, z, nq, self._norms[idx])
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
        every update. A zero-norm pattern is stored; recall rejects it.
        """
        new_patterns = np.atleast_2d(np.asarray(new_patterns, dtype=np.float64))
        k = new_patterns.shape[0]
        if k == 0:
            return
        if k > self.queue_capacity:
            raise InvariantError(
                f"{k} patterns per update exceeds queue capacity {self.queue_capacity}"
            )
        fresh = (new_patterns, attention.l2_norms(new_patterns),
                 np.zeros(k, dtype=np.int64), self._birth + np.arange(k, dtype=np.int64))
        self._birth += k

        # the queue stays empty until the main slots are full
        n_fill = min(k, self.capacity - self._n_main)
        self._put(self._n_main, fresh, 0, n_fill)
        self._n_main += n_fill
        if n_fill < k:
            cap, n_new = self.capacity, k - n_fill
            n_pop = max(0, self._n_queue + n_new - self.queue_capacity)
            tail = cap + self._n_queue - 1
            # pool: the main slots, then the popped records tail first
            pool = np.concatenate((self._rows[:cap], self._rows[tail:tail - n_pop:-1]))
            keep = pool[np.lexsort((self._births[pool], -self._freqs[pool]))[:cap]]
            self._n_queue -= n_pop
            for col in self._columns:
                col[:cap] = col[keep]
                # the surviving queue moves back to make room at the head
                col[cap + n_new:cap + n_new + self._n_queue] = col[cap:cap + self._n_queue]
            self._put(cap, fresh, n_fill, k)
            self._n_queue += n_new
        self._freqs[:self._n_main] = 0

    # -- persistence ----------------------------------------------------

    def state_arrays(self, prefix: str = "episodic") -> "dict[str, np.ndarray]":
        out = {}
        n = self._n_main + self._n_queue
        for part, lo, hi in (("entries", 0, self._n_main), ("queue", self._n_main, n)):
            out[f"{prefix}/{part}/patterns"] = self._patterns[lo:hi].copy()
            out[f"{prefix}/{part}/freqs"] = self._freqs[lo:hi].copy()
            out[f"{prefix}/{part}/births"] = self._births[lo:hi].copy()
        out[f"{prefix}/birth_counter"] = np.array([self._birth], dtype=np.int64)
        return out

    def load_state_arrays(self, arrays: "dict[str, np.ndarray]", prefix: str = "episodic"):
        """Restore a state_arrays dict; a missing or misshapen array raises DataError."""
        parts = []
        for part, limit in (("entries", self.capacity), ("queue", self.queue_capacity)):
            pats, freqs, births = (require(arrays, f"{prefix}/{part}/{name}")
                                   for name in ("patterns", "freqs", "births"))
            pats = np.asarray(pats, dtype=np.float64)
            if pats.ndim != 2 or pats.shape[1] != self.dim:
                raise DataError(f"{prefix}/{part}/patterns is shaped {pats.shape}, "
                                f"expected (records, {self.dim})")
            if freqs.shape != (len(pats),) or births.shape != (len(pats),):
                raise DataError(f"{prefix}/{part} freqs {freqs.shape} and births "
                                f"{births.shape} do not match {len(pats)} patterns")
            if len(pats) > limit:
                raise DataError(f"{prefix}/{part} holds {len(pats)} records, capacity {limit}")
            parts.append((pats, attention.l2_norms(pats), freqs, births))
        counter = require(arrays, f"{prefix}/birth_counter")
        if counter.shape != (1,):
            raise DataError(f"{prefix}/birth_counter is shaped {counter.shape}, expected (1,)")
        entries, queue = parts
        if len(queue[0]) and len(entries[0]) < self.capacity:
            raise DataError(f"{prefix}/queue holds records while main slots are free")
        self._n_main, self._n_queue = len(entries[0]), len(queue[0])
        self._put(0, entries, 0, self._n_main)
        self._put(self._n_main, queue, 0, self._n_queue)
        self._birth = int(counter[0])


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
