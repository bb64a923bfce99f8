"""Episodic memory: a non-parametric store of special patterns, channel-shared
or per channel.

Patterns are frozen snapshots of per-channel query vectors taken from the
hardest sample of a batch. Recall is read-only top-k cosine attention over
every live record (main slots and the candidate queue); ``count`` adds a
recall's picks to the recall frequencies. Updates follow a frequency-based
eviction scheme with a circular candidate queue: new patterns enter at the
queue head and only face eviction after transiting to the tail, which
protects fresh patterns from the low-frequency churn that would otherwise
replace them at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import attention
from .checkpoint import counter, refuse_extra, require
from .errors import DataError, InvariantError


@dataclass
class EpisodicRecord:
    """Read-only snapshot of one live record (see EpisodicStore.records)."""

    pattern: np.ndarray    # frozen (d,) snapshot, never touched by gradients
    freq: int
    birth: int             # global insertion counter, breaks ranking ties


class EpisodicStore:
    """Capacity-limited pattern store with recall counting and queue-guarded eviction.

    G groups of preallocated arrays, capacity + queue_capacity rows each,
    hold the records: pattern, pattern norm (taken once, at insertion),
    recall frequency and birth. Query and pattern rows are channel rows,
    grouped by attention.group_rows: one group shares the store across
    channels, n_channels groups give each channel its own.
    Every group receives the same number of patterns per update, so all
    groups hold the same number of main and queued records. A group's
    live rows are the main slots first, then the queue from head to tail;
    a record's index in recall is its row. Recall reads the live rows in
    place; ``entries``, ``queue`` and ``records`` build read-only
    EpisodicRecord snapshots of them, group by group.
    """

    # the checkpoint arrays state_arrays writes and reader restores
    STATE = ("episodic/patterns", "episodic/freqs", "episodic/births", "episodic/main",
             "episodic/birth_counter")

    def __init__(self, dim: int, capacity: int, queue_capacity: int, recall_top_k: int = 5,
                 groups: int = 1):
        if queue_capacity > capacity:
            raise InvariantError(f"queue capacity {queue_capacity} exceeds store capacity {capacity}")
        if capacity < 1 or queue_capacity < 1 or recall_top_k < 1 or groups < 1:
            raise InvariantError("capacities, recall_top_k and groups must be positive")
        self.dim = dim
        self.capacity = capacity
        self.queue_capacity = queue_capacity
        self.recall_top_k = recall_top_k
        self.groups = groups
        rows = capacity + queue_capacity
        self._patterns = np.zeros((groups, rows, dim))
        self._norms = np.zeros((groups, rows))
        self._freqs = np.zeros((groups, rows), dtype=np.int64)
        self._births = np.zeros((groups, rows), dtype=np.int64)
        self._columns = (self._patterns, self._norms, self._freqs, self._births)
        # the same columns with groups and rows merged: group g's row i is
        # flat row g * rows + i
        self._flat = tuple(col.reshape(-1, *col.shape[2:]) for col in self._columns)
        self._rows = np.arange(rows)
        self._n_main = 0    # rows [0, _n_main) of every group are its main slots
        self._n_queue = 0   # the next _n_queue rows the queue, head first
        self._birth = 0

    @property
    def is_empty(self) -> bool:
        return self._n_main + self._n_queue == 0

    def _snapshot(self, lo: int, hi: int) -> "list[EpisodicRecord]":
        patterns = self._patterns[:, lo:hi].reshape(-1, self.dim).copy()
        patterns.setflags(write=False)
        return [EpisodicRecord(p, f, b) for p, f, b in zip(
            patterns, self._freqs[:, lo:hi].ravel().tolist(),
            self._births[:, lo:hi].ravel().tolist())]

    @property
    def entries(self) -> "list[EpisodicRecord]":
        return self._snapshot(0, self._n_main)

    @property
    def queue(self) -> "list[EpisodicRecord]":
        """Queued records, head (newest) first."""
        return self._snapshot(self._n_main, self._n_main + self._n_queue)

    @property
    def records(self) -> "list[EpisodicRecord]":
        """Every live record of each group in recall-index order: entries, then the queue."""
        return self._snapshot(0, self._n_main + self._n_queue)

    def _put(self, dst: int, fresh: tuple, lo: int, hi: int):
        """Write rows [lo, hi) of the fresh (G or 1, rows, ...) columns at row dst onwards."""
        for col, new in zip(self._columns, fresh):
            col[:, dst:dst + hi - lo] = new[:, lo:hi]

    # -- recall ---------------------------------------------------------

    def scores(self, queries: np.ndarray) -> np.ndarray:
        """(R, n_records) cosine score matrix; empty store gives zero columns."""
        queries = attention.as_rows(queries)
        if self.is_empty:
            return np.zeros((queries.shape[0], 0))
        n = self._n_main + self._n_queue
        scores = attention.cosine(queries, self._patterns[:, :n], self._norms[:, :n])[1]
        return attention.ungroup_rows(scores)

    def recall(self, queries: np.ndarray) -> "tuple[np.ndarray, attention.ReadTrace | None]":
        """Weighted sum of the top-k most similar records of each query row's group.

        Ties between equal scores go to the lower record index. An empty
        store recalls the zero vector (and no trace). Recall reads the
        store only; ``count`` commits its picks to the frequencies.
        """
        queries = attention.as_rows(queries)
        if self.is_empty:
            return np.zeros((queries.shape[0], self.dim)), None
        n = self._n_main + self._n_queue
        return attention.read(queries, self._patterns[:, :n], self._norms[:, :n],
                              min(self.recall_top_k, n))

    def count(self, trace: "attention.ReadTrace | None"):
        """Increment each record's freq once per query row of trace that picked it."""
        if trace is not None:
            freqs, starts = self._flat[2], attention.group_starts(self.groups, len(self._rows))
            freqs += np.bincount((trace.idx + starts).ravel(), minlength=freqs.size)

    def recall_backward(self, trace: "attention.ReadTrace | None",
                        upstream: np.ndarray) -> np.ndarray:
        """Gradient w.r.t. the queries. Stored patterns are constants."""
        if trace is None:
            return np.zeros_like(upstream)
        return attention.read_backward(trace, upstream)

    # -- update ---------------------------------------------------------

    def update(self, new_patterns: np.ndarray):
        """Insert one batch of special patterns, new_patterns.shape[0] / G per group.

        Filling phase: straight into the main slots. Steady state: pop as
        many tail records as needed to make room in the queue (the last k
        once the queue runs full), rank them together with the main slots
        by recall frequency (ties keep the older record), keep the top N2,
        and push the new patterns at the queue head. Popping only what
        overflows guarantees every record transits the whole queue before
        facing eviction. Main-slot frequency counters reset to zero after
        every update. A zero-norm pattern is stored; recall rejects it.
        """
        new_patterns = attention.group_rows(attention.as_rows(new_patterns), self.groups)
        k = new_patterns.shape[1]
        if k == 0:
            return
        if k > self.queue_capacity:
            raise InvariantError(
                f"{k} patterns per group and update exceeds queue capacity {self.queue_capacity}"
            )
        # freq and birth are the same in every group: (1, k) rows broadcast
        fresh = (new_patterns, attention.l2_norms(new_patterns), np.zeros((1, k), dtype=np.int64),
                 self._birth + np.arange(k, dtype=np.int64)[None])
        self._birth += k

        # the queue stays empty until the main slots are full
        n_fill = min(k, self.capacity - self._n_main)
        if n_fill:
            self._put(self._n_main, fresh, 0, n_fill)
            self._n_main += n_fill
        if n_fill < k:
            cap, n_new = self.capacity, k - n_fill
            n_pop = max(0, self._n_queue + n_new - self.queue_capacity)
            tail = cap + self._n_queue - 1
            # pool: the main slots, then the popped records tail first
            pool = np.concatenate((self._rows[:cap], self._rows[tail:tail - n_pop:-1]))
            rank = np.lexsort((self._births[:, pool], -self._freqs[:, pool]), axis=-1)
            starts = attention.group_starts(self.groups, len(self._rows))[:, 0]
            keep = pool[rank[:, :cap]] + starts               # flat rows, (G, cap)
            self._n_queue -= n_pop
            for col, flat in zip(self._columns, self._flat):
                col[:, :cap] = flat.take(keep, axis=0)
                # the surviving queue moves back to make room at the head
                col[:, cap + n_new:cap + n_new + self._n_queue] = col[:, cap:cap + self._n_queue]
            self._put(cap, fresh, n_fill, k)
            self._n_queue += n_new
        self._freqs[:, :self._n_main] = 0

    # -- persistence ----------------------------------------------------

    def state_arrays(self) -> "dict[str, np.ndarray]":
        """The live rows of each saved column as one (G, records, ...) array, the number of
        main-slot records (the rest are queued) and the birth counter."""
        n = self._n_main + self._n_queue
        return dict(zip(self.STATE, (
            self._patterns[:, :n].copy(), self._freqs[:, :n].copy(), self._births[:, :n].copy(),
            np.array([self._n_main], dtype=np.int64), np.array([self._birth], dtype=np.int64))))

    def reader(self, arrays: "dict[str, np.ndarray]"):
        """Check a state_arrays dict (DataError for a missing, misshapen or foreign array,
        or records the store cannot hold); return write(), which restores it."""
        refuse_extra(arrays, "episodic/", self.STATE)
        pats, freqs, births = (require(arrays, name) for name in self.STATE[:3])
        pats = np.asarray(pats, dtype=np.float64)
        if pats.ndim != 3 or pats.shape[0] != self.groups or pats.shape[2] != self.dim:
            raise DataError(f"episodic/patterns is shaped {pats.shape}, "
                            f"expected ({self.groups}, records, {self.dim})")
        n = pats.shape[1]
        if freqs.shape != (self.groups, n) or births.shape != (self.groups, n):
            raise DataError(f"episodic/freqs {freqs.shape} and episodic/births {births.shape} "
                            f"do not match patterns shaped {pats.shape}")
        n_main, birth = (counter(arrays, name) for name in self.STATE[3:])
        n_queue = n - n_main
        if n_queue < 0:
            raise DataError(f"episodic/main is {n_main}, but only {n} records are stored")
        if n_main > self.capacity or n_queue > self.queue_capacity:
            raise DataError(f"episodic state holds {n_main} main and {n_queue} queued records, "
                            f"capacity {self.capacity} and queue capacity {self.queue_capacity}")
        if n_queue and n_main < self.capacity:
            raise DataError("episodic state queues records while main slots are free")

        def write():
            self._n_main, self._n_queue, self._birth = n_main, n_queue, birth
            for col, stored in zip(self._columns, (pats, attention.l2_norms(pats), freqs, births)):
                col[:, :n] = stored
        return write


def select_special(batch_losses: np.ndarray, batch_queries: np.ndarray) -> "np.ndarray | None":
    """Channel query vectors of the hardest (highest-loss) batch sample.

    Samples with non-finite loss are excluded; returns None when none
    remain so the caller can skip the episodic update. Ties resolve to the
    lowest batch index.
    """
    losses = np.asarray(batch_losses, dtype=np.float64)
    if losses.size == 0:
        raise InvariantError("select_special on an empty batch")
    masked = np.where(np.isfinite(losses), losses, -np.inf)
    pick = int(masked.argmax())
    if masked[pick] == -np.inf:   # no finite loss
        return None
    return np.array(batch_queries[pick], dtype=np.float64)
