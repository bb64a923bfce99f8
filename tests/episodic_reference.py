"""Record-list EpisodicStore: the reference the array-backed store must match.

This is the store as it was before its state moved into preallocated
arrays: a list of main-slot records, a deque queue (index 0 = head), a
full stable argsort for top-k selection and a fresh pattern stack on every
recall. Parity tests drive it and memdiff.EpisodicStore with the same
operations and require equal arrays.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from memdiff import attention
from memdiff.attention import ReadTrace
from memdiff.episodic import EpisodicRecord
from memdiff.errors import InvariantError


class ReferenceEpisodicStore:
    def __init__(self, dim: int, capacity: int, queue_capacity: int, recall_top_k: int = 5):
        self.dim = dim
        self.capacity = capacity
        self.queue_capacity = queue_capacity
        self.recall_top_k = recall_top_k
        self.entries: "list[EpisodicRecord]" = []
        self.queue: "deque[EpisodicRecord]" = deque()
        self._birth = 0

    @property
    def is_empty(self) -> bool:
        return not self.entries and not self.queue

    @property
    def records(self) -> "list[EpisodicRecord]":
        return self.entries + list(self.queue)

    def _score_records(self, queries):
        recs = self.records
        pats = np.stack([r.pattern for r in recs])
        npat = attention.row_norms(pats, "block")
        nq = attention.row_norms(queries, "query")
        return recs, pats, npat, (queries @ pats.T) / (nq[:, None] * npat[None, :]), nq

    def scores(self, queries):
        queries = np.atleast_2d(queries)
        if self.is_empty:
            return np.zeros((queries.shape[0], 0))
        return self._score_records(queries)[3]

    def recall(self, queries, update_freq: bool = True):
        queries = np.atleast_2d(queries)
        if self.is_empty:
            return np.zeros((queries.shape[0], self.dim)), None
        recs, pats, npat, scores, nq = self._score_records(queries)
        k = min(self.recall_top_k, len(recs))
        idx = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        sel_scores = np.take_along_axis(scores, idx, axis=1)
        weights, z = attention.clamp_normalize(sel_scores)
        gathered = pats[idx]
        out = np.einsum("rk,rkd->rd", weights, gathered)
        if update_freq:
            for i in idx.ravel():
                recs[i].freq += 1
        # the grouped layout of a one-group read: (1, R, ...)
        return out, ReadTrace(queries[None], idx[None], gathered[None], npat[idx][None],
                              sel_scores[None], weights[None], z[None], nq[None])

    def update(self, new_patterns):
        new_patterns = np.atleast_2d(np.asarray(new_patterns, dtype=np.float64))
        if new_patterns.shape[0] > self.queue_capacity:
            raise InvariantError("too many patterns per update")
        fresh = []
        for p in new_patterns:
            pat = np.array(p, dtype=np.float64, copy=True)
            pat.setflags(write=False)
            fresh.append(EpisodicRecord(pat, 0, self._birth))
            self._birth += 1
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

    def state_arrays(self):
        recs = self.records
        n = len(recs)
        return {
            "episodic/patterns": np.array([r.pattern for r in recs],
                                          dtype=np.float64).reshape(1, n, self.dim),
            "episodic/freqs": np.array([[r.freq for r in recs]], dtype=np.int64).reshape(1, n),
            "episodic/births": np.array([[r.birth for r in recs]], dtype=np.int64).reshape(1, n),
            "episodic/main": np.array([len(self.entries)], dtype=np.int64),
            "episodic/birth_counter": np.array([self._birth], dtype=np.int64),
        }

    def restore(self, arrays):
        recs = []
        for pat, freq, birth in zip(arrays["episodic/patterns"][0], arrays["episodic/freqs"][0],
                                    arrays["episodic/births"][0]):
            p = np.array(pat, dtype=np.float64)
            p.setflags(write=False)
            recs.append(EpisodicRecord(p, int(freq), int(birth)))
        n_main = int(arrays["episodic/main"][0])
        self.entries = recs[:n_main]
        self.queue = deque(recs[n_main:])
        self._birth = int(arrays["episodic/birth_counter"][0])
