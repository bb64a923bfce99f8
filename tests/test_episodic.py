import dataclasses
import math

import numpy as np
import pytest
from episodic_reference import ReferenceEpisodicStore

from memdiff import EpisodicStore, select_special
from memdiff.attention import WEIGHT_EPS
from memdiff.errors import DataError, InvariantError, NumericError


def unit(angle_deg: float) -> np.ndarray:
    a = math.radians(angle_deg)
    return np.array([math.cos(a), math.sin(a)])


class TestRecall:
    def test_empty_store_zero_vector(self):
        store = EpisodicStore(dim=3, capacity=4, queue_capacity=2)
        out, trace = store.recall(np.ones((2, 3)))
        np.testing.assert_array_equal(out, np.zeros((2, 3)))
        assert trace is None

    def test_single_entry_returned_and_counted(self):
        store = EpisodicStore(dim=2, capacity=4, queue_capacity=2)
        store.update(unit(30)[None, :])
        out, trace = store.recall(np.array([[1.0, 0.0]]))
        store.count(trace)
        np.testing.assert_allclose(out[0], unit(30), atol=1e-12)
        assert store.entries[0].freq == 1

    def test_top2_hand_weights(self):
        # scores against [1, 0] are the cosines themselves: 0.9, 0.5, 0.1
        store = EpisodicStore(dim=2, capacity=4, queue_capacity=2, recall_top_k=2)
        pats = [np.array([s, math.sqrt(1 - s * s)]) for s in (0.9, 0.5, 0.1)]
        store.update(np.stack(pats[:2]))
        store.update(pats[2][None, :])
        out, trace = store.recall(np.array([[1.0, 0.0]]))
        store.count(trace)
        np.testing.assert_allclose(trace.scores[0, 0], [0.9, 0.5], atol=1e-12)
        w = np.array([0.9 + WEIGHT_EPS, 0.5 + WEIGHT_EPS]) / (1.4 + 2 * WEIGHT_EPS)
        np.testing.assert_allclose(trace.weights[0, 0], w, rtol=1e-12)
        np.testing.assert_allclose(out[0], w[0] * pats[0] + w[1] * pats[1], rtol=1e-10)
        assert [r.freq for r in store.entries] == [1, 1, 0]

    def test_top_k_capped_at_record_count(self):
        store = EpisodicStore(dim=2, capacity=8, queue_capacity=4, recall_top_k=5)
        store.update(np.stack([unit(10), unit(40)]))
        _, trace = store.recall(np.array([[1.0, 0.0]]))
        assert trace.idx.shape == (1, 1, 2)

    def test_recall_determinism(self):
        store = EpisodicStore(dim=2, capacity=4, queue_capacity=2, recall_top_k=2)
        store.update(np.stack([unit(15), unit(75)]))
        q = np.array([[0.8, 0.6]])
        a, _ = store.recall(q)
        b, _ = store.recall(q)
        np.testing.assert_array_equal(a, b)
        assert all(r.freq == 0 for r in store.entries)

    def test_gradient_matches_finite_differences(self):
        for groups in (1, 3):
            store = EpisodicStore(dim=3, capacity=8, queue_capacity=4, recall_top_k=2,
                                  groups=groups)
            rng = np.random.default_rng(0)
            for _ in range(3):
                store.update(rng.standard_normal((2 * groups, 3)))
            q = rng.standard_normal((4 * groups, 3))
            g = rng.standard_normal((4 * groups, 3))
            _, trace = store.recall(q)
            dq = store.recall_backward(trace, g)
            h = 1e-6
            for r in range(4 * groups):
                for i in range(3):
                    qp, qm = q.copy(), q.copy()
                    qp[r, i] += h
                    qm[r, i] -= h
                    fd = (np.sum(store.recall(qp)[0] * g)
                          - np.sum(store.recall(qm)[0] * g)) / (2 * h)
                    np.testing.assert_allclose(dq[r, i], fd, rtol=1e-5, atol=1e-9,
                                               err_msg=f"groups={groups}")

    @pytest.mark.parametrize("groups", [1, 3])
    def test_recall_leaves_state_unchanged(self, groups):
        store = EpisodicStore(dim=3, capacity=4, queue_capacity=2, recall_top_k=2, groups=groups)
        rng = np.random.default_rng(2)
        for _ in range(4):
            store.update(rng.standard_normal((2 * groups, 3)))
            store.count(store.recall(rng.standard_normal((3 * groups, 3)))[1])
        before = store.state_arrays()
        assert before["episodic/freqs"].any()
        q = rng.standard_normal((2 * groups, 3))
        q[0] = np.nan
        store.recall(q)
        after = store.state_arrays()
        assert before.keys() == after.keys()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key], err_msg=key)

    def test_patterns_are_frozen(self):
        store = EpisodicStore(dim=2, capacity=2, queue_capacity=1)
        store.update(unit(20)[None, :])
        with pytest.raises(ValueError):
            store.entries[0].pattern[0] = 5.0


class TestScriptedUpdateScenario:
    """Hand-simulated oracle for the queue/frequency update strategy.

    N2=4, N3=2, k=2, top-1 recalls steered by exact-direction queries.
    """

    def test_three_step_hand_simulation(self):
        p = {i: unit(20.0 * (i - 1)) for i in range(1, 9)}
        store = EpisodicStore(dim=2, capacity=4, queue_capacity=2, recall_top_k=1)

        def entries_are(*ids):
            assert len(store.entries) == len(ids)
            for rec, i in zip(store.entries, ids):
                np.testing.assert_array_equal(rec.pattern, p[i])

        def queue_is(*ids):
            assert len(store.queue) == len(ids)
            for rec, i in zip(store.queue, ids):
                np.testing.assert_array_equal(rec.pattern, p[i])

        # filling phase
        store.update(np.stack([p[1], p[2]]))
        entries_are(1, 2)
        queue_is()
        store.update(np.stack([p[3], p[4]]))
        entries_are(1, 2, 3, 4)
        queue_is()

        # first steady-state update: nothing to pop, new patterns queue up
        store.update(np.stack([p[5], p[6]]))
        entries_are(1, 2, 3, 4)
        queue_is(5, 6)
        assert all(r.freq == 0 for r in store.entries)

        # forced recalls: p2 twice, p3 once, queued p5 once
        for target, times in ((2, 2), (3, 1), (5, 1)):
            for _ in range(times):
                store.count(store.recall(p[target][None, :])[1])
        assert [r.freq for r in store.entries] == [0, 2, 1, 0]
        assert [r.freq for r in store.queue] == [1, 0]

        # eviction: pool = entries + popped tail [p6, p5];
        # rank by (freq desc, older first): p2(2), p3(1), p5(1), p1(0), p4(0), p6(0)
        store.update(np.stack([p[7], p[8]]))
        entries_are(2, 3, 5, 1)
        queue_is(7, 8)
        assert all(r.freq == 0 for r in store.entries)

    def test_zero_freq_pops_never_displace_recalled_entries(self):
        store = EpisodicStore(dim=2, capacity=2, queue_capacity=2, recall_top_k=1)
        a, b = unit(0), unit(40)
        store.update(np.stack([a, b]))          # fill
        store.update(np.stack([unit(80), unit(120)]))   # queue them
        for q in (a, b):
            store.count(store.recall(q[None, :])[1])   # entries get freq 1
        store.update(np.stack([unit(160), unit(200)]))  # popped queue recs have freq 0
        np.testing.assert_array_equal(store.entries[0].pattern, a)
        np.testing.assert_array_equal(store.entries[1].pattern, b)


class TestUpdateEdges:
    def test_too_many_patterns_rejected(self):
        store = EpisodicStore(dim=2, capacity=4, queue_capacity=2)
        with pytest.raises(InvariantError):
            store.update(np.ones((3, 2)))

    def test_queue_longer_than_capacity_rejected(self):
        with pytest.raises(InvariantError):
            EpisodicStore(dim=2, capacity=2, queue_capacity=4)

    def test_partial_fill_overflow_to_queue(self):
        store = EpisodicStore(dim=2, capacity=3, queue_capacity=2)
        store.update(np.stack([unit(0), unit(30)]))
        store.update(np.stack([unit(60), unit(90)]))   # 1 fills, 1 queues
        assert len(store.entries) == 3
        assert len(store.queue) == 1

    def test_state_roundtrip(self):
        store = EpisodicStore(dim=2, capacity=4, queue_capacity=2, recall_top_k=2)
        rng = np.random.default_rng(1)
        for _ in range(4):
            store.update(rng.standard_normal((2, 2)))
            store.count(store.recall(rng.standard_normal((3, 2)))[1])
        arrays = store.state_arrays()
        clone = EpisodicStore(dim=2, capacity=4, queue_capacity=2, recall_top_k=2)
        clone.reader(arrays)()
        for a, b in zip(store.entries, clone.entries):
            np.testing.assert_array_equal(a.pattern, b.pattern)
            assert (a.freq, a.birth) == (b.freq, b.birth)
        for a, b in zip(store.queue, clone.queue):
            np.testing.assert_array_equal(a.pattern, b.pattern)
            assert (a.freq, a.birth) == (b.freq, b.birth)

    def test_recall_sees_every_update_and_load(self):
        store = EpisodicStore(dim=2, capacity=2, queue_capacity=1, recall_top_k=1)
        store.update(unit(0)[None])
        out, _ = store.recall(unit(90)[None])
        np.testing.assert_allclose(out[0], unit(0))
        store.update(unit(90)[None])
        out, _ = store.recall(unit(90)[None])
        np.testing.assert_allclose(out[0], unit(90))
        assert store.scores(unit(90)[None]).shape == (1, 2)
        other = EpisodicStore(dim=2, capacity=2, queue_capacity=1, recall_top_k=1)
        other.update(unit(180)[None])
        store.reader(other.state_arrays())()
        out, _ = store.recall(unit(90)[None])
        np.testing.assert_allclose(out[0], unit(180))

    def test_recall_counts_repeated_picks(self):
        store = EpisodicStore(dim=2, capacity=3, queue_capacity=3, recall_top_k=2)
        store.update(np.stack([unit(0), unit(45), unit(180)]))
        store.count(store.recall(np.stack([unit(10), unit(20), unit(170)]))[1])
        assert [r.freq for r in store.entries] == [2, 3, 1]


class TestArrayStoreParity:
    """The array-backed store against the record-list reference, array for array."""

    @staticmethod
    def same_records(store, ref):
        for got, want in ((store.entries, ref.entries), (store.queue, list(ref.queue))):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g.pattern, w.pattern)
                assert (g.freq, g.birth) == (w.freq, w.birth)

    @staticmethod
    def same_state(a, b):
        assert a.keys() == b.keys()
        for key in a:
            assert a[key].dtype == b[key].dtype, key
            np.testing.assert_array_equal(a[key], b[key], err_msg=key)

    @pytest.mark.parametrize("dim,n2,n3,top_k,seed", [
        (3, 4, 2, 2, 0), (4, 6, 4, 5, 1), (2, 8, 4, 3, 2), (3, 5, 5, 9, 3), (5, 3, 1, 1, 4)])
    def test_random_operation_sequence(self, dim, n2, n3, top_k, seed):
        rng = np.random.default_rng(seed)
        store = EpisodicStore(dim, n2, n3, top_k)
        ref = ReferenceEpisodicStore(dim, n2, n3, top_k)
        # drawing patterns and queries from a small pool stores duplicates,
        # which score exact ties
        pool = rng.standard_normal((5, dim))

        def rows(n):
            out = rng.standard_normal((n, dim))
            dup = rng.random(n) < 0.6
            out[dup] = pool[rng.integers(0, len(pool), int(dup.sum()))]
            return out

        for _ in range(300):
            op = rng.random()
            if op < 0.45:
                q = rows(int(rng.integers(1, 7)))
                if rng.random() < 0.1:
                    q[0] = np.nan
                count = bool(rng.random() < 0.8)
                out, trace = store.recall(q)
                if count:
                    store.count(trace)
                want, want_trace = ref.recall(q, update_freq=count)
                np.testing.assert_array_equal(out, want)
                assert (trace is None) == (want_trace is None)
                if trace is not None:
                    for f in dataclasses.fields(trace):
                        np.testing.assert_array_equal(getattr(trace, f.name),
                                                      getattr(want_trace, f.name), err_msg=f.name)
                np.testing.assert_array_equal(store.scores(q), ref.scores(q))
            elif op < 0.9:
                new = rows(int(rng.integers(1, n3 + 1)))
                store.update(new)
                ref.update(new)
            else:
                arrays = store.state_arrays()
                self.same_state(arrays, ref.state_arrays())
                store = EpisodicStore(dim, n2, n3, top_k)
                store.reader(arrays)()
                ref = ReferenceEpisodicStore(dim, n2, n3, top_k)
                ref.restore(arrays)
            self.same_records(store, ref)
            assert len(store.records) == len(ref.records)

    def test_snapshots_do_not_follow_later_updates(self):
        store = EpisodicStore(dim=2, capacity=1, queue_capacity=1, recall_top_k=1)
        store.update(unit(0)[None])
        first = store.entries[0]
        store.update(unit(90)[None])
        store.update(unit(180)[None])
        np.testing.assert_array_equal(first.pattern, unit(0))
        assert not first.pattern.flags.writeable


class TestZeroNormAndLoadChecks:
    def test_zero_norm_pattern_raises_at_recall_not_update(self):
        store = EpisodicStore(dim=2, capacity=2, queue_capacity=1)
        store.update(np.zeros((1, 2)))
        with pytest.raises(NumericError, match="zero-norm block"):
            store.recall(unit(0)[None])

    @staticmethod
    def refused(arrays, message, groups=1):
        """Load arrays into a fresh (2, 1)-capacity store: DataError, nothing written."""
        target = EpisodicStore(dim=2, capacity=2, queue_capacity=1, groups=groups)
        with pytest.raises(DataError, match=message):
            target.reader(arrays)
        assert target.is_empty

    @staticmethod
    def saved(groups=1):
        """State of a (2, 1)-capacity store holding two main records per group."""
        src = EpisodicStore(dim=2, capacity=2, queue_capacity=1, groups=groups)
        for angle in (0, 20):
            src.update(np.stack([unit(angle + 90 * g) for g in range(groups)]))
        return src.state_arrays()

    def test_missing_array_is_data_error_naming_it(self):
        arrays = self.saved()
        del arrays["episodic/births"]
        self.refused(arrays, "episodic/births")

    def test_foreign_episodic_array_is_data_error(self):
        # the store refuses its own foreign arrays, before any missing one
        arrays = self.saved()
        del arrays["episodic/births"]
        arrays["episodic/x"] = np.zeros(1)
        self.refused(arrays, "does not: 'episodic/x'")

    def test_pattern_width_mismatch_is_data_error(self):
        src = EpisodicStore(dim=3, capacity=2, queue_capacity=1)
        src.update(np.ones((1, 3)))
        self.refused(src.state_arrays(), r"episodic/patterns is shaped \(1, 1, 3\)")

    @pytest.mark.parametrize("name,shape,message", [
        ("patterns", (4, 2), r"episodic/patterns is shaped \(4, 2\), expected \(1, records, 2\)"),
        ("patterns", (2, 2, 2), r"shaped \(2, 2, 2\), expected \(1, records, 2\)"),
        ("freqs", (2,), r"episodic/freqs \(2,\) and episodic/births \(1, 2\)"),
        ("births", (1, 3), r"episodic/births \(1, 3\) do not match"),
    ])
    def test_misshapen_columns_are_data_error(self, name, shape, message):
        arrays = self.saved()
        arrays[f"episodic/{name}"] = np.zeros(shape, dtype=arrays[f"episodic/{name}"].dtype)
        self.refused(arrays, message)

    def test_group_count_mismatch_is_data_error(self):
        self.refused(self.saved(groups=2), r"shaped \(2, 2, 2\), expected \(3, records, 2\)",
                     groups=3)

    @pytest.mark.parametrize("capacity,queue_capacity", [(2, 2), (4, 1)])
    def test_records_past_capacity_are_data_error(self, capacity, queue_capacity):
        src = EpisodicStore(dim=2, capacity=4, queue_capacity=2)
        for _ in range(4):
            src.update(np.ones((2, 2)))
        target = EpisodicStore(dim=2, capacity=capacity, queue_capacity=queue_capacity)
        with pytest.raises(DataError, match="capacity"):
            target.reader(src.state_arrays())
        assert target.is_empty

    def test_queue_beside_free_main_slots_is_data_error(self):
        # the store only queues once its main slots are full
        arrays = self.saved()
        arrays["episodic/main"] = np.array([1], dtype=np.int64)
        self.refused(arrays, "main slots are free")

    @pytest.mark.parametrize("name,value,message", [
        ("main", np.array([3]), "episodic/main is 3, but only 2 records are stored"),
        ("main", np.array([-1]), "'episodic/main'.*not one nonnegative integer"),
        ("main", np.array([1, 1]), "'episodic/main'.*not one nonnegative integer"),
        ("birth_counter", np.array([2.0]), "'episodic/birth_counter'.*not one nonnegative"),
        ("birth_counter", np.zeros(0, dtype=np.int64), "'episodic/birth_counter'"),
    ])
    def test_bad_counter_is_data_error(self, name, value, message):
        arrays = self.saved()
        arrays[f"episodic/{name}"] = value
        self.refused(arrays, message)


class TestSelectSpecial:
    def test_batch_of_one(self):
        queries = np.arange(6.0).reshape(1, 2, 3)
        out = select_special(np.array([0.4]), queries)
        np.testing.assert_array_equal(out, queries[0])

    def test_argmax(self):
        queries = np.stack([np.full((2, 2), i) for i in range(3)])
        out = select_special(np.array([0.1, 0.9, 0.3]), queries)
        np.testing.assert_array_equal(out, queries[1])

    def test_tie_takes_lowest_index(self):
        queries = np.stack([np.zeros((2, 2)), np.ones((2, 2))])
        out = select_special(np.array([0.5, 0.5]), queries)
        np.testing.assert_array_equal(out, queries[0])

    def test_nonfinite_excluded(self):
        queries = np.stack([np.full((1, 2), i) for i in range(3)])
        out = select_special(np.array([np.nan, 0.2, np.inf]), queries)
        np.testing.assert_array_equal(out, queries[1])

    def test_all_nonfinite_returns_none(self):
        assert select_special(np.array([np.nan, np.inf]), np.zeros((2, 1, 2))) is None


class TestFuzzInvariants:
    @pytest.mark.slow
    @pytest.mark.parametrize("n2,n3,k", [(4, 2, 2), (6, 4, 2), (8, 4, 4)])
    def test_randomized_operations(self, n2, n3, k):
        rng = np.random.default_rng(n2 * 100 + n3 * 10 + k)
        store = EpisodicStore(dim=3, capacity=n2, queue_capacity=n3, recall_top_k=2)
        protect = math.ceil(n3 / k)
        queued_at: "dict[bytes, int]" = {}
        updates = 0
        for _ in range(10_000):
            if rng.random() < 0.5:
                store.count(store.recall(rng.standard_normal((2, 3)))[1])
            else:
                pats = rng.standard_normal((k, 3))
                store.update(pats)
                updates += 1
                in_queue = {rec.pattern.tobytes() for rec in store.queue}
                for pat in pats:
                    if pat.tobytes() in in_queue:
                        queued_at[pat.tobytes()] = updates
                live = in_queue | {rec.pattern.tobytes() for rec in store.entries}
                for key, born in list(queued_at.items()):
                    if updates - born < protect:
                        assert key in live, "fresh pattern evicted early"
                    else:
                        del queued_at[key]
                assert all(rec.freq == 0 for rec in store.entries)
            assert len(store.entries) <= n2
            assert len(store.queue) <= n3


class TestGroupParity:
    """n groups in one store against n single-group stores, array for array."""

    @staticmethod
    def group(arrays, j):
        """Group j of a grouped store's state, as a one-group store saves it: the
        main count and birth counter are the same in every group."""
        return {key: value if key in ("episodic/main", "episodic/birth_counter")
                else value[j:j + 1] for key, value in arrays.items()}

    @staticmethod
    def same_records(got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.pattern, w.pattern)
            assert (g.freq, g.birth) == (w.freq, w.birth)

    @pytest.mark.parametrize("n,dim,n2,n3,top_k,seed", [
        (3, 3, 4, 2, 2, 0), (2, 2, 3, 3, 9, 1), (4, 4, 5, 1, 3, 2), (2, 3, 6, 4, 1, 3)])
    def test_random_operation_sequence(self, n, dim, n2, n3, top_k, seed):
        rng = np.random.default_rng(seed)
        grouped = EpisodicStore(dim, n2, n3, top_k, groups=n)
        singles = [EpisodicStore(dim, n2, n3, top_k) for _ in range(n)]
        # drawing patterns and queries from a small pool stores duplicates,
        # which score exact ties
        pool = rng.standard_normal((4, dim))

        def rows(count):
            out = rng.standard_normal((count, dim))
            dup = rng.random(count) < 0.6
            out[dup] = pool[rng.integers(0, len(pool), int(dup.sum()))]
            return out

        for _ in range(200):
            op = rng.random()
            if op < 0.45:
                q = rows(n * int(rng.integers(1, 4)))
                if rng.random() < 0.1:
                    q[0] = np.nan
                up = rng.standard_normal(q.shape)
                count = bool(rng.random() < 0.8)
                out, trace = grouped.recall(q)
                if count:
                    grouped.count(trace)
                dq = grouped.recall_backward(trace, up)
                scores = grouped.scores(q)
                for j, single in enumerate(singles):
                    sub = slice(j, None, n)
                    s_out, s_trace = single.recall(q[sub])
                    if count:
                        single.count(s_trace)
                    np.testing.assert_array_equal(out[sub], s_out)
                    np.testing.assert_array_equal(dq[sub], single.recall_backward(s_trace, up[sub]))
                    np.testing.assert_array_equal(scores[sub], single.scores(q[sub]))
                    assert (trace is None) == (s_trace is None)
                    if trace is not None:   # group j of every field is the single's one group
                        for f in dataclasses.fields(trace):
                            np.testing.assert_array_equal(getattr(trace, f.name)[j],
                                                          getattr(s_trace, f.name)[0],
                                                          err_msg=f.name)
            elif op < 0.9:
                new = rows(n * int(rng.integers(1, n3 + 1)))
                grouped.update(new)
                for j, single in enumerate(singles):
                    single.update(new[j::n])
            else:
                arrays = grouped.state_arrays()
                for j, single in enumerate(singles):
                    mine = self.group(arrays, j)
                    for key, value in single.state_arrays().items():
                        assert mine[key].dtype == value.dtype, key
                        np.testing.assert_array_equal(mine[key], value, err_msg=key)
                grouped = EpisodicStore(dim, n2, n3, top_k, groups=n)
                grouped.reader(arrays)()
                singles = [EpisodicStore(dim, n2, n3, top_k) for _ in range(n)]
                for j, single in enumerate(singles):
                    single.reader(self.group(arrays, j))()
            # snapshots list the records group by group
            for part in ("entries", "queue", "records"):
                self.same_records(getattr(grouped, part),
                                  [rec for single in singles for rec in getattr(single, part)])
