import struct

import numpy as np
import pytest

from memdiff import Adam, ForecastModel, Mlp, ParamStore, finite_diff_check
from memdiff import checkpoint, nn
from memdiff.errors import DataError, InvariantError, NumericError
from conftest import tiny_config


def make_net(widths, activation="relu", seed=0):
    store = ParamStore()
    net = Mlp(store, "net", widths, activation, np.random.default_rng(seed))
    return store, net


class TestMlpForward:
    def test_zero_weights_zero_output(self):
        store, net = make_net([3, 4, 2])
        for p in store:
            p.values[...] = 0.0
        y, _ = net.forward(np.ones((5, 3)))
        np.testing.assert_array_equal(y, np.zeros((5, 2)))

    def test_identity_linear_layer(self):
        store, net = make_net([3, 3])
        store["net/W0"].values[...] = np.eye(3)
        store["net/b0"].values[...] = 0.0
        x = np.random.default_rng(1).standard_normal((4, 3))
        y, _ = net.forward(x)
        np.testing.assert_array_equal(y, x)

    def test_matches_straight_line_evaluation(self):
        store, net = make_net([4, 6, 3], seed=5)
        x = np.random.default_rng(2).standard_normal((7, 4))
        y, _ = net.forward(x)
        # independent duplicate evaluation
        w0, b0 = store["net/W0"].values, store["net/b0"].values
        w1, b1 = store["net/W1"].values, store["net/b1"].values
        hidden = np.maximum(x @ w0.T + b0, 0.0)
        np.testing.assert_allclose(y, hidden @ w1.T + b1, atol=1e-12)

    def test_width_mismatch(self):
        _, net = make_net([3, 2])
        with pytest.raises(DataError):
            net.forward(np.ones((1, 4)))


class TestMlpBackward:
    def test_linear_layer_grads(self):
        # loss = sum(y) through a single linear layer
        store, net = make_net([3, 2])
        x = np.array([[1.0, 2.0, 3.0]])
        _, trace = net.forward(x)
        net.backward(trace, np.ones((1, 2)))
        np.testing.assert_allclose(store["net/W0"].grad, np.outer(np.ones(2), x[0]))
        np.testing.assert_allclose(store["net/b0"].grad, np.ones(2))

    def test_zero_upstream_zero_grads(self):
        store, net = make_net([3, 5, 2], seed=3)
        _, trace = net.forward(np.ones((2, 3)))
        net.backward(trace, np.zeros((2, 2)))
        for p in store:
            np.testing.assert_array_equal(p.grad, 0.0)

    @pytest.mark.parametrize("activation", ["relu", "silu"])
    def test_finite_difference_agreement(self, activation):
        store, net = make_net([4, 8, 8, 3], activation, seed=11)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 4))
        target = rng.standard_normal((6, 3))

        def loss():
            y, _ = net.forward(x)
            return float(np.sum((y - target) ** 2))

        store.zero_grads()
        y, trace = net.forward(x)
        net.backward(trace, 2.0 * (y - target))
        report = finite_diff_check(loss, store, tolerance=1e-4)
        assert report.passed, (report.max_rel_error, report.worst_param)

    def test_silu_backward_matches_recomputed_derivative(self):
        # the derivative reuses the forward pass's sigmoid; recomputing it
        # from z, as the formula reads, must give the same bits
        store, net = make_net([5, 16, 16, 3], "silu", seed=2)
        rng = np.random.default_rng(6)
        x, g = rng.standard_normal((7, 5)), rng.standard_normal((7, 3))
        _, trace = net.forward(x)
        d_in = net.backward(trace, g)
        want = {}
        for i in range(len(net.weights) - 1, -1, -1):
            h_in, z, _ = trace[i]
            if i != len(net.weights) - 1:
                s = 1.0 / (1.0 + np.exp(-z))
                g = g * (s * (1.0 + z * (1.0 - s)))
            want[f"net/W{i}"], want[f"net/b{i}"] = g.T @ h_in, g.sum(axis=0)
            g = g @ net.weights[i].values
        np.testing.assert_array_equal(d_in, g)
        for pid, grad in want.items():
            np.testing.assert_array_equal(store[pid].grad, grad, err_msg=pid)

    @pytest.mark.parametrize("activation", ["relu", "silu"])
    def test_passes_write_into_no_input_or_parameter(self, activation):
        store, net = make_net([5, 16, 16, 3], activation, seed=3)
        rng = np.random.default_rng(9)
        x, g = rng.standard_normal((7, 5)), rng.standard_normal((7, 3))
        x_seen, g_seen, params = x.copy(), g.copy(), store.snapshot()
        _, trace = net.forward(x)
        for cols in (slice(None), slice(1, 3), None):
            net.backward(trace, g, cols)
        np.testing.assert_array_equal(x, x_seen)
        np.testing.assert_array_equal(g, g_seen)
        for pid, values in params.items():
            np.testing.assert_array_equal(store[pid].values, values, err_msg=pid)

    def test_input_cols_select_columns_of_the_input_gradient(self):
        store, net = make_net([6, 16, 3], "silu", seed=4)
        rng = np.random.default_rng(10)
        x, g = rng.standard_normal((9, 6)), rng.standard_normal((9, 3))
        _, trace = net.forward(x)
        _, z, s = trace[0]
        w0, w1 = net.weights[0].values, net.weights[1].values
        want = ((g @ w1) * (s * (1.0 + z * (1.0 - s)))) @ w0
        np.testing.assert_allclose(net.backward(trace, g), want, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(net.backward(trace, g, slice(2, 4)), want[:, 2:4],
                                   rtol=1e-12, atol=1e-14)
        store.zero_grads()
        net.backward(trace, g)
        grads = {p.id: p.grad.copy() for p in store}
        store.zero_grads()
        assert net.backward(trace, g, None) is None
        for p in store:   # the parameter gradients are those of a pass with an input gradient
            np.testing.assert_array_equal(p.grad, grads[p.id], err_msg=p.id)

    def test_input_gradient(self):
        store, net = make_net([3, 5, 2], "silu", seed=7)
        x = np.random.default_rng(8).standard_normal((1, 3))
        _, trace = net.forward(x)
        d_in = net.backward(trace, np.ones((1, 2)))
        h = 1e-6
        for i in range(3):
            xp, xm = x.copy(), x.copy()
            xp[0, i] += h
            xm[0, i] -= h
            fd = (net.forward(xp)[0].sum() - net.forward(xm)[0].sum()) / (2 * h)
            np.testing.assert_allclose(d_in[0, i], fd, rtol=1e-5)


class TestAdam:
    def test_zero_grad_no_motion(self):
        store, _ = make_net([3, 2])
        before = store.snapshot()
        opt = Adam(store, lr=0.1)
        store.zero_grads()
        opt.step()
        for pid, vals in before.items():
            np.testing.assert_array_equal(store[pid].values, vals)

    def test_constant_gradient_monotone(self):
        store = ParamStore()
        p = store.register("p", np.array([0.0]))
        opt = Adam(store, lr=0.01)
        prev = 0.0
        for _ in range(50):
            p.grad[...] = 1.0
            opt.step()
            assert p.values[0] < prev
            prev = p.values[0]

    def test_hand_computed_first_step(self):
        # p=0, g=1, lr=0.1: bias-corrected m_hat = v_hat = 1 -> p ~ -0.1
        store = ParamStore()
        p = store.register("p", np.array([0.0]))
        p.grad[...] = 1.0
        opt = Adam(store, lr=0.1, betas=(0.9, 0.999), eps=1e-8)
        opt.step()
        assert opt.t == 1
        np.testing.assert_allclose(p.values[0], -0.1, rtol=1e-7)

    def test_nonfinite_gradient_aborts_naming_param(self):
        store = ParamStore()
        a = store.register("good", np.zeros(2))
        b = store.register("bad/one", np.zeros(2))
        a.grad[...] = 1.0
        b.grad[...] = np.array([1.0, np.nan])
        opt = Adam(store)
        with pytest.raises(NumericError, match="bad/one"):
            opt.step()
        np.testing.assert_array_equal(a.values, 0.0)  # nothing applied

    def test_determinism_across_runs(self):
        results = []
        for _ in range(2):
            store, net = make_net([3, 4, 2], seed=9)
            opt = Adam(store, lr=1e-3)
            rng = np.random.default_rng(77)
            for _ in range(20):
                store.zero_grads()
                x = rng.standard_normal((4, 3))
                y, trace = net.forward(x)
                net.backward(trace, 2 * y)
                opt.step()
            results.append(store.snapshot())
        for pid in results[0]:
            np.testing.assert_array_equal(results[0][pid], results[1][pid])


def reference_adam(values, grad_steps, lr=1e-3, betas=(0.9, 0.999), eps=1e-8,
                   m=None, v=None, t=0):
    """Per-tensor Adam with moments keyed by id, one tensor at a time."""
    beta1, beta2 = betas
    values = {k: a.copy() for k, a in values.items()}
    m = {k: a.copy() for k, a in (m or {}).items()}
    v = {k: a.copy() for k, a in (v or {}).items()}
    for grads in grad_steps:
        t += 1
        b1t = 1.0 - beta1 ** t
        b2t = 1.0 - beta2 ** t
        for k, g in grads.items():
            mk = m.setdefault(k, np.zeros_like(values[k]))
            vk = v.setdefault(k, np.zeros_like(values[k]))
            mk *= beta1
            mk += (1.0 - beta1) * g
            vk *= beta2
            vk += (1.0 - beta2) * g * g
            values[k] -= lr * (mk / b1t) / (np.sqrt(vk / b2t) + eps)
    return values, m, v


def random_grads(store, rng, scale=1.0):
    return {p.id: scale * rng.standard_normal(p.shape) for p in store}


class TestParamArena:
    def test_tensors_view_one_arena(self):
        store, _ = make_net([3, 5, 2])
        values, grad = store.arena()
        for p in store:
            assert np.shares_memory(p.values, values)
            assert np.shares_memory(p.grad, grad)
        # writes through a tensor land in the arena
        store.zero_grads()
        store["net/W1"].grad[...] = 2.0
        assert grad.sum() == 2.0 * store["net/W1"].grad.size

    def test_arena_keeps_registered_values(self):
        store, _ = make_net([4, 6, 3], seed=2)
        before = store.snapshot()
        store.arena()
        for pid, vals in before.items():
            np.testing.assert_array_equal(store[pid].values, vals)

    def test_grads_before_the_arena(self):
        store = ParamStore()
        shapes = [(), (1,), (3, 5), (2, 3, 4)]
        for i, shape in enumerate(shapes):
            store.register(f"p{i}", np.ones(shape, dtype=np.float32))
        for p, shape in zip(store, shapes):
            assert p.grad.dtype == np.float64 and p.grad.shape == shape
            assert not p.grad.any()
            assert not np.shares_memory(p.grad, p.values)
        store["p2"].grad += 1.5   # accumulated before the arena exists
        _, grad = store.arena()
        np.testing.assert_array_equal(store["p2"].grad, np.full((3, 5), 1.5))
        assert grad.sum() == 1.5 * 15
        assert np.shares_memory(store["p2"].grad, grad)

    @pytest.mark.parametrize("dtype", [np.float64], ids=["double"])
    @pytest.mark.parametrize("chunk", [7, nn.ADAM_CHUNK])
    def test_adam_matches_per_tensor_reference(self, chunk, dtype, monkeypatch):
        monkeypatch.setattr(nn, "ADAM_CHUNK", chunk)
        store = ForecastModel(tiny_config(), np.random.default_rng(0)).params
        rng = np.random.default_rng(1)
        steps = [random_grads(store, rng, scale=10.0 ** -i) for i in range(6)]
        want, want_m, want_v = reference_adam(store.snapshot(), steps, lr=0.01)
        opt = Adam(store, lr=0.01)
        for grads in steps:
            for p in store:
                p.grad[...] = grads[p.id]
            opt.step()
        state = opt.state_arrays()
        for p in store:
            assert p.values.dtype == dtype
            np.testing.assert_array_equal(p.values, want[p.id])
            np.testing.assert_array_equal(state[f"adam/m/{p.id}"], want_m[p.id])
            np.testing.assert_array_equal(state[f"adam/v/{p.id}"], want_v[p.id])

    @pytest.mark.parametrize("dtype", [np.float64])
    def test_clip_returns_the_per_tensor_sum(self, dtype):
        rng = np.random.default_rng(4)
        store = ParamStore()
        for i, shape in enumerate([(3,), (8,), (24, 32), (129,), (1,), (64, 40), (17, 3)]):
            store.register(f"p{i}", rng.standard_normal(shape))
        for p in store:
            p.grad[...] = rng.standard_normal(p.shape) * rng.uniform(0.1, 3.0)
            assert p.grad.dtype == dtype
        grads = {p.id: p.grad.copy() for p in store}
        sq = 0.0
        for g in grads.values():
            sq += float(np.sum(g * g))
        norm = store.clip_global_norm(1.0)
        assert norm == float(np.sqrt(sq))
        scale = 1.0 / np.sqrt(sq)
        for p in store:
            want = grads[p.id].copy()
            want *= scale
            np.testing.assert_array_equal(p.grad, want)

    def test_clip_below_threshold_leaves_grads(self):
        store, _ = make_net([3, 4, 2])
        for p in store:
            p.grad[...] = 1e-3
        store.clip_global_norm(1.0)
        for p in store:
            np.testing.assert_array_equal(p.grad, 1e-3)

    def test_nonfinite_gradient_names_tensor_and_mutates_nothing(self):
        store, _ = make_net([3, 4, 4, 2], seed=1)
        rng = np.random.default_rng(2)
        opt = Adam(store, lr=0.1)
        for p in store:
            p.grad[...] = rng.standard_normal(p.shape)
        opt.step()
        before = store.snapshot()
        state = {k: a.copy() for k, a in opt.state_arrays().items()}
        store["net/W1"].grad[2, 1] = np.inf
        with pytest.raises(NumericError, match="'net/W1'"):
            opt.step()
        for pid, vals in before.items():
            np.testing.assert_array_equal(store[pid].values, vals)
        after = opt.state_arrays()
        assert set(after) == set(state)
        for k in state:
            np.testing.assert_array_equal(after[k], state[k])

    def test_register_after_the_arena_exists_is_refused(self):
        store, _ = make_net([3, 2])
        store.arena()
        with pytest.raises(InvariantError, match="'late'"):
            store.register("late", np.ones(2))
        assert len(store) == 2 and [pid for pid, *_ in store.layout] == ["net/W0", "net/b0"]

    def test_register_after_loading_moments_is_refused(self):
        store, _ = make_net([3, 2])
        opt = Adam(store)
        state = {"adam/t": np.array([1], dtype=np.int64)}
        for which in ("m", "v"):
            state.update({f"adam/{which}/{p.id}": np.ones(p.shape) for p in store})
        opt.reader(state)()
        with pytest.raises(InvariantError, match="'late'"):
            store.register("late", np.ones(2))


class TestAdamCheckpointFormat:
    def test_fresh_state_has_no_moments(self):
        arrays = Adam(make_net([3, 2])[0]).state_arrays()
        assert list(arrays) == ["adam/t"] and arrays["adam/t"][0] == 0

    def test_t0_without_moments_loads_and_steps_like_fresh(self):
        stores = [make_net([3, 4, 2], seed=6)[0] for _ in range(2)]
        loaded, fresh = (Adam(store, lr=0.05) for store in stores)
        start = stores[0].snapshot()
        for p in stores[0]:
            p.grad[...] = 1.0
        loaded.step()   # leaves moments that loading t = 0 must clear
        for pid, vals in start.items():
            stores[0][pid].values[...] = vals
        loaded.reader({"adam/t": np.array([0], dtype=np.int64)})()
        assert set(loaded.state_arrays()) == {"adam/t"}
        for store, opt in zip(stores, (loaded, fresh)):
            for p in store:
                p.grad[...] = 0.5
            opt.step()
        for pid, vals in stores[0].snapshot().items():
            np.testing.assert_array_equal(vals, stores[1][pid].values)

    def test_per_id_state_loads_round_trips_and_resumes(self, tmp_path):
        store, _ = make_net([3, 4, 2], seed=7)
        rng = np.random.default_rng(8)
        m = {p.id: rng.standard_normal(p.shape) for p in store}
        v = {p.id: rng.uniform(0.1, 1.0, p.shape) for p in store}
        arrays = {"adam/t": np.array([3], dtype=np.int64)}
        arrays.update({f"adam/m/{k}": a for k, a in m.items()})
        arrays.update({f"adam/v/{k}": a for k, a in v.items()})
        path = str(tmp_path / "adam.bin")
        checkpoint.save(path, arrays)
        opt = Adam(store, lr=0.01)
        opt.reader(checkpoint.load(path)[0])()
        state = opt.state_arrays()
        assert set(state) == set(arrays)
        for k, a in arrays.items():
            np.testing.assert_array_equal(state[k], a)
        grads = random_grads(store, rng)
        want, want_m, want_v = reference_adam(store.snapshot(), [grads], lr=0.01,
                                              m=m, v=v, t=3)
        for p in store:
            p.grad[...] = grads[p.id]
        opt.step()
        state = opt.state_arrays()
        assert state["adam/t"][0] == 4 and len(state) == len(arrays)
        for p in store:
            np.testing.assert_array_equal(p.values, want[p.id])
            np.testing.assert_array_equal(state[f"adam/m/{p.id}"], want_m[p.id])
            np.testing.assert_array_equal(state[f"adam/v/{p.id}"], want_v[p.id])

    @staticmethod
    def stepped(seed=0):
        """An Adam two steps in, and a copy of its state arrays."""
        store, _ = make_net([3, 4, 2], seed=seed)
        opt = Adam(store, lr=0.01)
        rng = np.random.default_rng(seed)
        for _ in range(2):
            for p in store:
                p.grad[...] = rng.standard_normal(p.shape)
            opt.step()
        return opt, {k: a.copy() for k, a in opt.state_arrays().items()}

    @pytest.mark.parametrize("change,message", [
        ({"adam/m/net/W1": np.ones(3)}, r"\(3,\) != \(2, 4\) for parameter 'net/W1'"),
        ({"adam/v/net/b0": np.ones((1, 4))}, r"\(1, 4\) != \(4,\) for parameter 'net/b0'"),
        ({"adam/v/net/W0": None}, "no array 'adam/v/net/W0'"),
        ({"adam/m/ghost": np.ones(3), "adam/v/ghost": np.ones(3)},
         "does not: 'adam/m/ghost'"),
        ({"adam/t": np.zeros(0, dtype=np.int64)}, "'adam/t'"),
        ({"adam/t": np.array([1, 2], dtype=np.int64)}, "'adam/t'"),
        ({"adam/t": np.array([2.0])}, "'adam/t'"),
        ({"adam/t": np.array([-1], dtype=np.int64)}, "'adam/t'"),
        ({"adam/t": np.array([0], dtype=np.int64)}, "does not: 'adam/m/net/W0'"),
        ({"adam/t": None}, "no array 'adam/t'"),
    ], ids=["short-m", "wide-v", "missing-v", "ghost", "empty-t", "two-t", "float-t",
            "negative-t", "moments-at-t0", "missing-t"])
    def test_refused_state_is_data_error_and_writes_nothing(self, change, message):
        _, arrays = self.stepped(seed=1)
        for name, arr in change.items():
            if arr is None:
                del arrays[name]
            else:
                arrays[name] = arr
        opt, state = self.stepped()
        m, v = opt.m, opt.v
        with pytest.raises(DataError, match=message):
            opt.reader(arrays)()
        assert opt.t == 2 and opt.m is m and opt.v is v
        after = opt.state_arrays()
        assert set(after) == set(state)
        for k in state:
            np.testing.assert_array_equal(after[k], state[k])
        fresh = Adam(make_net([3, 4, 2])[0])
        with pytest.raises(DataError, match=message):
            fresh.reader(arrays)()
        assert fresh.t == 0 and fresh.m is None and fresh.v is None


class TestFiniteDiffCheck:
    def test_quadratic_loss(self):
        store = ParamStore()
        p = store.register("p", np.random.default_rng(0).standard_normal(5))

        def loss():
            return float(np.sum(p.values ** 2))

        p.grad[...] = 2.0 * p.values
        report = finite_diff_check(loss, store, tolerance=1e-8, h=1e-6)
        assert report.passed

    def test_constant_loss_absolute_fallback(self):
        store = ParamStore()
        store.register("p", np.ones(3))
        report = finite_diff_check(lambda: 1.0, store, tolerance=1e-6)
        assert report.max_rel_error == 0.0
        assert report.passed

    def test_detects_wrong_gradient(self):
        store = ParamStore()
        p = store.register("p", np.ones(2))
        p.grad[...] = 1.0  # true gradient of sum(p^2) is 2p = 2
        report = finite_diff_check(lambda: float(np.sum(p.values ** 2)), store, tolerance=1e-4)
        assert not report.passed
        assert report.worst_param == "p"


class TestParamStore:
    def test_duplicate_id_rejected(self):
        store = ParamStore()
        store.register("x", np.zeros(1))
        with pytest.raises(InvariantError):
            store.register("x", np.zeros(1))

    def test_clip_global_norm(self):
        store = ParamStore()
        p = store.register("p", np.zeros(4))
        p.grad[...] = 3.0  # norm 6
        norm = store.clip_global_norm(1.0)
        assert norm == pytest.approx(6.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        arrays = {
            "a/values": rng.standard_normal((3, 4)),
            "b": np.arange(5, dtype=np.int64),
            "scalarish": np.array([1.5]),
        }
        path = tmp_path / "state.bin"
        checkpoint.save(str(path), arrays, {"seed": 7})
        loaded, meta = checkpoint.load(str(path))
        assert meta == {"seed": 7}
        assert set(loaded) == set(arrays)
        for k in arrays:
            assert loaded[k].dtype == arrays[k].dtype.newbyteorder("<")
            np.testing.assert_array_equal(loaded[k], arrays[k])

    def test_identical_state_identical_bytes(self, tmp_path):
        arrays = {"w": np.linspace(0, 1, 7)}
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        checkpoint.save(str(p1), arrays, {"x": 1})
        checkpoint.save(str(p2), arrays, {"x": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(DataError):
            checkpoint.load(str(path))

    @staticmethod
    def saved(tmp_path, meta=None) -> bytes:
        rng = np.random.default_rng(9)
        arrays = {"param/w": rng.standard_normal((4, 3)), "adam/t": np.array([2], dtype=np.int64),
                  "episodic/birth_counter": np.array([5], dtype=np.int64)}
        path = tmp_path / "good.bin"
        checkpoint.save(str(path), arrays, meta or {"step": 2})
        return path.read_bytes()

    def test_failed_save_keeps_the_previous_file(self, tmp_path):
        blob = self.saved(tmp_path)

        class Unwritable:
            def __array__(self, dtype=None, copy=None):
                raise OSError("device gone")

        # entries are written in name order, so "param/w" is on disk when "z" fails
        arrays = {"param/w": np.ones((4, 3)), "z": Unwritable()}
        with pytest.raises(OSError, match="device gone"):
            checkpoint.save(str(tmp_path / "good.bin"), arrays)
        assert (tmp_path / "good.bin").read_bytes() == blob
        assert [p.name for p in tmp_path.iterdir()] == ["good.bin"]

    @pytest.mark.parametrize("cut", [3, 20, 40, -3, -1])
    def test_truncated_file_is_data_error_naming_it(self, tmp_path, cut):
        blob = self.saved(tmp_path)
        path = tmp_path / "cut.bin"
        path.write_bytes(blob[:cut])
        with pytest.raises(DataError, match="cut.bin"):
            checkpoint.load(str(path))

    def test_every_prefix_is_data_error(self, tmp_path):
        blob = self.saved(tmp_path)
        path = tmp_path / "prefix.bin"
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(DataError):
                checkpoint.load(str(path))

    def test_other_version_is_data_error(self, tmp_path):
        blob = self.saved(tmp_path)
        path = tmp_path / "v2.bin"
        path.write_bytes(blob[:4] + struct.pack("<I", checkpoint.VERSION + 1) + blob[8:])
        with pytest.raises(DataError, match=f"unsupported checkpoint version {checkpoint.VERSION + 1}"):
            checkpoint.load(str(path))

    def test_garbled_metadata_is_data_error(self, tmp_path):
        blob = self.saved(tmp_path)
        path = tmp_path / "meta.bin"
        path.write_bytes(blob[:-2] + b"\xff}")
        with pytest.raises(DataError, match="metadata"):
            checkpoint.load(str(path))

    def test_huge_length_is_data_error(self, tmp_path):
        blob = self.saved(tmp_path, meta={"k": "v"})
        meta_len = len(b'{"k":"v"}')
        bad = blob[:-meta_len - 8] + (2 ** 62).to_bytes(8, "little") + blob[-meta_len:]
        path = tmp_path / "huge.bin"
        path.write_bytes(bad)
        with pytest.raises(DataError, match="metadata"):
            checkpoint.load(str(path))

    def test_trailing_bytes_are_data_error(self, tmp_path):
        path = tmp_path / "tail.bin"
        path.write_bytes(self.saved(tmp_path) + b"\0")
        with pytest.raises(DataError, match="trailing"):
            checkpoint.load(str(path))
