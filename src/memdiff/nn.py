"""Minimal deterministic neural substrate.

Dense layers with hand-written backprop, a flat parameter registry, Adam
with bias correction, and a central-difference gradient checker. There is
no general autodiff graph: every forward returns the trace its matching
backward needs, and backward accumulates exact gradients into the
registered ParamTensors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .checkpoint import counter, refuse_extra, require
from .errors import DataError, InvariantError, NumericError

# Adam updates the arena this many coordinates at a time, so its scratch
# stays two small cache-resident buffers whatever the model size.
ADAM_CHUNK = 16384


class ParamTensor:
    """A named learnable array with a same-shape gradient buffer."""

    __slots__ = ("id", "values", "grad")

    def __init__(self, id: str, values: np.ndarray):
        self.id = id
        self.values = np.asarray(values)
        self.grad = np.zeros(self.values.shape)   # calloc'd: untouched until written

    @property
    def shape(self):
        return self.values.shape


class ParamStore:
    """Ordered registry of ParamTensors, keyed by stable id.

    ``layout`` fixes each tensor's (id, start, stop, shape) in a flat vector
    of ``size`` coordinates at registration; ``named`` and ``reader`` turn
    it into per-id checkpoint arrays. On first use (``arena``) values and
    gradients move into two such vectors and every ParamTensor becomes a
    view into them. Each tensor is preceded by one slot that stays zero, so
    per-tensor ``np.add.reduceat`` sums start from 0 as ``np.sum`` does and
    the global norm stays bit-identical to a per-tensor loop. Registering
    once the arena or a vector laid out like it (``zeros``) exists raises
    InvariantError. Everything is float64.
    """

    def __init__(self):
        self._params: "dict[str, ParamTensor]" = {}
        self._values = self._grad = None   # the arena, once built
        self._pads = np.zeros(0, dtype=np.intp)   # arena index of each zero slot
        self._final = False
        self.layout: "list[tuple[str, int, int, tuple]]" = []
        self.size = 0

    def register(self, id: str, values: np.ndarray) -> ParamTensor:
        if self._final:
            raise InvariantError(f"cannot register {id!r}: the parameter layout is in use")
        if id in self._params:
            raise InvariantError(f"duplicate parameter id {id!r}")
        p = ParamTensor(id, np.asarray(values, dtype=np.float64))
        self._params[id] = p
        self.layout.append((id, self.size + 1, self.size + 1 + p.values.size, p.values.shape))
        self.size += 1 + p.values.size
        return p

    def __getitem__(self, id: str) -> ParamTensor:
        return self._params[id]

    def __iter__(self):
        return iter(self._params.values())

    def __len__(self):
        return len(self._params)

    def zeros(self) -> np.ndarray:
        """A zero vector laid out like the arena; the layout is final from then on."""
        self._final = True
        return np.zeros(self.size)

    def arena(self) -> "tuple[np.ndarray, np.ndarray]":
        """The contiguous (values, grad) vectors every ParamTensor views into."""
        if self._values is None:
            values, grad = self.zeros(), self.zeros()
            for p, (_, lo, hi, shape) in zip(self, self.layout):
                values[lo:hi] = p.values.reshape(-1)
                grad[lo:hi] = p.grad.reshape(-1)
                p.values = values[lo:hi].reshape(shape)
                p.grad = grad[lo:hi].reshape(shape)
            self._values, self._grad = values, grad
            self._pads = np.array([lo - 1 for _, lo, _, _ in self.layout], dtype=np.intp)
        return self._values, self._grad

    def named(self, prefix: str, flat: "np.ndarray | None" = None) -> "dict[str, np.ndarray]":
        """{prefix + id: that tensor's values, or its slice of flat (laid out like the arena)}."""
        if flat is None:
            return {prefix + p.id: p.values for p in self}
        return {prefix + pid: flat[lo:hi].reshape(shape) for pid, lo, hi, shape in self.layout}

    def reader(self, arrays: "dict[str, np.ndarray]", prefix: str):
        """Check a checkpoint's ``named(prefix)`` arrays (DataError if one is missing,
        misshapen, not all finite float64, or extra); return write(flat=None), copying
        them to the tensors or flat."""
        own = self.named(prefix)
        for name, view in own.items():
            stored = require(arrays, name)
            if stored.shape != view.shape:
                raise DataError(f"checkpoint shape {stored.shape} != {view.shape} "
                                f"for parameter {name[len(prefix):]!r} in {name!r}")
            if stored.dtype != np.float64 or not np.isfinite(stored).all():
                raise DataError(f"checkpoint array {name!r} ({stored.dtype}) "
                                "is not all finite float64")
        refuse_extra(arrays, prefix, own)

        def write(flat: "np.ndarray | None" = None):
            for name, view in self.named(prefix, flat).items():
                view[...] = arrays[name]
        return write

    def zero_grads(self):
        self.arena()[1].fill(0.0)

    def clip_global_norm(self, max_norm: float) -> float:
        """Scale all gradients so their joint L2 norm is at most max_norm."""
        _, grad = self.arena()
        sq = 0.0
        for part in np.add.reduceat(grad * grad, self._pads).tolist():
            sq += part   # per-tensor sums added in registration order
        norm = np.sqrt(sq)
        if norm > max_norm and norm > 0.0:
            grad *= max_norm / norm
        return float(norm)

    def snapshot(self) -> "dict[str, np.ndarray]":
        return {k: p.values.copy() for k, p in self._params.items()}


def _silu(z):
    """SiLU and the sigmoid it used, which its derivative reuses.

    s = 1 / (1 + exp(-z)) and the derivative are each built in one buffer:
    the sigmoid now lives until backward, and the temporaries it saves keep
    the training step's peak memory where it was.
    """
    s = np.negative(z)
    np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    return z * s, s


def _silu_backward(z, s, g):
    """g times the SiLU derivative s (1 + z (1 - s)) at z, given s = sigmoid(z) from the
    forward pass; built in one fresh buffer."""
    d = 1.0 - s
    d *= z
    d += 1.0
    d *= s
    d *= g
    return d


# name -> (forward: z -> (activation, saved),
#          backward: (z, saved, g) -> a fresh g * d act / dz)
_ACTIVATIONS = {
    "relu": (lambda z: (np.maximum(z, 0.0), None), lambda z, _, g: g * (z > 0.0)),
    "silu": (_silu, _silu_backward),
}


def uniform_fan_in(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


class Mlp:
    """Fully connected stack: affine + activation per hidden layer, linear output.

    Weights live in the supplied ParamStore under ``<prefix>/W{i}`` and
    ``<prefix>/b{i}``; the same Mlp instance is shared across channels, so
    rows of the input are independent items.
    """

    def __init__(self, store: ParamStore, prefix: str, widths: "list[int]",
                 activation: str, rng: np.random.Generator):
        if len(widths) < 2:
            raise InvariantError("Mlp needs at least input and output widths")
        if activation not in _ACTIVATIONS:
            raise InvariantError(f"unknown activation {activation!r}")
        self.widths = list(widths)
        self.activation = activation
        self._act, self._act_backward = _ACTIVATIONS[activation]
        self.weights: "list[ParamTensor]" = []
        self.biases: "list[ParamTensor]" = []
        for i, (n_in, n_out) in enumerate(zip(widths[:-1], widths[1:])):
            w = store.register(f"{prefix}/W{i}", uniform_fan_in(rng, n_in, (n_out, n_in)))
            b = store.register(f"{prefix}/b{i}", uniform_fan_in(rng, n_in, (n_out,)))
            self.weights.append(w)
            self.biases.append(b)

    @property
    def in_width(self) -> int:
        return self.widths[0]

    def forward(self, x: np.ndarray) -> "tuple[np.ndarray, list]":
        """x: (n_items, in_width) -> (y: (n_items, out_width), trace)."""
        if type(x) is not np.ndarray or x.ndim != 2:
            x = np.atleast_2d(np.asarray(x))
        if x.shape[1] != self.in_width:
            raise DataError(f"input width {x.shape[1]} != expected {self.in_width}")
        trace = []
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w.values.T
            z += b.values
            out, saved = (z, None) if i == last else self._act(z)
            trace.append((h, z, saved))
            h = out
        return h, trace

    def backward(self, trace: list, upstream: np.ndarray,
                 input_cols: "slice | None" = slice(None)) -> "np.ndarray | None":
        """Accumulate parameter grads; return the gradient w.r.t. the input_cols columns
        of the input rows, or None when input_cols is None (inputs that are data)."""
        if len(trace) != len(self.weights):
            raise InvariantError("trace does not match this network")
        g = upstream
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            h_in, z, saved = trace[i]
            if i != last:
                g = self._act_backward(z, saved, g)
            self.weights[i].grad += g.T @ h_in
            self.biases[i].grad += g.sum(axis=0)
            if i:
                g = g @ self.weights[i].values
        return None if input_cols is None else g @ self.weights[0].values[:, input_cols]


class Adam:
    """Adam with bias correction over the arena of the ParamStore it is built on.

    The moments ``m`` and ``v`` are laid out like that arena from the first
    step or load on; checkpoints hold them per id (``adam/m/<id>``,
    ``adam/v/<id>``) once t > 0."""

    def __init__(self, params: ParamStore, lr: float = 1e-3, betas=(0.9, 0.999),
                 eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.t = 0
        self.m = self.v = self._scratch = None

    def step(self):
        """One in-place update. Aborts (no mutation) on a non-finite gradient."""
        values, grad = self.params.arena()
        finite = np.isfinite(grad)
        if not finite.all():
            bad = next(pid for pid, lo, hi, _ in self.params.layout if not finite[lo:hi].all())
            raise NumericError(f"non-finite gradient in parameter {bad!r}")
        if self.m is None:
            self.m, self.v = self.params.zeros(), self.params.zeros()
        if self._scratch is None:
            self._scratch = np.empty((2, ADAM_CHUNK))
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        c1, c2 = 1.0 - self.beta1, 1.0 - self.beta2
        for lo in range(0, values.size, ADAM_CHUNK):
            p, g = values[lo:lo + ADAM_CHUNK], grad[lo:lo + ADAM_CHUNK]
            m, v = self.m[lo:lo + ADAM_CHUNK], self.v[lo:lo + ADAM_CHUNK]
            tmp, den = self._scratch[0, :p.size], self._scratch[1, :p.size]
            # m = b1 m + (1-b1) g;  v = b2 v + (1-b2) g g
            # p -= lr (m / b1t) / (sqrt(v / b2t) + eps), in this operation order
            m *= self.beta1
            np.multiply(g, c1, out=tmp)
            m += tmp
            v *= self.beta2
            np.multiply(g, c2, out=tmp)
            tmp *= g
            v += tmp
            np.divide(m, b1t, out=tmp)
            tmp *= self.lr
            np.divide(v, b2t, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            tmp /= den
            p -= tmp

    def state_arrays(self) -> "dict[str, np.ndarray]":
        out = {"adam/t": np.array([self.t], dtype=np.int64)}
        if self.t:
            out.update(self.params.named("adam/m/", self.m))
            out.update(self.params.named("adam/v/", self.v))
        return out

    def reader(self, arrays: "dict[str, np.ndarray]"):
        """Check a checkpoint's Adam state (DataError if refused); return write(),
        which restores t and, when t > 0, every moment."""
        t = counter(arrays, "adam/t")
        own = {"adam/t"}
        if t:
            write_m = self.params.reader(arrays, "adam/m/")
            write_v = self.params.reader(arrays, "adam/v/")
            own.update(self.params.named("adam/m/"), self.params.named("adam/v/"))
        refuse_extra(arrays, "adam/", own)

        def write():
            if not t:
                self.m = self.v = None
            else:
                if self.m is None:
                    self.m, self.v = self.params.zeros(), self.params.zeros()
                write_m(self.m)
                write_v(self.v)
            self.t = t
        return write


@dataclass
class GradCheckReport:
    max_rel_error: float
    tolerance: float
    n_checked: int
    worst_param: str = ""
    per_param: "dict[str, float]" = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def finite_diff_check(
    loss_fn,
    params: ParamStore,
    tolerance: float = 1e-4,
    h: float = 1e-5,
    max_coords_per_param: "int | None" = None,
    rng: "np.random.Generator | None" = None,
    abs_floor: float = 1e-6,
) -> GradCheckReport:
    """Compare populated analytic grads against central finite differences.

    loss_fn() must be deterministic (all randomness frozen) and must read
    the current parameter values. The caller runs backprop first; this
    function only perturbs values and re-evaluates the loss. The relative
    error denominator is floored at abs_floor, which doubles as the
    absolute fallback when both gradients vanish.
    """
    report = GradCheckReport(max_rel_error=0.0, tolerance=tolerance, n_checked=0)
    for p in params:
        flat_vals = p.values.reshape(-1)
        flat_grad = p.grad.reshape(-1)
        n = flat_vals.size
        if max_coords_per_param is not None and n > max_coords_per_param:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        else:
            coords = range(n)
        worst = 0.0
        for i in coords:
            saved = flat_vals[i]
            flat_vals[i] = saved + h
            up = float(loss_fn())
            flat_vals[i] = saved - h
            down = float(loss_fn())
            flat_vals[i] = saved
            fd = (up - down) / (2.0 * h)
            an = float(flat_grad[i])
            rel = abs(an - fd) / max(abs(an) + abs(fd), abs_floor)
            report.n_checked += 1
            if rel > worst:
                worst = rel
            if rel > report.max_rel_error:
                report.max_rel_error = rel
                report.worst_param = p.id
        report.per_param[p.id] = worst
    return report
