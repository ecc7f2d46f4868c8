"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Every operation records its parents and a vector-Jacobian product on the
output node.  backward() walks nodes in reverse construction order (which is
a topological order) and accumulates adjoints, so fan-out is handled by
summation and repeated backward calls add another full pass into the
leaves' .grad.
Inside no_grad() operations record nothing, for scoring without backward.

The order of those sums is part of the contract, because float addition
does not associate: a tensor's adjoint is the sum of its consumers'
contributions taken from the most recently built consumer down, and a node
that lists one parent more than once (a fused op that uses an input in
several places) has those contributions added in the order it lists them.
So a fused op whose vjp lists a parent once per use, in the reverse of the
order in which an equivalent chain of these primitives would have made the
uses, gets the chain's gradients bit for bit.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Sequence

import numpy as np

_SERIAL = itertools.count()
# False inside no_grad(); a context variable, so other threads keep recording
_RECORDING: ContextVar[bool] = ContextVar("grail_autodiff_recording", default=True)


def is_recording() -> bool:
    """False inside no_grad(): tensors made now record no backward graph."""
    return _RECORDING.get()


@contextmanager
def no_grad() -> Iterator[None]:
    """Build no backward graph: tensors made inside record no parents and no vjp.

    For scoring that never calls backward (validation, evaluation).  Leaves
    made with requires_grad=True still require it.  The previous mode is
    restored on exit, so the context nests.
    """
    token = _RECORDING.set(False)
    try:
        yield
    finally:
        _RECORDING.reset(token)


class Tensor:
    __slots__ = ("data", "requires_grad", "_grad", "_parents", "_vjp", "_serial")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _vjp: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None,
    ) -> None:
        if not _RECORDING.get():
            _parents, _vjp = (), None
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self._grad: np.ndarray | None = None
        self._parents = _parents
        self._vjp = _vjp
        self._serial = next(_SERIAL)

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.data)
        return self._grad

    def zero_grad(self) -> None:
        self._grad = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a size-1 tensor, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    def _accum(self, g: np.ndarray) -> None:
        if self._grad is None:
            # a copy: add's vjp hands one array to both parents, concat's hands out views
            self._grad = g.copy()
        else:
            self._grad += g

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into .grad of every requires_grad leaf, a
        tensor without a vjp; intermediate tensors pass their adjoints on and
        store none, so their .grad stays zero."""
        if self.data.size != 1:
            raise ValueError(f"backward() root must be a scalar, got shape {self.data.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[Tensor] = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            order.append(node)
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append(p)
        order.sort(key=lambda t: t._serial, reverse=True)
        adjoint: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in order:
            g = adjoint.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                node._accum(g)
                continue
            contribs = node._vjp(g)
            for parent, contrib in zip(node._parents, contribs):
                if contrib is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in adjoint:
                    adjoint[key] = adjoint[key] + contrib
                else:
                    adjoint[key] = contrib

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data

    def vjp(g: np.ndarray):
        return g @ b.data.T, a.data.T @ g

    return Tensor(out_data, _parents=(a, b), _vjp=vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; b may also be a scalar or a row vector matching a's last axis."""
    same = a.data.shape == b.data.shape
    scalar = b.data.size == 1
    row = b.data.ndim == 1 and a.data.ndim == 2 and b.data.shape[0] == a.data.shape[1]
    if not (same or scalar or row):
        raise ValueError(f"add: incompatible shapes {a.data.shape} + {b.data.shape}")
    out_data = a.data + b.data

    def vjp(g: np.ndarray):
        if same:
            gb = g
        elif scalar:
            gb = np.sum(g).reshape(b.data.shape)
        else:
            gb = np.sum(g, axis=0)
        return g, gb

    return Tensor(out_data, _parents=(a, b), _vjp=vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; one side may be a scalar or an (N,1) column against (N,d)."""
    same = a.data.shape == b.data.shape
    b_scalar = b.data.size == 1
    a_scalar = a.data.size == 1 and not b_scalar
    b_col = (
        a.data.ndim == 2
        and b.data.ndim == 2
        and b.data.shape == (a.data.shape[0], 1)
        and a.data.shape[1] != 1
    )
    a_col = (
        b.data.ndim == 2
        and a.data.ndim == 2
        and a.data.shape == (b.data.shape[0], 1)
        and b.data.shape[1] != 1
    )
    if not (same or b_scalar or a_scalar or b_col or a_col):
        raise ValueError(f"mul: incompatible shapes {a.data.shape} * {b.data.shape}")
    out_data = a.data * b.data

    def vjp(g: np.ndarray):
        ga = g * b.data
        gb = g * a.data
        if b_scalar and not same:
            gb = np.sum(gb).reshape(b.data.shape)
        elif a_scalar and not same:
            ga = np.sum(ga).reshape(a.data.shape)
        elif b_col:
            gb = np.sum(gb, axis=1, keepdims=True)
        elif a_col:
            ga = np.sum(ga, axis=1, keepdims=True)
        return ga, gb

    return Tensor(out_data, _parents=(a, b), _vjp=vjp)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def vjp(g: np.ndarray):
        return (g * c,)

    return Tensor(a.data * c, _parents=(a,), _vjp=vjp)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0.0  # subgradient 0 at the kink

    def vjp(g: np.ndarray):
        return (g * mask,)

    return Tensor(np.where(mask, a.data, 0.0), _parents=(a,), _vjp=vjp)


def logistic(x: np.ndarray) -> np.ndarray:
    """The logistic function of an array, computed without overflow."""
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])  # exp of a negative number never overflows
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Tensor) -> Tensor:
    out_data = logistic(a.data)

    def vjp(g: np.ndarray):
        return (g * out_data * (1.0 - out_data),)

    return Tensor(out_data, _parents=(a,), _vjp=vjp)


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the last axis; leading dimensions must match."""
    if not parts:
        raise ValueError("concat: empty input list")
    lead = [p.data.shape[:-1] for p in parts]
    if any(s != lead[0] for s in lead):
        raise ValueError(f"concat: leading shapes differ: {[p.data.shape for p in parts]}")
    widths = [p.data.shape[-1] for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=-1)
    offsets = np.cumsum([0] + widths)

    def vjp(g: np.ndarray):
        return tuple(g[..., offsets[i] : offsets[i + 1]] for i in range(len(parts)))

    return Tensor(out_data, _parents=tuple(parts), _vjp=vjp)


def sum_all(a: Tensor) -> Tensor:
    out_data = np.sum(a.data)

    def vjp(g: np.ndarray):
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return Tensor(out_data, _parents=(a,), _vjp=vjp)


def scatter_rows(rows: np.ndarray, index: np.ndarray, n: int) -> np.ndarray:
    """(E, d) -> (n, d): row e is added into row index[e], in row order.

    The same sums, bit for bit, as np.add.at into zeros, but one bincount
    over the flat cells.  An index outside [0, n) raises ValueError: a
    negative one in bincount, a large one in the reshape.
    """
    d = rows.shape[1]
    flat = (index[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(flat, weights=rows.ravel(), minlength=n * d)
    return sums.astype(np.float64, copy=False).reshape(n, d)  # float even when E == 0


def slice_rows(a: Tensor, indices) -> Tensor:
    """Gather rows of a 2-D tensor; duplicate indices accumulate in backward."""
    if a.data.ndim != 2:
        raise ValueError(f"slice_rows: need 2-D input, got shape {a.data.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError("slice_rows: indices must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= a.data.shape[0]):
        raise ValueError(f"slice_rows: index out of range for {a.data.shape[0]} rows")
    out_data = a.data[idx]

    def vjp(g: np.ndarray):
        return (scatter_rows(g, idx, a.data.shape[0]),)

    return Tensor(out_data, _parents=(a,), _vjp=vjp)


def segment_sum(a: Tensor, index, n: int) -> Tensor:
    """(E, d) -> (n, d): row e of a is added into output row index[e].

    The sparse form of multiplying by a 0/1 (n x E) scatter matrix: output
    rows that no index names stay zero.  Backward gathers the adjoint rows.
    """
    if a.data.ndim != 2:
        raise ValueError(f"segment_sum: need 2-D input, got shape {a.data.shape}")
    idx = np.asarray(index, dtype=np.intp)
    if idx.shape != (a.data.shape[0],):
        raise ValueError(f"segment_sum: index shape {idx.shape} != ({a.data.shape[0]},)")
    try:
        out_data = scatter_rows(a.data, idx, n)
    except ValueError:
        raise ValueError(f"segment_sum: index out of range for {n} segments") from None

    def vjp(g: np.ndarray):
        return (g[idx],)

    return Tensor(out_data, _parents=(a,), _vjp=vjp)


def basis_matmul(a: Tensor, coef: Tensor, bases: Sequence[Tensor]) -> Tensor:
    """Row e of a times its own mixture of bases: a[e] @ sum_b coef[e, b] * bases[b].

    a is (E, d_in), coef (E, B) and each of the B bases (d_in, d).  The
    bases are stacked and applied in one product, so the op costs the same
    for any number of bases.
    """
    if not bases:
        raise ValueError("basis_matmul: empty basis list")
    stacked = np.stack([b.data for b in bases])  # (B, d_in, d)
    num_bases, d_in, d = stacked.shape
    num_rows = a.data.shape[0]
    if a.data.shape != (num_rows, d_in) or coef.data.shape != (num_rows, num_bases):
        raise ValueError(
            f"basis_matmul: incompatible shapes {a.data.shape}, {coef.data.shape}, "
            f"{num_bases} x {(d_in, d)}"
        )
    flat = stacked.transpose(1, 0, 2).reshape(d_in, num_bases * d)  # columns [b, d]
    proj = (a.data @ flat).reshape(num_rows, num_bases, d)
    out_data = np.einsum("eb,ebd->ed", coef.data, proj)

    def vjp(g: np.ndarray):
        g_proj = (coef.data[:, :, None] * g[:, None, :]).reshape(num_rows, num_bases * d)
        g_a = g_proj @ flat.T
        g_coef = np.einsum("ed,ebd->eb", g, proj)
        g_flat = (a.data.T @ g_proj).reshape(d_in, num_bases, d)
        return (g_a, g_coef) + tuple(g_flat[:, b, :] for b in range(num_bases))

    return Tensor(out_data, _parents=(a, coef, *bases), _vjp=vjp)


def apply_mask(a: Tensor, mask: np.ndarray) -> Tensor:
    """Multiply by constant data, such as a 0/1 dropout mask; the data is not a tape node."""
    mask = np.asarray(mask, dtype=np.float64)
    try:
        ok = np.broadcast_shapes(a.data.shape, mask.shape) == a.data.shape
    except ValueError:
        ok = False
    if not ok:
        raise ValueError(f"apply_mask: mask shape {mask.shape} does not broadcast to {a.data.shape}")

    def vjp(g: np.ndarray):
        return (g * mask,)

    return Tensor(a.data * mask, _parents=(a,), _vjp=vjp)


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-5,
    max_coords_per_param: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare analytic gradients of f() against central finite differences.

    Coordinates where a second-difference probe indicates a kink inside the
    eps window are excluded (documented exclusion: subgradients at kinks need
    not match one-sided numerics).  Returns the max relative error over the
    sampled coordinates, 0.0 if every coordinate was excluded.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    for p in params:
        p.zero_grad()
    out = f()
    if out.data.size != 1:
        raise ValueError("grad_check: f() must return a scalar tensor")
    out.backward()
    analytic = [p.grad.copy() for p in params]
    f0 = out.item()
    worst = 0.0
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        n = flat.size
        if max_coords_per_param is not None and n > max_coords_per_param:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        else:
            coords = np.arange(n)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            f_plus = f().item()
            flat[c] = orig - eps
            f_minus = f().item()
            flat[c] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise ValueError("grad_check: non-finite function value during probing")
            # second difference blows past O(eps^2) only when a kink sits in the window
            if abs(f_plus + f_minus - 2.0 * f0) > 10.0 * eps**1.5:
                continue
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(an.reshape(-1)[c])
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            worst = max(worst, err)
    return worst
