"""Autodiff primitives that only the tests use, built on grail.autodiff's tape.

The package's model runs through fused tape nodes (model.layer_forward,
train.hinge_loss) and the five primitives of its readout.  The ops here
are the generic pieces the tests compose into reference chains, such as
oracles.layer_forward_chain, whose floats and gradients the fused nodes
must reproduce bit for bit, and into scalar losses for gradient checks.
"""

from typing import Sequence

import numpy as np

from grail.autodiff import Tensor, logistic


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


def sigmoid(a: Tensor) -> Tensor:
    out_data = logistic(a.data)

    def vjp(g: np.ndarray):
        return (g * out_data * (1.0 - out_data),)

    return Tensor(out_data, _parents=(a,), _vjp=vjp)


def sum_all(a: Tensor) -> Tensor:
    out_data = np.sum(a.data)

    def vjp(g: np.ndarray):
        return (np.broadcast_to(g, a.data.shape).copy(),)

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
