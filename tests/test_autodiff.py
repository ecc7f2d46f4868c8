"""Reverse-mode tape: per-op gradients, broadcasting, and graph traversal."""

import numpy as np
import pytest

from grail.autodiff import (
    Tensor,
    add,
    apply_mask,
    basis_matmul,
    concat,
    constant,
    grad_check,
    matmul,
    mul,
    no_grad,
    parameter,
    relu,
    scale,
    segment_sum,
    sigmoid,
    slice_rows,
    sum_all,
)

from oracles import zero_grads


def rnd(rng, *shape):
    return parameter(rng.standard_normal(shape))


def test_matmul_grad():
    rng = np.random.default_rng(0)
    a, b = rnd(rng, 3, 4), rnd(rng, 4, 2)
    assert grad_check(lambda: sum_all(matmul(a, b)), [a, b]) < 1e-6


def test_matmul_shape_error():
    a, b = parameter(np.ones((2, 3))), parameter(np.ones((2, 3)))
    with pytest.raises(ValueError, match="matmul"):
        matmul(a, b)


def test_add_same_scalar_row():
    rng = np.random.default_rng(1)
    a = rnd(rng, 3, 4)
    same, scal, row = rnd(rng, 3, 4), rnd(rng, 1), rnd(rng, 4)
    assert grad_check(lambda: sum_all(add(a, same)), [a, same]) < 1e-6
    assert grad_check(lambda: sum_all(add(a, scal)), [a, scal]) < 1e-6
    assert grad_check(lambda: sum_all(add(a, row)), [a, row]) < 1e-6


def test_add_row_grad_sums_over_rows():
    a = parameter(np.zeros((3, 2)))
    b = parameter(np.zeros(2))
    sum_all(add(a, b)).backward()
    assert np.array_equal(b.grad, [3.0, 3.0])


def test_add_shape_error():
    with pytest.raises(ValueError, match="add"):
        add(parameter(np.ones((2, 3))), parameter(np.ones((3, 2))))


def test_mul_variants():
    rng = np.random.default_rng(2)
    a = rnd(rng, 3, 4)
    same, scal, col = rnd(rng, 3, 4), rnd(rng, 1), rnd(rng, 3, 1)
    assert grad_check(lambda: sum_all(mul(a, same)), [a, same]) < 1e-6
    assert grad_check(lambda: sum_all(mul(a, scal)), [a, scal]) < 1e-6
    assert grad_check(lambda: sum_all(mul(a, col)), [a, col]) < 1e-6
    assert grad_check(lambda: sum_all(mul(col, a)), [a, col]) < 1e-6
    assert grad_check(lambda: sum_all(mul(scal, a)), [a, scal]) < 1e-6


def test_mul_col_grad_sums_over_cols():
    a = parameter(np.ones((2, 3)))
    c = parameter(np.ones((2, 1)))
    sum_all(mul(a, c)).backward()
    assert np.array_equal(c.grad, [[3.0], [3.0]])


def test_mul_shape_error():
    with pytest.raises(ValueError, match="mul"):
        mul(parameter(np.ones((2, 3))), parameter(np.ones((2, 2))))


def test_scale_relu_hinge_sigmoid():
    rng = np.random.default_rng(3)
    # offset away from 0 so the relu kink stays out of the fd window
    a = parameter(rng.standard_normal((4, 3)) + 0.5)
    assert grad_check(lambda: sum_all(scale(a, -2.5)), [a]) < 1e-6
    assert grad_check(lambda: sum_all(relu(a)), [a]) < 1e-6
    assert grad_check(lambda: sum_all(sigmoid(a)), [a]) < 1e-6


def test_relu_hinge_values():
    a = constant(np.array([[-2.0, 0.0, 3.0]]))
    assert np.array_equal(relu(a).data, [[0.0, 0.0, 3.0]])
    # subgradient 0 exactly at the kink
    b = parameter(np.array([[0.0]]))
    sum_all(relu(b)).backward()
    assert b.grad[0, 0] == 0.0


def test_sigmoid_saturation_stable():
    a = constant(np.array([[800.0, -800.0]]))
    s = sigmoid(a).data
    assert np.all(np.isfinite(s))
    assert s[0, 0] == pytest.approx(1.0) and s[0, 1] == pytest.approx(0.0)


def test_concat_grad_and_errors():
    rng = np.random.default_rng(4)
    a, b = rnd(rng, 2, 3), rnd(rng, 2, 2)
    assert grad_check(lambda: sum_all(concat([a, b])), [a, b]) < 1e-6
    with pytest.raises(ValueError, match="concat"):
        concat([])
    with pytest.raises(ValueError, match="concat"):
        concat([a, rnd(rng, 3, 2)])


def test_segment_sum_forward_backward_and_empty_segments():
    rng = np.random.default_rng(5)
    a = rnd(rng, 4, 3)
    idx = np.array([2, 0, 2, 4])
    out = segment_sum(a, idx, 6)
    want = np.zeros((6, 3))
    for e, seg in enumerate(idx):
        want[seg] += a.data[e]
    assert np.array_equal(out.data, want)
    assert np.all(out.data[[1, 3, 5]] == 0.0)  # segments no row names stay zero
    w = rng.standard_normal((6, 3))
    sum_all(mul(out, constant(w))).backward()
    assert np.array_equal(a.grad, w[idx])  # backward gathers the adjoint rows
    assert grad_check(lambda: sum_all(sigmoid(segment_sum(a, idx, 6))), [a]) < 1e-6
    none = segment_sum(parameter(np.zeros((0, 3))), np.array([], dtype=int), 2)
    assert np.array_equal(none.data, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="out of range"):
        segment_sum(a, np.array([0, 1, 2, 6]), 6)
    with pytest.raises(ValueError, match="out of range"):
        segment_sum(a, np.array([0, -1, 2, 3]), 6)
    with pytest.raises(ValueError, match="index shape"):
        segment_sum(a, np.array([0, 1]), 6)
    with pytest.raises(ValueError, match="segment_sum"):
        segment_sum(parameter(np.ones(3)), np.array([0, 0, 0]), 1)


def test_scatters_are_bit_identical_to_add_at():
    # segment_sum's forward and slice_rows' backward against np.add.at into
    # zeros, byte for byte, with signed zeros among the rows
    rng = np.random.default_rng(9)
    for _ in range(300):
        e, n, d = int(rng.integers(0, 40)), int(rng.integers(1, 20)), int(rng.integers(1, 6))
        rows = rng.standard_normal((e, d))
        rows[rng.random((e, d)) < 0.2] = -0.0
        idx = rng.integers(0, n, size=e)
        want = np.zeros((n, d))
        np.add.at(want, idx, rows)
        assert segment_sum(constant(rows), idx, n).data.tobytes() == want.tobytes()
        a = parameter(rng.standard_normal((n, d)))
        sum_all(mul(slice_rows(a, idx), constant(rows))).backward()
        assert a.grad.tobytes() == want.tobytes()


def test_basis_matmul_mixes_the_bases_per_row():
    rng = np.random.default_rng(14)
    x, coef = rnd(rng, 5, 3), rnd(rng, 5, 2)
    bases = [rnd(rng, 3, 4), rnd(rng, 3, 4)]
    out = basis_matmul(x, coef, bases)
    want = [x.data[e] @ (coef.data[e, 0] * bases[0].data + coef.data[e, 1] * bases[1].data)
            for e in range(5)]
    assert np.allclose(out.data, want, rtol=1e-12, atol=1e-12)
    err = grad_check(lambda: sum_all(sigmoid(basis_matmul(x, coef, bases))), [x, coef, *bases])
    assert err < 1e-6
    with pytest.raises(ValueError, match="basis_matmul"):
        basis_matmul(x, rnd(rng, 5, 3), bases)
    with pytest.raises(ValueError, match="basis_matmul"):
        basis_matmul(x, coef, [])


def test_no_grad_records_no_parents_and_restores_recording():
    rng = np.random.default_rng(15)
    a = rnd(rng, 3, 2)
    taped = sum_all(mul(a, a))
    with no_grad():
        with no_grad():
            pass
        out = sum_all(mul(a, a))  # still inside the outer context
        leaf = parameter(np.ones(2))
    assert out.data == taped.data
    assert out._parents == () and out._vjp is None and not out.requires_grad
    assert leaf.requires_grad
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("boom")
    again = sum_all(mul(a, a))
    assert again._parents and again.requires_grad
    again.backward()
    assert np.array_equal(a.grad, 2.0 * a.data)


def test_slice_rows_grad_scatters():
    a = parameter(np.arange(12.0).reshape(4, 3))
    out = slice_rows(a, np.array([1, 1, 3]))
    assert np.array_equal(out.data, a.data[[1, 1, 3]])
    sum_all(out).backward()
    # duplicated row index accumulates
    assert np.array_equal(a.grad[:, 0], [0.0, 2.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="out of range"):
        slice_rows(a, np.array([4]))
    with pytest.raises(ValueError, match="slice_rows"):
        slice_rows(parameter(np.ones(3)), np.array([0]))


def test_apply_mask_grad():
    rng = np.random.default_rng(6)
    a = rnd(rng, 4, 3)
    mask = rng.random((4, 1)) < 0.5
    out = apply_mask(a, mask.astype(float))
    sum_all(out).backward()
    assert np.array_equal(a.grad, np.broadcast_to(mask, (4, 3)).astype(float))
    with pytest.raises(ValueError, match="apply_mask"):
        apply_mask(a, np.ones((3, 3)))


def test_backward_needs_scalar():
    a = parameter(np.ones((2, 2)))
    with pytest.raises(ValueError, match="scalar"):
        a.backward()
    with pytest.raises(ValueError, match="size-1"):
        a.item()


def test_reuse_accumulates():
    # y = a*a + a: dy/da = 2a + 1
    a = parameter(np.array([[3.0]]))
    y = add(mul(a, a), a)
    sum_all(y).backward()
    assert a.grad[0, 0] == pytest.approx(7.0)


def test_diamond_topology():
    # two paths from a to the root must both contribute exactly once
    a = parameter(np.array([[2.0]]))
    left = scale(a, 3.0)
    right = mul(a, a)
    sum_all(add(left, right)).backward()
    assert a.grad[0, 0] == pytest.approx(3.0 + 2.0 * 2.0)


def test_grad_accumulates_across_backwards():
    a = parameter(np.array([[1.0]]))
    sum_all(scale(a, 2.0)).backward()
    sum_all(scale(a, 2.0)).backward()
    assert a.grad[0, 0] == pytest.approx(4.0)
    zero_grads([a])
    assert a.grad[0, 0] == 0.0


def test_constants_keep_zero_grad():
    a = parameter(np.array([[1.0]]))
    c = constant(np.array([[5.0]]))
    sum_all(mul(a, c)).backward()
    assert c.grad[0, 0] == 0.0 or not c.requires_grad


def test_grad_check_excludes_kinks():
    # relu evaluated exactly at 0: analytic subgradient is 0, one-sided numeric
    # slope is 0.5, a kink probe must exclude the coordinate
    a = parameter(np.array([[0.0]]))
    err = grad_check(lambda: sum_all(relu(a)), [a])
    assert err == 0.0


def test_grad_check_subsampling():
    rng = np.random.default_rng(7)
    a = rnd(rng, 10, 10)
    err = grad_check(lambda: sum_all(mul(a, a)), [a], max_coords_per_param=5,
                     rng=np.random.default_rng(0))
    assert err < 1e-6


def test_composite_expression_grad():
    rng = np.random.default_rng(8)
    w1, w2 = rnd(rng, 3, 5), rnd(rng, 5, 1)
    x = constant(rng.standard_normal((4, 3)))
    b = rnd(rng, 5)

    def f():
        h = relu(add(matmul(x, w1), b))
        return sum_all(sigmoid(matmul(h, w2)))

    assert grad_check(f, [w1, w2, b]) < 1e-6


def test_tensor_repr_mentions_shape():
    t = Tensor(np.ones((2, 3)))
    assert "2, 3" in repr(t) or "(2, 3)" in repr(t)


def test_parents_fed_one_adjoint_get_separate_gradient_buffers():
    # add's vjp hands its one adjoint to both parents and concat's hands out
    # views of it; every tensor must still accumulate into a buffer of its own
    rng = np.random.default_rng(40)
    a, b, c, d = (rnd(rng, 2, 3) for _ in range(4))
    for _ in range(2):
        summed, joined = add(a, b), concat([c, d])
        sum_all(summed).backward()
        sum_all(joined).backward()
    grads = [t.grad for t in (a, b, summed, c, d, joined)]
    for i, x in enumerate(grads):
        assert not any(np.shares_memory(x, y) for y in grads[i + 1 :])
    for leaf in (a, b, c, d):
        assert np.array_equal(leaf.grad, np.full((2, 3), 2.0))


def test_a_parent_listed_twice_gets_its_contributions_added_in_listed_order():
    # a fused op lists an input once per use; x's adjoint is the later
    # consumer's 1e16, then the fused node's contributions in the order it
    # lists them: (1e16 + 1) + -1e16 is 0.0, (1e16 + -1e16) + 1 is 1.0
    for listed, want in [((1.0, -1e16), 0.0), ((-1e16, 1.0), 1.0)]:
        a = parameter(np.zeros((1, 1)))
        x = scale(a, 1.0)
        fused = Tensor(x.data.copy(), _parents=(x, x),
                       _vjp=lambda g, listed=listed: tuple(g * c for c in listed))
        later = scale(x, 1e16)
        add(sum_all(fused), sum_all(later)).backward()
        assert a.grad.tobytes() == np.array([[want]]).tobytes(), listed
