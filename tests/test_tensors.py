"""Dense two- and three-leg tensor algebra over End(C^n)."""

import numpy as np
import pytest

from aybe.bruteforce import leg_product_einsum, matrix_unit
from aybe.tensors import (
    MatrixTensor2,
    MatrixTensor3,
    _graded_layout,
    _graded_plan,
    _graded_slice,
    _ranks_as_maps,
    _twist_ranks,
    from_pair,
    identity2,
    leg_product,
    leg_product_array,
)

LEG_PAIRS = [
    ("12", "13"), ("13", "12"), ("12", "23"), ("23", "12"), ("13", "23"), ("23", "13"),
]


def random_tensor(rng, n):
    data = rng.normal(size=(n,) * 4) + 1j * rng.normal(size=(n,) * 4)
    return MatrixTensor2(data)


def test_from_pair_entries(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    t = from_pair(a, b)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert t.coeffs[i, j, k, l] == pytest.approx(a[i, j] * b[k, l])


def test_linear_ops(rng):
    x = random_tensor(rng, 2)
    y = random_tensor(rng, 2)
    assert np.allclose((x + y).coeffs, x.coeffs + y.coeffs)
    assert np.allclose((x - y).coeffs, x.coeffs - y.coeffs)
    assert np.allclose((2.5j * x).coeffs, 2.5j * x.coeffs)
    assert np.allclose((-x).coeffs, -x.coeffs)


def test_three_leg_linear_ops_are_coefficient_arithmetic(rng):
    for n in (1, 2, 3):
        coeffs = rng.normal(size=(n,) * 6) + 1j * rng.normal(size=(n,) * 6)
        x = MatrixTensor3(coeffs)
        assert x.n == n
        assert np.array_equal((-x).coeffs, -coeffs)
        for scalar in (2.5j, -0.75, 3):
            assert np.array_equal((x * scalar).coeffs, coeffs * scalar)
            assert np.array_equal((scalar * x).coeffs, scalar * coeffs)
            assert isinstance(scalar * x, MatrixTensor3)


def test_mul_is_factorwise(rng):
    a1, b1, a2, b2 = (
        rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(4)
    )
    left = from_pair(a1, b1)
    right = from_pair(a2, b2)
    prod = left.mul(right)
    assert np.allclose(prod.coeffs, from_pair(a1 @ a2, b1 @ b2).coeffs)


def test_swap_legs(rng):
    a, b = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
    assert np.allclose(from_pair(a, b).swap_legs().coeffs, from_pair(b, a).coeffs)
    x = random_tensor(rng, 3)
    assert np.allclose(x.swap_legs().swap_legs().coeffs, x.coeffs)


def test_identity2_neutral_under_mul(rng):
    x = random_tensor(rng, 2)
    eye = identity2(2)
    assert np.allclose(eye.mul(x).coeffs, x.coeffs)
    assert np.allclose(x.mul(eye).coeffs, x.coeffs)


def test_conjugate_legs_inverts(rng):
    x = random_tensor(rng, 2)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    back = x.conjugate_legs(g, g).conjugate_legs(np.linalg.inv(g), np.linalg.inv(g))
    assert np.max(np.abs(back.coeffs - x.coeffs)) < 1e-12


def test_embed_products_respect_leg_structure(rng):
    # r12 * s13 acts as (a1*a2) (x) b1 (x) b2 on pure tensors.
    a1, b1, a2, b2 = (
        rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4)
    )
    r = from_pair(a1, b1)
    s = from_pair(a2, b2)
    prod = r.embed("12").mul(s.embed("13"))
    expected = np.einsum("ij,kl,mn->ijklmn", a1 @ a2, b1, b2)
    assert np.max(np.abs(prod.coeffs - expected)) < 1e-12

    prod23 = r.embed("13").mul(s.embed("23"))
    expected23 = np.einsum("ij,kl,mn->ijklmn", a1, a2, b1 @ b2)
    assert np.max(np.abs(prod23.coeffs - expected23)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("legs_x,legs_y", LEG_PAIRS)
def test_leg_product_equals_embed_then_mul(legs_x, legs_y, n):
    # The same entries as the full three-leg product it replaces and as the
    # einsum reference, up to the rounding of a BLAS matrix product.
    rng = np.random.default_rng(100 * n + LEG_PAIRS.index((legs_x, legs_y)))
    x, y = random_tensor(rng, n), random_tensor(rng, n)
    prod = leg_product(x, legs_x, y, legs_y)
    assert isinstance(prod, MatrixTensor3)
    full = x.embed(legs_x).mul(y.embed(legs_y)).coeffs
    bound = 1e-14 * np.linalg.norm(full)
    assert np.max(np.abs(prod.coeffs - full)) <= bound
    reference = leg_product_einsum(x, legs_x, y, legs_y).coeffs
    assert np.max(np.abs(prod.coeffs - reference)) <= bound


@pytest.mark.parametrize("legs_x,legs_y", LEG_PAIRS)
def test_leg_product_array_is_leg_product_per_entry(legs_x, legs_y):
    # a stack of four pairs in one batched product, entry k as leg_product
    # of x[k] and y[k]
    rng = np.random.default_rng(LEG_PAIRS.index((legs_x, legs_y)))
    xs = [random_tensor(rng, 3) for _ in range(4)]
    ys = [random_tensor(rng, 3) for _ in range(4)]
    stack = leg_product_array(
        np.stack([x.coeffs for x in xs]), legs_x, np.stack([y.coeffs for y in ys]), legs_y
    )
    assert stack.shape == (4,) + (3,) * 6
    for k in range(4):
        single = leg_product(xs[k], legs_x, ys[k], legs_y).coeffs
        assert np.max(np.abs(stack[k] - single)) <= 1e-14 * np.linalg.norm(single)


def heisenberg_tensor(rng, d):
    """Dense (d, d, d, d) coefficients that vanish off the charge-0 entries
    (b - a) + (e - c) = 0 mod d and depend only on (b - a, a - e) there."""
    table = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a, b, c, e = np.indices((d,) * 4)
    return np.where((b - a + e - c) % d == 0, table[(b - a) % d, (a - e) % d], 0.0)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
def test_graded_layout_places_the_twist_table(d):
    layout = _graded_layout(d)
    assert layout.shape == (d, d * d)
    # every charge-0 entry of a (d, d, d, d) tensor, each once
    a, b, c, e = np.indices((d,) * 4).reshape(4, -1)
    charge0 = np.flatnonzero((b - a + e - c) % d == 0)
    assert np.array_equal(np.sort(layout.ravel()), charge0)
    # entry t = j d + k of the table sits where (b - a, a - e) = (j, k), and
    # row 0 (first index 0) is the table itself
    a, b, c, e = np.unravel_index(layout, (d,) * 4)
    j, k = np.divmod(np.arange(d * d), d)
    assert np.all((b - a) % d == j) and np.all((a - e) % d == k)
    assert not a[0].any()
    # row j = 0 of the twist table, the elliptic-cybe zeta terms, lands on
    # the diagonal blocks (i, i, i', i') at column k = i - i'
    a, b, c, e = (x[:, :d].ravel() for x in (a, b, c, e))
    assert len(a) == d * d and np.array_equal(a, b) and np.array_equal(c, e)
    assert np.array_equal(np.tile(np.arange(d), d), (a - c) % d)
    idx = _graded_slice(d)
    assert idx.shape == (6, d**4) and not idx[0].any()
    assert not ((idx[1] - idx[0] + idx[3] - idx[2] + idx[5] - idx[4]) % d).any()
    flat = np.ravel_multi_index(tuple(idx), (d,) * 6)
    assert np.all(np.diff(flat) > 0)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("legs_x,legs_y", LEG_PAIRS)
def test_graded_plan_scattered_to_dense_is_the_einsum(legs_x, legs_y, d):
    # the d^4 graded entries, shifted along the diagonal to all d^5 charge-0
    # entries, are the whole product: one multiplication per entry, so equal
    # to the einsum up to the rounding of one complex product
    rng = np.random.default_rng(10 * d + LEG_PAIRS.index((legs_x, legs_y)))
    x, y = heisenberg_tensor(rng, d), heisenberg_tensor(rng, d)
    table = _graded_layout(d)[0]
    px, py = _graded_plan(d, legs_x, legs_y)
    graded = x.reshape(-1)[table][px] * y.reshape(-1)[table][py]
    dense = np.zeros((d,) * 6, dtype=complex)
    idx = _graded_slice(d)
    for shift in range(d):
        dense[tuple((idx + shift) % d)] = graded
    reference = leg_product_einsum(MatrixTensor2(x), legs_x, MatrixTensor2(y), legs_y).coeffs
    bound = 4 * np.finfo(float).eps * np.abs(x).max() * np.abs(y).max()
    assert np.max(np.abs(dense - reference)) <= bound


@pytest.mark.parametrize(
    "legs_x,legs_y",
    [("12", "12"), ("13", "13"), ("21", "13"), ("12", "32"), ("", "")],
)
def test_leg_product_rejects_unsupported_legs(rng, legs_x, legs_y):
    x, y = random_tensor(rng, 2), random_tensor(rng, 2)
    with pytest.raises(ValueError):
        leg_product(x, legs_x, y, legs_y)


def test_embed_rejects_bad_legs(rng):
    with pytest.raises(ValueError):
        random_tensor(rng, 2).embed("21")


def test_as_map_action(rng):
    # The induced map is M -> sum tr(A M) B for r = A (x) B.
    a, b = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
    mat = from_pair(a, b).as_map()
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    out = (mat @ x.reshape(-1)).reshape(2, 2)
    assert np.max(np.abs(out - np.trace(a @ x) * b)) < 1e-12


def test_rank_as_map():
    ones = np.ones((2, 2))
    assert from_pair(ones, ones).rank_as_map() == 1
    # 1 (x) 1 induces M -> tr(M)*1, still rank one ...
    assert identity2(2).rank_as_map() == 1
    # ... while the Casimir sum e_ij (x) e_ji induces the identity map.
    for n in (2, 3):
        casimir = MatrixTensor2.zeros(n)
        for i in range(n):
            for j in range(n):
                casimir = casimir + from_pair(matrix_unit(n, i, j), matrix_unit(n, j, i))
        assert casimir.rank_as_map() == n * n
    assert MatrixTensor2.zeros(2).rank_as_map() == 0


def test_a_value_that_is_not_finite_has_rank_zero(rng):
    # the dense SVD does not converge on a NaN map; the DFT ranks of a twist
    # table read 0 there, and the dense path agrees
    stack = np.stack([random_tensor(rng, 2).coeffs for _ in range(4)])
    stack[1, 0, 1, 1, 0] = np.nan
    stack[2, 1, 1, 0, 0] = np.inf
    assert _ranks_as_maps(stack).tolist() == [4, 0, 0, 4]
    assert _ranks_as_maps(stack[1:3]).tolist() == [0, 0]
    assert _ranks_as_maps(stack[:0]).tolist() == []
    tables = rng.normal(size=(2, 3, 3)) + 0j
    tables[1, 2, 0] = np.nan
    assert _twist_ranks(tables).tolist() == [9, 0]


def test_rank_counts_independent_terms():
    e01 = matrix_unit(2, 0, 1)
    e10 = matrix_unit(2, 1, 0)
    t = from_pair(e01, e01) + from_pair(e10, e10)
    assert t.rank_as_map() == 2


def test_project_sl_kills_identity_legs(rng):
    x = random_tensor(rng, 2)
    p = x.project_sl()
    # both partial traces vanish after projection
    assert np.max(np.abs(np.einsum("iikl->kl", p.coeffs))) < 1e-13
    assert np.max(np.abs(np.einsum("ijkk->ij", p.coeffs))) < 1e-13
    # idempotent
    assert np.max(np.abs(p.project_sl().coeffs - p.coeffs)) < 1e-13


def test_norms(rng):
    x = random_tensor(rng, 2)
    assert x.max_abs() == pytest.approx(np.max(np.abs(x.coeffs)))
    assert x.frobenius() == pytest.approx(np.linalg.norm(x.coeffs))


def test_serialization_roundtrip(rng):
    x = random_tensor(rng, 3)
    back = MatrixTensor2.from_json(x.to_json())
    assert np.max(np.abs(back.coeffs - x.coeffs)) < 1e-15
    with pytest.raises(ValueError):
        MatrixTensor2.from_dict({"n": 2, "legs": 3, "coeffs": []})


def test_three_leg_shapes(rng):
    x = random_tensor(rng, 2).embed("12")
    assert isinstance(x, MatrixTensor3)
    assert x.coeffs.shape == (2,) * 6
    assert x.max_abs() >= 0.0
