"""Tests for the nodal-curve residue/evaluation linear algebra.

The composite ev o Res^{-1} is always formed by a numeric linear solve;
these tests pin its values against independently coded closed forms and
against the trigonometric solution families evaluated at matching
log-parameters.
"""

import cmath
import math

import numpy as np
import pytest

from aybe.bruteforce import composite_columns
from aybe.curve import (
    BundleParams,
    LinearMap4,
    _map_stacks,
    aybe_handle_from_curve,
    composite_case1,
    composite_case2,
    composite_map,
    composite_stack,
    ev_map_case1,
    ev_map_case2,
    linear_map_from_tensor,
    residue_map_case1,
    residue_map_case2,
    tensor_from_linear_map,
    tensors_from_maps,
)
from aybe.errors import DomainError
from aybe.solutions import eval_aybe, trig_aybe
from aybe.tensors import MatrixTensor2, from_pair
from aybe.verify import aybe_residual, unitarity_residual

RNG_SEED = 20260814


def _cut_safe_params(rng, case):
    """Draw gluing/point data whose principal logs stay off the branch cut."""
    s = complex(rng.uniform(0.35, 1.2) * rng.choice([-1.0, 1.0]), rng.uniform(-1, 1))
    t = complex(rng.uniform(0.35, 1.2) * rng.choice([-1.0, 1.0]), rng.uniform(-1, 1))
    w1 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.8, 0.8))
    w2 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.8, 0.8))
    p = BundleParams(
        lambda1=cmath.exp(w1),
        lambda2=cmath.exp(w1 - s),
        y1=cmath.exp(w2),
        y2=cmath.exp(w2 - t),
        case=case,
    )
    return s, t, p


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_bundle_params_validation():
    with pytest.raises(DomainError):
        BundleParams(1.0, 1.0, 1.0, 2.0, case=3)
    with pytest.raises(DomainError):
        BundleParams(0.0, 1.0, 1.0, 2.0, case=1)
    with pytest.raises(DomainError):
        BundleParams(1.0, 1.0, 0.7, 0.7, case=2)
    with pytest.raises(DomainError):
        BundleParams(complex("inf"), 1.0, 1.0, 2.0, case=1)
    p = BundleParams(2.0, 4.0, 3.0, 6.0, case=1)
    assert p.lam == pytest.approx(0.5)
    assert p.mu == pytest.approx(0.5)


def test_linear_map4_validation():
    with pytest.raises(DomainError):
        LinearMap4(np.zeros((3, 3)))
    with pytest.raises(DomainError):
        LinearMap4(np.full((4, 4), np.nan))
    m = LinearMap4(np.eye(4))
    assert m.rank() == 4
    assert m.apply(np.array([[1.0, 2.0], [3.0, 4.0]])).tolist() == [[1, 2], [3, 4]]


# ---------------------------------------------------------------------------
# residue maps against independently coded closed forms
# ---------------------------------------------------------------------------


def test_residue_case1_matches_closed_form():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(6):
        l1, l2, y1, y2 = (
            complex(a, b) for a, b in rng.uniform(0.3, 1.5, (4, 2))
        )
        p = BundleParams(l1, l2, y1, y2, case=1)
        res = residue_map_case1(p)
        lam = l1 / l2
        for vec in (
            np.eye(4)[rng.integers(0, 4)],
            rng.standard_normal(4) + 1j * rng.standard_normal(4),
        ):
            a, b, c, d = vec
            expected = np.array([[d - a, l1 * c], [-b, lam * a - d]])
            np.testing.assert_allclose(res.apply(vec), expected, atol=1e-13)


def test_residue_case1_rank_degenerates_at_unit_ratio():
    generic = residue_map_case1(BundleParams(2.0, 1.0, 3.0, 1.0, case=1))
    assert generic.rank() == 4
    degenerate = residue_map_case1(BundleParams(1.0, 1.0, 3.0, 1.0, case=1))
    assert degenerate.rank() == 3


def test_residue_case1_independent_of_marked_points():
    p = BundleParams(1.7, 0.6, 3.0, 1.0, case=1)
    q = BundleParams(1.7, 0.6, 0.2 + 0.4j, 5.0, case=1)
    assert (residue_map_case1(p) - residue_map_case1(q)).max_abs() < 1e-15


def test_residue_case2_unit_parameters_pin():
    res = residue_map_case2(BundleParams(1.0, 1.0, 1.0, 2.0, case=2))
    image = res.apply(np.array([1.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(image, np.array([[1.0, 0.0], [0.0, -1.0]]), atol=1e-14)


def test_ev_case1_interpolation_identity():
    # The interpolation weights sum to one, so the evaluation map decomposes
    # as ev(vec) = B_0(vec) + w_inf * res(vec) with w_inf = y2 / (y2 - y1).
    p = BundleParams(1.3, 0.8, 2.0, 5.0, case=1)
    ev = ev_map_case1(p)
    res = residue_map_case1(p)
    w_inf = p.y2 / (p.y2 - p.y1)
    rng = np.random.default_rng(3)
    for _ in range(4):
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a, b, c, d = vec
        b_zero = np.array([[a, 0.0], [b, d]])
        expected = b_zero + w_inf * res.apply(vec)
        np.testing.assert_allclose(ev.apply(vec), expected, atol=1e-13)


# ---------------------------------------------------------------------------
# frozen composite matrices at integer parameters
# ---------------------------------------------------------------------------


def test_composite_case1_frozen_matrix():
    m = composite_case1(BundleParams(2.0, 1.0, 3.0, 1.0, case=1)).matrix
    expected = np.array(
        [
            [0.5, 0.0, 0.0, 1.0],
            [0.0, -0.5, 0.0, 0.0],
            [0.0, 0.0, -1.5, 0.0],
            [2.0, 0.0, 0.0, 0.5],
        ],
        dtype=complex,
    )
    np.testing.assert_allclose(m, expected, atol=1e-12)


def test_composite_case2_frozen_matrix():
    m = composite_case2(BundleParams(2.0, 1.0, 3.0, 1.0, case=2)).matrix
    s32 = math.sqrt(3.0) / 2.0
    s6 = math.sqrt(6.0) - 1.0 / math.sqrt(6.0)
    expected = np.array(
        [
            [-2.5, 0.0, 0.0, -1.0],
            [0.0, -s32, 0.0, 0.0],
            [0.0, s6, -s32, 0.0],
            [-2.0, 0.0, 0.0, -2.5],
        ],
        dtype=complex,
    )
    np.testing.assert_allclose(m, expected, atol=1e-12)


def test_composite_rank_full_at_generic_parameters():
    for case in (1, 2):
        m = composite_map(BundleParams(2.0, 1.0, 3.0, 1.0, case=case))
        assert m.rank() == 4


def test_composite_rejects_unit_gluing_ratio():
    with pytest.raises(DomainError):
        composite_case1(BundleParams(1.0, 1.0, 3.0, 1.0, case=1))
    with pytest.raises(DomainError):
        composite_case2(BundleParams(0.7, 0.7, 3.0, 1.0, case=2))


def test_unknown_trivialization_rejected():
    with pytest.raises(DomainError):
        composite_case2(BundleParams(2.0, 1.0, 3.0, 1.0, case=2), "fancy")


@pytest.mark.parametrize("case", [1, 2])
def test_unknown_trivialization_rejected_in_both_cases(case):
    # case 1 has no framing factor, but a misspelt name is still an error
    with pytest.raises(DomainError, match="unknown trivialization 'fancy'"):
        composite_stack(2.0, 1.0, 3.0, 1.0, case, "fancy")
    with pytest.raises(DomainError, match="unknown trivialization 'fancy'"):
        composite_map(BundleParams(2.0, 1.0, 3.0, 1.0, case), "fancy")
    with pytest.raises(DomainError, match="unknown trivialization 'fancy'"):
        aybe_handle_from_curve(case, "fancy")


# ---------------------------------------------------------------------------
# composites agree with the trigonometric families at log-parameters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", [1, 2])
def test_composite_matches_trig_family(case):
    rng = np.random.default_rng(RNG_SEED + case)
    handle = trig_aybe(case)
    for _ in range(10):
        s, t, p = _cut_safe_params(rng, case)
        tensor = tensor_from_linear_map(composite_map(p))
        reference = eval_aybe(handle, s, t)
        rel = (tensor - reference).max_abs() / reference.max_abs()
        assert rel < 1e-10


@pytest.mark.parametrize("case", [1, 2])
def test_composite_depends_only_on_ratios(case):
    rng = np.random.default_rng(RNG_SEED + 10 + case)
    for _ in range(5):
        s, t, p = _cut_safe_params(rng, case)
        g1 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5))
        g2 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5))
        q = BundleParams(
            p.lambda1 * cmath.exp(g1),
            p.lambda2 * cmath.exp(g1),
            p.y1 * cmath.exp(g2),
            p.y2 * cmath.exp(g2),
            case=case,
        )
        m1 = composite_map(p)
        m2 = composite_map(q)
        assert (m1 - m2).max_abs() / m1.max_abs() < 1e-12


def test_constant_trivialization_breaks_ratio_dependence():
    # Negative control: with the constant trivialization the composite picks
    # up an overall frame mismatch and is no longer a function of the ratios.
    rng = np.random.default_rng(5)
    deviations = []
    for _ in range(4):
        s = complex(rng.uniform(0.35, 1.2), rng.uniform(-1, 1))
        t = complex(-rng.uniform(0.35, 1.2), rng.uniform(-1, 1))
        g1 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5))
        g2 = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5))
        p = BundleParams(cmath.exp(s), 1.0, cmath.exp(t), 1.0, case=2)
        q = BundleParams(
            cmath.exp(s + g1), cmath.exp(g1), cmath.exp(t + g2), cmath.exp(g2), case=2
        )
        m1 = composite_map(p, "constant")
        m2 = composite_map(q, "constant")
        deviations.append((m1 - m2).max_abs() / m1.max_abs())
    assert max(deviations) > 1e-3


# ---------------------------------------------------------------------------
# trace-pairing dictionary
# ---------------------------------------------------------------------------


def test_dictionary_roundtrip():
    rng = np.random.default_rng(11)
    matrix = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = LinearMap4(matrix)
    back = linear_map_from_tensor(tensor_from_linear_map(m))
    assert (m - back).max_abs() < 1e-15


def test_dictionary_semantics_on_pure_tensor():
    # r = A (x) B induces X |-> tr(A X) B under the trace pairing.
    rng = np.random.default_rng(12)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    tensor = from_pair(a, b)
    m = linear_map_from_tensor(tensor)
    np.testing.assert_allclose(m.apply(x), np.trace(a @ x) * b, atol=1e-13)


def test_dictionary_rank_agrees_with_tensor_rank():
    m = composite_map(BundleParams(2.0, 1.0, 3.0, 1.0, case=1))
    tensor = tensor_from_linear_map(m)
    assert tensor.rank_as_map() == m.rank() == 4


def test_dictionary_rejects_wrong_leg_size():
    with pytest.raises(DomainError):
        linear_map_from_tensor(MatrixTensor2(np.zeros((3, 3, 3, 3), dtype=complex)))


# ---------------------------------------------------------------------------
# two-variable wrappers
# ---------------------------------------------------------------------------


def test_curve_handle_case1_solves_functional_equation():
    h = aybe_handle_from_curve(1)
    for (u, up, v, vp) in [(0.31, -0.22, 0.41, 0.27), (0.2, 0.4, -0.3, 0.25)]:
        residual = aybe_residual(h, u, up, v, vp)
        scale = eval_aybe(h, u, v).max_abs()
        assert residual.max_abs() / scale < 1e-9


def test_curve_handle_case2_has_honest_deviation():
    # The second composite family satisfies unitarity but not the quadratic
    # functional equation; record the deviation band rather than hiding it.
    h = aybe_handle_from_curve(2)
    rels = []
    for (u, up, v, vp) in [(0.31, -0.22, 0.41, 0.27), (0.6, -0.35, 0.5, 0.3)]:
        residual = aybe_residual(h, u, up, v, vp)
        scale = eval_aybe(h, u, v).max_abs()
        rels.append(residual.max_abs() / scale)
    assert all(1e-4 < r < 1.0 for r in rels)


@pytest.mark.parametrize("case", [1, 2])
def test_curve_handle_unitarity(case):
    h = aybe_handle_from_curve(case)
    for (u, v) in [(0.31, 0.27), (0.2, -0.33)]:
        assert unitarity_residual(h, u, v).max_abs() < 1e-12


def test_curve_handle_matches_trig_values():
    for case in (1, 2):
        h_curve = aybe_handle_from_curve(case)
        h_trig = trig_aybe(case)
        diff = eval_aybe(h_curve, 0.31, -0.22) - eval_aybe(h_trig, 0.31, -0.22)
        assert diff.max_abs() < 1e-12


def test_curve_handle_validates_case():
    with pytest.raises(DomainError):
        aybe_handle_from_curve(3)


# ---------------------------------------------------------------------------
# stacks against the column-by-column reference
# ---------------------------------------------------------------------------


def _cut_safe_stack(seed, case, n=50):
    rng = np.random.default_rng(seed)
    params = [_cut_safe_params(rng, case)[2] for _ in range(n)]
    names = ("lambda1", "lambda2", "y1", "y2")
    return params, [np.array([getattr(p, name) for p in params]) for name in names]


@pytest.mark.parametrize(
    "case,trivialization", [(1, "exp-sqrt"), (2, "exp-sqrt"), (2, "constant")]
)
def test_composite_stack_matches_column_reference(case, trivialization):
    params, arrays = _cut_safe_stack(RNG_SEED + 20 + case, case)
    stack = composite_stack(*arrays, case, trivialization)
    assert stack.shape == (50, 4, 4)
    for p, m in zip(params, stack):
        ref = composite_columns(p, trivialization)
        assert np.linalg.norm(m - ref) <= 1e-14 * np.linalg.norm(ref)


@pytest.mark.parametrize("case", [1, 2])
def test_one_sample_wrappers_equal_their_stack_rows(case):
    params, arrays = _cut_safe_stack(RNG_SEED + 30 + case, case, n=8)
    stack = composite_stack(*arrays, case)
    res, ev = _map_stacks(*arrays, case, "exp-sqrt")
    residue_map = residue_map_case1 if case == 1 else residue_map_case2
    ev_map = ev_map_case1 if case == 1 else ev_map_case2
    composite = composite_case1 if case == 1 else composite_case2
    tensors = tensors_from_maps(stack)
    for k, p in enumerate(params):
        assert np.array_equal(residue_map(p).matrix, res[k])
        assert np.array_equal(ev_map(p).matrix, ev[k])
        assert np.array_equal(composite(p).matrix, stack[k])
        assert np.array_equal(composite_map(p).matrix, stack[k])
        assert np.array_equal(tensor_from_linear_map(composite_map(p)).coeffs, tensors[k])


@pytest.mark.parametrize(
    "column,spoiled,message",
    [
        (1, lambda arrays, k: arrays[0][k], "residue map is singular"),
        (3, lambda arrays, k: arrays[2][k], "y1 and y2 must be distinct"),
        (0, lambda arrays, k: 0.0, "lambda1 must be nonzero"),
        (2, lambda arrays, k: np.nan, "y1 must be finite"),
    ],
    ids=["unit-ratio", "equal-points", "zero", "non-finite"],
)
def test_composite_stack_names_the_first_offending_sample(column, spoiled, message):
    _, arrays = _cut_safe_stack(RNG_SEED + 40, 1, n=6)
    for k in (3, 5):
        arrays[column][k] = spoiled(arrays, k)
    with pytest.raises(DomainError, match=f"^sample 3: {message}"):
        composite_stack(*arrays, 1)

