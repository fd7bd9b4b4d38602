"""Laurent data of scalar families: extraction, classification, identities."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

import aybe.series
from aybe.errors import DomainError, PoleProximityError
from aybe.series import (
    INFINITY,
    ScalarClassification,
    _contour_coefficients,
    check_aux4,
    check_aux5,
    check_r1_relation,
    check_reconstruction_chain,
    classify_scalar,
    extract_u_series,
    normalize_scalar_r0,
    scalar_r0,
    scalar_r0_derivative,
    scalar_r0_series,
    scalar_r1,
)
from aybe.solutions import (
    _u_circle_radii,
    custom_handle,
    elliptic_aybe,
    eval_aybe_array,
    scalar_kronecker,
    scalar_rational,
    scalar_trig,
    trig_aybe,
)
from aybe.special import modular_param, weierstrass_p, weierstrass_zeta
from aybe.tensors import MatrixTensor2

TWO_PI_I = 2j * math.pi
TRIG_POINT = -20.0 / 49.0

SCALARS = [
    scalar_kronecker(1j),
    scalar_kronecker(2j),
    scalar_trig(),
    scalar_rational(1.0, 1.0),
    scalar_rational(2.0, 3.0),
]


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def test_extract_radius_independence():
    h = scalar_kronecker(1j)
    s_a = extract_u_series(h, 0.31, 2, radius=0.05)
    s_b = extract_u_series(h, 0.31, 2, radius=0.025)
    gaps = [
        abs(complex(s_a.coefficient(k)) - complex(s_b.coefficient(k)))
        for k in range(-1, 3)
    ]
    assert max(gaps) < 1e-9


def test_scalar_r0_closed_forms(m_square):
    v = 0.37 - 0.12j
    assert abs(
        scalar_r0(scalar_trig(), v) - 0.5 / cmath.tanh(v / 2.0)
    ) < 1e-11
    assert abs(scalar_r0(scalar_rational(2.0, -0.7j), v) - (-0.7j) / v) < 1e-11
    # at v = 1.02 a fixed u-circle of radius 0.02 has the node u = -0.02,
    # where u + v sits on the lattice point 1; the circle of radius R(v)/16
    # keeps 15/16 of the distance to it
    for v in (0.37 - 0.12j, 1.02):
        zeta = weierstrass_zeta(v, m_square)
        expected = (zeta - v * m_square.eta1) / TWO_PI_I
        assert abs(scalar_r0(scalar_kronecker(1j), v) - expected) < 1e-11


def test_scalar_r1_rational_vanishes():
    for v in (0.3, 0.21 + 0.13j):
        assert abs(scalar_r1(scalar_rational(1.0, 1.0), v)) < 1e-11
        assert abs(scalar_r1(scalar_rational(2.0, 3.0), v)) < 1e-11


def test_matrix_families_rejected_by_scalar_extraction():
    with pytest.raises(DomainError):
        scalar_r0(elliptic_aybe(2, 1, 1j), 0.3)


def test_extract_u_series_matrix_pole(m_square):
    h = elliptic_aybe(2, 1, 1j)
    series = extract_u_series(h, 0.29, 1, radius=0.04)
    pole = series.coefficient(-1)
    assert isinstance(pole, MatrixTensor2)
    off = pole.coeffs[0, 1, 1, 0]
    assert abs(off) < 1e-10  # the u-pole is a multiple of 1 (x) 1


def test_normalize_scalar_r0_postconditions():
    for h in (scalar_kronecker(1j), scalar_trig(), scalar_rational(2.0, 3.0)):
        _, rescale = normalize_scalar_r0(h)
        hn = replace(h, rescale=rescale)
        series = scalar_r0_series(hn, 1, radius=0.05)
        assert abs(series.coefficient(-1) - 1.0) < 1e-10
        assert abs(series.coefficient(1)) < 1e-10


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_kronecker_square_lattice():
    # G6 vanishes on the square lattice, so C does too.
    result = classify_scalar(scalar_kronecker(1j))
    assert result.family_verdict == "elliptic-like"
    assert abs(result.c3 + 3.151212002153904) < 1e-8
    assert abs(result.C) < 1e-12


def test_classify_kronecker_tall_lattice():
    result = classify_scalar(scalar_kronecker(2j))
    assert result.family_verdict == "elliptic-like"
    assert abs(result.c3 + 2.16645825148081) < 1e-8
    assert abs(result.c5 + 2.0311095062610804) < 1e-8
    assert abs(result.C + 0.40570999248687883) < 1e-9


def test_classify_trig():
    result = classify_scalar(scalar_trig(), radius=1.5)
    assert result.family_verdict == "trigonometric-like"
    assert abs(result.c3 + 1.0 / 720.0) < 1e-12
    assert abs(result.c5 - 1.0 / 30240.0) < 1e-12
    assert abs(result.C - TRIG_POINT) < 1e-10
    # on the default 0.3 circle an error e in r0 is about e/0.3^5 in c5, and
    # the verdict must still find the trigonometric point
    result = classify_scalar(scalar_trig())
    assert result.family_verdict == "trigonometric-like"
    assert abs(result.C - TRIG_POINT) < 1e-8


def test_classify_rational():
    for h in (scalar_rational(1.0, 1.0), scalar_rational(2.0, 3.0)):
        result = classify_scalar(h)
        assert result.family_verdict == "rational-like"
        assert result.C is None
        assert abs(result.c3) < 1e-10
        assert abs(result.c5) < 1e-10


def test_classify_infinity_marker():
    # c3 = 0 with c5 != 0 marks the degenerate direction.
    def fn(u, v):
        val = 1.0 / u + 1.0 / v + 0.3 * v**5
        return MatrixTensor2(np.array(complex(val)).reshape(1, 1, 1, 1))

    result = classify_scalar(custom_handle(fn, 1))
    assert result.C == INFINITY


@pytest.mark.parametrize(
    "C,expected",
    [(0.25 - 0.5j, [0.25, -0.5]), (INFINITY, "infinity"), (None, None)],
    ids=["complex", "infinity", "none"],
)
def test_classification_to_dict(C, expected):
    result = ScalarClassification(c3=1.5 + 0.25j, c5=-2j, C=C, family_verdict="elliptic-like")
    assert result.to_dict() == {
        "c3": [1.5, 0.25], "c5": [0.0, -2.0], "C": expected, "family_verdict": "elliptic-like"
    }


@pytest.mark.parametrize(
    "h,clear,stray",
    [
        (scalar_trig(), 6.0, 6.5),  # poles +-2 pi i: c_-3
        (scalar_kronecker(0.1 + 0.8j), 0.79, 0.82),  # +-tau, |tau| = 0.806: c_-3
        (scalar_kronecker(1j), 0.95, 1.05),  # +-1, +-i: c_-5
        (scalar_kronecker(cmath.exp(1j * math.pi / 3)), 0.95, 1.05),  # hexagonal: c_-7
    ],
    ids=["scalar_trig", "kronecker_short_tau", "kronecker_square", "kronecker_hexagonal"],
)
def test_r0_series_rejects_a_circle_around_another_pole(h, clear, stray):
    # r0 is odd, so the poles +-p cancel in c_-2; the guard reads c_-7..c_-3
    series = scalar_r0_series(h, 5, radius=clear)
    assert abs(series.coefficient(-1) - scalar_r0_series(h, 5, radius=0.3).coefficient(-1)) < 1e-9
    with pytest.raises(PoleProximityError, match="holds another pole"):
        scalar_r0_series(h, 5, radius=stray)


def test_the_stray_pole_guard_adds_no_node(monkeypatch):
    points = []

    def counting(h, u, v):
        points.append(np.broadcast(u, v).size)
        return eval_aybe_array(h, u, v)

    monkeypatch.setattr(aybe.series, "eval_aybe_array", counting)
    classify_scalar(scalar_trig())
    # the 16-node estimate of c_-3 on the 0.3 circle holds the alias
    # c_5 * 0.3^8; in the agreement test it would double the outer circle
    assert len(points) <= 3 and sum(points) <= 288


@pytest.mark.parametrize("radius", [0.0, -0.3, math.nan, math.inf])
def test_r0_series_rejects_a_radius_before_evaluating(radius, monkeypatch):
    def no_evaluation(h, u, v):
        raise AssertionError("evaluated with an invalid radius")

    monkeypatch.setattr(aybe.series, "eval_aybe_array", no_evaluation)
    with pytest.raises(ValueError, match="positive and finite"):
        scalar_r0_series(scalar_trig(), 5, radius=radius)


def test_classify_rejects_matrix_families():
    with pytest.raises(DomainError):
        classify_scalar(elliptic_aybe(2, 1, 1j))


# ---------------------------------------------------------------------------
# Laurent-coefficient identities (normal form)
# ---------------------------------------------------------------------------

def test_r1_relation_all_scalars():
    pts = (0.31, 0.22 - 0.11j)
    for h in SCALARS:
        rep = check_r1_relation(h, pts)
        assert rep.passed, rep.summary_line()
        assert rep.max_abs_residual < 1e-10


def test_aux4_pinned_points():
    assert abs(check_aux4(scalar_kronecker(2j), 0.2, 0.35)) < 1e-8
    assert abs(check_aux4(scalar_trig(), 0.4j, 0.3)) < 1e-9
    assert abs(check_aux4(scalar_rational(1.0, 1.0), 0.3, 0.2)) < 1e-10


def test_aux4_requires_normal_form_internally():
    # The raw combination for coth(v/2)/2 equals 1/4 identically; the check
    # must normalize away the v-linear term to see zero.
    h = scalar_trig()
    v, vp = 0.25, 0.4
    r0 = lambda x: 0.5 / cmath.tanh(x / 2.0)
    r0p = lambda x: -0.25 / cmath.sinh(x / 2.0) ** 2
    raw = (r0(v) + r0(vp) - r0(v + vp)) ** 2 + r0p(v) + r0p(vp) + r0p(v + vp)
    assert abs(raw - 0.25) < 1e-12
    assert abs(check_aux4(h, v, vp)) < 1e-9


def test_aux5_matrix_and_scalar():
    res = check_aux5(elliptic_aybe(2, 1, 1j), 0.2, 0.31)
    assert res.max_abs() < 1e-7
    # for one-dimensional families the same residual is the scalar identity
    assert check_aux5(scalar_kronecker(1j), 0.2, 0.31).max_abs() < 1e-9
    assert check_aux5(elliptic_aybe(1, 1, 1j), 0.2, 0.31).max_abs() < 1e-9


def test_reconstruction_chain():
    pts = [(0.2, 0.31), (0.15, -0.23)]
    for h in (elliptic_aybe(2, 1, 1j), scalar_kronecker(1j), scalar_rational(1, 1)):
        rep = check_reconstruction_chain(h, pts)
        assert rep.tag == "reconstruction"
        assert rep.passed, rep.summary_line()


RECONSTRUCTION_PAIRS = [(0.2, 0.31), (0.15, -0.23), (0.1 + 0.1j, 0.25)]


@pytest.mark.parametrize(
    "h", [elliptic_aybe(2, 1, 1j), elliptic_aybe(3, 1, 1j), scalar_kronecker(1j), trig_aybe(1)],
    ids=lambda h: f"{h.family}-{h.n}",
)
def test_reconstruction_over_pairs_is_the_one_pair_calls(h):
    joint = check_reconstruction_chain(h, RECONSTRUCTION_PAIRS)
    alone = [check_reconstruction_chain(h, [p]) for p in RECONSTRUCTION_PAIRS]
    assert joint.points == tuple(RECONSTRUCTION_PAIRS)
    assert joint.max_abs_residual == max(rep.max_abs_residual for rep in alone)
    assert joint.max_rel_residual == max(rep.max_rel_residual for rep in alone)
    # every pair's residuals and scale, bit for bit
    hn = aybe.series.pole_normalized_handle(h)

    def relations(pairs):
        return aybe.series._reconstruction_from_coeffs(
            aybe.series._legged_coeffs(hn, pairs, 2, 0.04)
        )

    residuals, scale = relations(RECONSTRUCTION_PAIRS)
    for k, pair in enumerate(RECONSTRUCTION_PAIRS):
        one, one_scale = relations([pair])
        assert one_scale[0] == scale[k]
        assert all(np.array_equal(a[0], b[k]) for a, b in zip(one, residuals))


def test_matrix_relations_make_one_extraction_for_all_points(monkeypatch):
    # one for the pole normalization, one for every point of every pair
    calls = []
    contour = aybe.series._contour_coefficients

    def counting(*args, **kwargs):
        calls.append(args)
        return contour(*args, **kwargs)

    monkeypatch.setattr(aybe.series, "_contour_coefficients", counting)
    h = elliptic_aybe(2, 1, 1j)
    assert check_reconstruction_chain(h, RECONSTRUCTION_PAIRS).passed
    assert len(calls) == 2
    calls.clear()
    assert check_aux5(h, 0.2, 0.31).max_abs() < 1e-7
    assert len(calls) == 2


def test_reconstruction_without_pairs_passes_on_no_points():
    for h in (elliptic_aybe(2, 1, 1j), scalar_kronecker(1j)):
        rep = check_reconstruction_chain(h, [])
        assert rep.passed and rep.points == () and rep.max_rel_residual == 0.0


def test_r1_relation_and_r0_derivative_on_no_points():
    # an extraction with no rows returns no coefficients
    for h in (scalar_trig(), scalar_kronecker(1j)):
        rep = check_r1_relation(h, [])
        assert rep.passed and rep.points == () and rep.max_rel_residual == 0.0
        assert scalar_r0_derivative(h, []).shape == (0,)
        assert scalar_r0_derivative(h, np.zeros((0, 3))).shape == (0, 3)


# ---------------------------------------------------------------------------
# parity under the unitarity symmetry
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "h", [scalar_kronecker(1j), scalar_trig(), scalar_rational(1.0, 1.0)], ids=str
)
def test_r0_odd_r1_even(h):
    for v in (0.29, 0.17 + 0.21j):
        assert abs(scalar_r0(h, -v) + scalar_r0(h, v)) < 1e-9
        assert abs(scalar_r1(h, -v) - scalar_r1(h, v)) < 1e-9


# ---------------------------------------------------------------------------
# batched extraction
# ---------------------------------------------------------------------------

BATCH_V = np.array([0.31, 0.22 - 0.11j, -0.17 + 0.29j, 0.4j, 0.05 + 0.02j])


@pytest.mark.parametrize(
    "h", [scalar_kronecker(1j), scalar_trig(), scalar_rational(2.0, 3.0)], ids=str
)
@pytest.mark.parametrize("fn", [scalar_r0, scalar_r1, scalar_r0_derivative])
def test_array_coefficients_match_pointwise(h, fn):
    values = fn(h, BATCH_V)
    assert isinstance(values, np.ndarray) and values.shape == BATCH_V.shape
    for v, value in zip(BATCH_V, values):
        point = fn(h, complex(v))
        assert isinstance(point, complex)
        assert abs(value - point) <= 1e-13 * max(abs(point), 1.0)
    grid = fn(h, BATCH_V[:4].reshape(2, 2))
    assert grid.shape == (2, 2)
    assert np.allclose(grid.reshape(-1), values[:4], rtol=1e-13, atol=1e-13)


def test_rows_settle_at_the_node_count_of_a_lone_extraction():
    # row k is 1/(z - p_k) + 1/z on the unit circle; the nearer the pole p_k
    # outside it, the more nodes the row needs
    poles = np.array([1.5, 1.2, 1.1, 1.05 + 0.02j])
    radius = np.ones(poles.size)

    def fn(rows, z):
        return 1.0 / (z - poles[rows, None]) + 1.0 / z

    (batch,), nodes = _contour_coefficients(fn, [0], radius)
    assert len(set(nodes)) == poles.size
    assert np.allclose(batch, -1.0 / poles, rtol=1e-9)
    for k in range(poles.size):
        def lone(rows, z, k=k):
            return 1.0 / (z - poles[k]) + 1.0 / z

        (alone,), lone_nodes = _contour_coefficients(lone, [0], radius[k:k + 1])
        assert lone_nodes[0] == nodes[k]
        assert abs(alone[0] - batch[k]) <= 1e-13 * abs(alone[0])


def test_grid_point_near_the_lattice_raises():
    h = scalar_kronecker(1j)
    with pytest.raises(PoleProximityError):
        eval_aybe_array(h, np.array([0.1, 0.2, 1.0 - 0.25 + 1e-9]), 0.25)
    # at v = 1 + 1e-8 the zero u = -v + 1 is 1e-8 from u = 0, so every node
    # of the u-circle has u + v within the guard of the lattice point 1
    with pytest.raises(PoleProximityError):
        scalar_r0(h, np.array([0.3, 1.0 + 1e-8]))


def test_aux4_calls_the_array_entry_a_bounded_number_of_times(monkeypatch):
    calls = []

    def counting(h, u, v):
        calls.append(np.broadcast(u, v).size)
        return eval_aybe_array(h, u, v)

    monkeypatch.setattr(aybe.series, "eval_aybe_array", counting)
    assert abs(check_aux4(scalar_trig(), 0.4j, 0.3)) < 1e-9
    # the per-point extraction evaluated r at 148,416 points, one call each;
    # with 8 and 16 nodes in the first call, r0 and rho of the normal form
    # take two calls, and r0 and r0' at the three points three
    assert len(calls) <= 5
    assert sum(calls) <= 1104


def test_r1_calls_the_array_entry_a_bounded_number_of_times(monkeypatch):
    calls = []

    def counting(h, u, v):
        calls.append(np.broadcast(u, v).size)
        return eval_aybe_array(h, u, v)

    monkeypatch.setattr(aybe.series, "eval_aybe_array", counting)
    rep = check_r1_relation(scalar_trig(), (0.31,))
    assert rep.passed and rep.max_abs_residual < 1e-12
    # the normal form takes two calls, r0 and r1 one joint extraction, and
    # r0' a nested contour; one call per node count took 18 calls and 608
    # points
    assert len(calls) <= 5
    assert sum(calls) <= 560


@pytest.mark.parametrize(
    "h",
    [
        scalar_trig(),
        scalar_kronecker(0.6 + 1.1j),
        replace(scalar_kronecker(0.6 + 1.1j), rescale=(0.7, -0.3, 2.5, 0.9 + 0.2j)),
    ],
    ids=["scalar_trig", "scalar_kronecker", "rescaled"],
)
def test_joint_r0_r1_extraction_matches_one_power_at_a_time(h, monkeypatch):
    settled = []
    contour = aybe.series._contour_coefficients

    def recording(*args, **kwargs):
        coeffs, nodes = contour(*args, **kwargs)
        settled.append(nodes)
        return coeffs, nodes

    monkeypatch.setattr(aybe.series, "_contour_coefficients", recording)
    v = np.array([0.31, 0.22 - 0.11j, -0.17 + 0.29j, 0.4j, 1.02])
    r0, r1 = (c.reshape(v.shape) for c in aybe.series._u_coeffs(h, v, [0, 1]))
    (r0_alone,) = (c.reshape(v.shape) for c in aybe.series._u_coeffs(h, v, [0]))
    (r1_alone,) = (c.reshape(v.shape) for c in aybe.series._u_coeffs(h, v, [1]))
    assert np.array_equal(settled[0], settled[1])
    assert np.array_equal(settled[0], settled[2])
    assert np.all(np.abs(r0 - r0_alone) <= 1e-14 * np.maximum(np.abs(r0_alone), 1.0))
    # r1 = c_1 carries the rounding of the values, about 1/radius on the
    # circle, divided by the radius: compare it in the metric of the
    # agreement test, c_1 * radius against the size of the values
    radius = _u_circle_radii(h, v, 16.0)
    gap = np.abs(r1 - r1_alone) * radius
    assert np.all(gap <= 1e-14 * np.maximum(1.0, 1.0 / radius))


@pytest.mark.parametrize("v", [1.0, 1j, 1.0 + 1j])
def test_scalar_r0_names_a_lattice_v_as_the_pole(v):
    with pytest.raises(PoleProximityError, match=r"^v = .* of the lattice for tau = 1j$"):
        scalar_r0(scalar_kronecker(1j), v)


def test_classify_calls_the_array_entry_on_a_bounded_number_of_points(monkeypatch):
    points = []

    def counting(h, u, v):
        points.append(np.broadcast(u, v).size)
        return eval_aybe_array(h, u, v)

    monkeypatch.setattr(aybe.series, "eval_aybe_array", counting)
    assert abs(classify_scalar(scalar_kronecker(1j)).C) < 1e-12
    # 128 outer v-nodes x 128 inner u-nodes on fixed 0.02 circles evaluated
    # r at 16,512 points
    assert sum(points) <= 2048


def _kronecker_u_coeffs(h, vv):
    # F(u, v) = (1/u + L + u (L^2 - wp(v))/2 + ...) / (2 pi i), L = zeta(v) - eta1 v
    m = modular_param(h.tau)
    big_l = weierstrass_zeta(vv, m) - vv * m.eta1
    return big_l / TWO_PI_I, (big_l * big_l - weierstrass_p(vv, m)) / (2.0 * TWO_PI_I)


def _trig_u_coeffs(h, vv):
    # 1/(e^u - 1) + 1/(e^v - 1) + 1 = 1/u + coth(v/2)/2 + u/12 + ...
    return 0.5 / cmath.tanh(vv / 2.0), 1.0 / 12.0


@pytest.mark.parametrize("c3", [1.7, 24.0])
@pytest.mark.parametrize(
    "base,u_coeffs",
    [(scalar_trig(), _trig_u_coeffs), (scalar_kronecker(0.6 + 1.1j), _kronecker_u_coeffs)],
    ids=["scalar_trig", "scalar_kronecker"],
)
def test_rescaled_u_coefficients_match_closed_forms(base, u_coeffs, c3):
    # r(c3 u, c4 v) has the u^k coefficient c3^k a_k(c4 v); the u-circle is
    # R(c4 v)/(16 |c3|), and at c3 = 24 a radius not divided by |c3| would
    # hold the scalar_trig poles c3 u = +-2 pi i
    c4 = 0.8 - 0.1j
    h = replace(base, rescale=(1.0, 0.0, c3, c4))
    for v in (0.37 - 0.12j, 0.29 + 0.21j, 1.02):
        a0, a1 = u_coeffs(h, c4 * v)
        assert abs(scalar_r0(h, v) - a0) < 1e-11 * max(1.0, abs(a0))
        assert abs(scalar_r1(h, v) - c3 * a1) < 1e-11 * max(1.0, abs(c3 * a1))


def test_a_row_settling_at_16_nodes_makes_one_call():
    # a Laurent polynomial is exact on 8 nodes, so 8 and 16 agree at once
    calls = []

    def fn(rows, z):
        calls.append(z.shape)
        return 2.0 / z + 1.0 + 3.0 * z

    (c_m1, c0, c1), nodes = _contour_coefficients(fn, [-1, 0, 1], np.array([0.5, 2.0]))
    assert calls == [(2, 16)]
    assert list(nodes) == [16, 16]
    assert np.allclose(c_m1, 2.0) and np.allclose(c0, 1.0) and np.allclose(c1, 3.0)
