"""Solution families: golden values, closed forms, domains, transforms.

Golden numbers below were frozen from the theta/Kronecker layer, which is
itself pinned against defining-series summation in test_special.py.
"""

import cmath
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import aybe.solutions
from aybe import bruteforce as bf
from aybe.bruteforce import eval_cybe_alt
from aybe.errors import DomainError, PoleProximityError
from aybe.series import extract_u_series
from aybe.solutions import (
    GaugeSpec,
    SolutionHandle,
    custom_handle,
    cybe_limit_of_aybe,
    elliptic_aybe,
    elliptic_cybe,
    equivalence_transform,
    eval_aybe,
    eval_aybe_array,
    eval_cybe,
    eval_cybe_array,
    handle_from_dict,
    handle_to_dict,
    in_domain,
    paired_cybe_handle,
    rho_theoretical,
    scalar_kronecker,
    scalar_rational,
    scalar_trig,
    trig_aybe,
    trig_cybe,
)
from aybe.special import kronecker_F, lattice_distance, modular_param
from aybe.tensors import identity2

from conftest import draw_disc


# ---------------------------------------------------------------------------
# golden regression values
# ---------------------------------------------------------------------------

def test_elliptic_d2_golden_entries():
    t = eval_aybe(elliptic_aybe(2, 1, 1j), 0.2, 0.3)
    assert t.coeffs[0, 0, 0, 0] == pytest.approx(-0.3249130629598267j, abs=1e-12)
    assert t.coeffs[0, 1, 1, 0] == pytest.approx(0.523535809157473j, abs=1e-12)
    assert t.coeffs[1, 1, 1, 1] == pytest.approx(-0.3249130629598267j, abs=1e-12)


def test_elliptic_d3_golden_entries():
    t31 = eval_aybe(elliptic_aybe(3, 1, 1j), 0.2, 0.3)
    t32 = eval_aybe(elliptic_aybe(3, 2, 1j), 0.2, 0.3)
    assert t31.coeffs[0, 0, 0, 0] == pytest.approx(-1.3763819080838278j, abs=1e-11)
    assert t32.coeffs[0, 0, 0, 0] == pytest.approx(-2.227032728823211j, abs=1e-11)
    # r = 1 and r = 2 are genuinely different solutions
    assert np.max(np.abs(t31.coeffs - t32.coeffs)) > 1.0


def test_elliptic_cybe_golden_entries():
    t = eval_cybe(elliptic_cybe(2, 1, 1j), 0.23)
    assert t.coeffs[0, 0, 0, 0] == pytest.approx(0.03112047172584463j, abs=1e-12)
    assert t.coeffs[0, 1, 1, 0] == pytest.approx(0.507686340704027j, abs=1e-12)


def test_trig_golden_entries():
    t1 = eval_aybe(trig_aybe(1), 0.31, -0.22)
    assert t1.coeffs[0, 0, 0, 0] == pytest.approx(7.815371609924392, abs=1e-12)
    assert t1.coeffs[1, 0, 0, 1] == pytest.approx(5.063773106920828, abs=1e-12)
    t2 = eval_aybe(trig_aybe(2), 0.31, -0.22)
    assert t2.coeffs[0, 0, 0, 0] == pytest.approx(1.312174603917264, abs=1e-12)
    assert t2.coeffs[1, 0, 1, 0] == pytest.approx(0.09003037807561698, abs=1e-12)
    c1 = eval_cybe(trig_cybe(1), 0.37)
    assert c1.coeffs[0, 0, 0, 0] == pytest.approx(-1.3667329565885284, abs=1e-12)
    c2 = eval_cybe(trig_cybe(2), 0.37)
    assert c2.coeffs[1, 0, 1, 0] == pytest.approx(0.37211415627556954, abs=1e-12)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_elliptic_d1_is_kronecker_with_negated_v(m_square):
    h = elliptic_aybe(1, 1, 1j)
    for u, v in [(0.2, 0.3), (0.13 + 0.07j, -0.22 + 0.11j)]:
        val = eval_aybe(h, u, v).coeffs[0, 0, 0, 0]
        assert abs(val - kronecker_F(u, -v, m_square)) < 1e-12


def test_scalar_kronecker_is_F(m_square):
    h = scalar_kronecker(1j)
    u, v = 0.21 - 0.06j, 0.17 + 0.12j
    val = eval_aybe(h, u, v).coeffs[0, 0, 0, 0]
    assert abs(val - kronecker_F(u, v, m_square)) < 1e-13


def test_scalar_trig_closed_form():
    h = scalar_trig()
    u, v = 0.4 + 0.1j, -0.7 + 0.2j
    val = eval_aybe(h, u, v).coeffs[0, 0, 0, 0]
    expected = (cmath.exp(u + v) - 1.0) / ((cmath.exp(u) - 1.0) * (cmath.exp(v) - 1.0))
    assert abs(val - expected) < 1e-13


def test_scalar_rational_closed_form():
    h = scalar_rational(2.0, -1.5j)
    val = eval_aybe(h, 0.5, 0.25).coeffs[0, 0, 0, 0]
    assert abs(val - (2.0 / 0.5 + (-1.5j) / 0.25)) < 1e-14


def test_trig1_coefficient_table():
    # at (u, v) = (ln 2, ln 3): lam = 2, mu = 3
    t = eval_aybe(trig_aybe(1), math.log(2.0), math.log(3.0))
    c = t.coeffs
    assert c[0, 0, 0, 0] == pytest.approx((3 - 2) / ((1 - 2) * (1 - 3)), abs=1e-12)
    assert c[1, 1, 1, 1] == pytest.approx(0.5, abs=1e-12)
    assert c[0, 0, 1, 1] == pytest.approx(-2 / (1 - 2), abs=1e-12)
    assert c[1, 1, 0, 0] == pytest.approx(-1 / (1 - 2), abs=1e-12)
    assert c[1, 0, 0, 1] == pytest.approx(1 / (1 - 3), abs=1e-12)
    assert c[0, 1, 1, 0] == pytest.approx(3 / (1 - 3), abs=1e-12)


def test_trig2_coefficient_table():
    u, v = math.log(2.0), math.log(3.0)
    t = eval_aybe(trig_aybe(2), u, v)
    c = t.coeffs
    k = (1 - 6) / ((1 - 2) * (1 - 3))
    assert c[0, 0, 0, 0] == pytest.approx(k, abs=1e-12)
    assert c[1, 1, 1, 1] == pytest.approx(k, abs=1e-12)
    assert c[0, 0, 1, 1] == pytest.approx(2 / (1 - 2), abs=1e-12)
    assert c[1, 1, 0, 0] == pytest.approx(1 / (1 - 2), abs=1e-12)
    assert c[1, 0, 0, 1] == pytest.approx(math.sqrt(3.0) / (1 - 3), abs=1e-12)
    assert c[0, 1, 1, 0] == pytest.approx(math.sqrt(3.0) / (1 - 3), abs=1e-12)
    assert c[1, 0, 1, 0] == pytest.approx(
        math.sqrt(6.0) - 1.0 / math.sqrt(6.0), abs=1e-12
    )


def test_trig_cybe_coefficient_table():
    v = math.log(2.0)
    c1 = eval_cybe(trig_cybe(1), v).coeffs
    assert c1[0, 0, 0, 0] == pytest.approx((1 + 2) / (4 * (1 - 2)), abs=1e-12)
    assert c1[1, 0, 0, 1] == pytest.approx(1 / (1 - 2), abs=1e-12)
    assert c1[0, 1, 1, 0] == pytest.approx(2 / (1 - 2), abs=1e-12)
    c2 = eval_cybe(trig_cybe(2), v).coeffs
    s = math.sqrt(2.0)
    assert c2[1, 0, 0, 1] == pytest.approx(s / (1 - 2), abs=1e-12)
    assert c2[1, 0, 1, 0] == pytest.approx(s - 1.0 / s, abs=1e-12)


# ---------------------------------------------------------------------------
# pole structure and domains
# ---------------------------------------------------------------------------

def test_u_pole_coefficient_matches_theory():
    handles = [
        elliptic_aybe(2, 1, 1j),
        elliptic_aybe(3, 1, 1j),
        trig_aybe(1),
        trig_aybe(2),
        scalar_kronecker(1j),
        scalar_trig(),
        scalar_rational(1.7, 0.4),
    ]
    for h in handles:
        rho = rho_theoretical(h)
        series = extract_u_series(h, 0.29, 0, radius=0.05)
        pole = series.coefficient(-1)
        if h.n == 1:
            gap = abs(complex(pole) - rho)
        else:
            gap = (pole - rho * identity2(h.n)).max_abs()
        assert gap < 1e-9 * max(1.0, abs(rho))


def test_in_domain_guards():
    h2 = elliptic_aybe(2, 1, 1j)
    # the d-refined half lattice is a genuine v-pole for d = 2
    assert not in_domain(h2, 0.1, 0.5)
    assert in_domain(h2, 0.1, 0.31)
    assert not in_domain(h2, 0.0, 0.31)
    t = trig_aybe(1)
    assert not in_domain(t, 2j * math.pi, 0.4)
    assert in_domain(t, 0.5, 0.4)
    k = scalar_kronecker(1j)
    assert not in_domain(k, 0.2, -0.2)  # u + v on the lattice
    assert in_domain(k, 0.2, 0.3)
    c = trig_cybe(1)
    assert not in_domain(c, None, 0.0)
    assert in_domain(c, None, 0.7)


def test_eval_on_pole_raises(m_square):
    with pytest.raises(Exception):
        eval_aybe(elliptic_aybe(1, 1, 1j), 1e-14, 0.3)


# ---------------------------------------------------------------------------
# elliptic families: one theta grid against the per-characteristic assembly
# ---------------------------------------------------------------------------

GRID_TAUS = (0.2 + 1.1j, 0.5 + 0.6j, -0.5 + 0.55j)


def _unit_handles(factory, d, tau):
    return [factory(d, r, tau) for r in range(1, max(d, 2)) if math.gcd(r, d) == 1]


def _rel_gap(value, reference):
    # the d = 1 CYBE tensor is 0 on both sides
    return np.max(np.abs(value - reference)) / max(np.max(np.abs(reference)), 1e-300)


@pytest.mark.parametrize("tau", GRID_TAUS)
@pytest.mark.parametrize("d", range(1, 8))
def test_elliptic_grid_matches_per_characteristic_assembly(d, tau):
    rng = np.random.default_rng(1000 * d + 7)
    for h, hc in zip(_unit_handles(elliptic_aybe, d, tau), _unit_handles(elliptic_cybe, d, tau)):
        count = 0
        while count < 20:
            u, v = draw_disc(rng, 0.4, 2)
            if not (in_domain(h, u, v) and in_domain(hc, None, v)):
                continue
            count += 1
            assert _rel_gap(eval_aybe(h, u, v).coeffs,
                            bf.eval_elliptic_aybe_per_char(h, u, v).coeffs) <= 1e-12
            assert _rel_gap(eval_cybe(hc, v).coeffs,
                            bf.eval_elliptic_cybe_per_char(hc, v).coeffs) <= 1e-12


def _edge_points(h, rng):
    """Points (u, v) of ``h`` at which a sum argument W + (m/d)*tau' of the
    twist grid lies within 1e-9 of an edge of the reduction cell, one
    coordinate on (-1/2, 1/2) set to +-1/2 + delta; W = U + V with
    U = d*r*u, V = -d*v, tau' = d*r*tau, and U = 0 on a CYBE handle."""
    d, r = h.d, h.r
    big_tau = d * r * h.tau
    points = []
    for m in range(d):
        # the four edges and the offsets 1e-10 and -1e-15 in turn
        edges = [(m % 2, (-0.5, 0.5)[m // 2 % 2], 1e-10), ((m + 1) % 2, 0.5, -1e-15)]
        for axis, edge, delta in edges:
            coords = rng.uniform(-0.45, 0.45, size=2)
            coords[axis] = edge + delta
            w = coords[0] + coords[1] * big_tau - m * big_tau / d
            big_u = 0.0 if h.is_cybe else complex(*rng.uniform(-0.3, 0.3, size=2))
            u, v = big_u / (d * r), -(w - big_u) / d
            if in_domain(h, None if h.is_cybe else u, v):
                points.append((u, v))
    return points


# the twist grid reduces the sums W + (m/d)*tau' and adds tau' for the pairs
# with j + k >= d: exact up to rounding at the cell edges, and at
# d*r*Im(tau) = 60, where the factor exp(-pi*i*tau') of each carry has
# modulus exp(60*pi)
EDGE_TAUS = (0.2 + 1.1j, "60")


@pytest.mark.parametrize("tau", EDGE_TAUS)
@pytest.mark.parametrize("d", range(1, 8))
def test_twist_tables_match_per_characteristic_at_cell_edges(d, tau):
    rng = np.random.default_rng(17 * d)
    for r in [r for r in range(1, max(d, 2)) if math.gcd(r, d) == 1]:
        t = complex(0.2, 60.0 / (d * r)) if tau == "60" else tau
        for h in (elliptic_aybe(d, r, t), elliptic_cybe(d, r, t)):
            points = _edge_points(h, rng)
            assert len(points) >= d
            for u, v in points:
                if h.is_cybe:
                    value, ref = eval_cybe(h, v), bf.eval_elliptic_cybe_per_char(h, v)
                else:
                    value, ref = eval_aybe(h, u, v), bf.eval_elliptic_aybe_per_char(h, u, v)
                assert _rel_gap(value.coeffs, ref.coeffs) <= 1e-12, (h, u, v)


def _twist_tensor(d, twist):
    # F_{j/d, k/d} at (i, i+j, i+j-k, i-k) for all i, j, k
    coeffs = np.zeros((d,) * 4, dtype=complex)
    for j in range(d):
        for k in range(d):
            val = twist(j, k)
            for i in range(d):
                coeffs[i, (i + j) % d, (i + j - k) % d, (i - k) % d] += val
    return coeffs


@pytest.mark.parametrize("d,r", [(1, 1), (2, 1), (3, 1), (3, 2)])
def test_elliptic_aybe_matches_characteristic_double_series(d, r):
    # the double series for F_pq converges for 0 < Im U, Im V < Im(tau')/d
    tau = 0.2 + 1.1j
    big_tau = d * r * tau
    h = elliptic_aybe(d, r, tau)
    for big_u, big_v in [(0.31 + 0.3j * r * tau.imag, -0.17 + 0.35j * r * tau.imag),
                         (-0.44 + 0.2j * r * tau.imag, 0.26 + 0.25j * r * tau.imag)]:
        ref = _twist_tensor(d, lambda j, k: bf.kronecker_char_series(
            Fraction(j, d), Fraction(k, d), big_u, big_v, big_tau))
        value = eval_aybe(h, big_u / (d * r), -big_v / d).coeffs
        assert _rel_gap(value, ref) <= 1e-10


@pytest.mark.parametrize("d,r", [(1, 1), (2, 1), (3, 2)])
def test_elliptic_cybe_matches_double_series_and_lattice_zeta(d, r):
    # F_{j/d, q} at u = 0 from the double series (it converges there for
    # j != 0), zeta from the extrapolated Eisenstein lattice sum
    tau = 0.2 + 1.1j
    big_tau = d * r * tau
    eta1 = bf.eta1_lattice_sum(big_tau)
    eta2 = eta1 * big_tau - 2j * math.pi
    big_v = 0.23 + 0.3j * r * tau.imag
    zetas = [bf.zeta_lattice_extrapolated(big_v + k * big_tau / d, big_tau) - k / d * eta2
             for k in range(d)]
    ref = _twist_tensor(d, lambda j, k: bf.kronecker_char_series(
        Fraction(j, d), Fraction(k, d), 0.0, big_v, big_tau) if j else 0.0)
    for i in range(d):
        for ip in range(d):
            ref[i, i, ip, ip] += (zetas[(i - ip) % d] - sum(zetas) / d) / (2j * math.pi)
    value = eval_cybe(elliptic_cybe(d, r, tau), -big_v / d).coeffs
    assert np.max(np.abs(value - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))


# Points where only a twisted argument meets the lattice Z + (d*r*tau)Z, with
# tau = 0.2+1.1i: plain u, v and u - v stay clear of Z + tau*Z.
POLE_TAU = 0.2 + 1.1j
TWISTED_POLES = [
    # U + (1/2)*tau' = 0 with U = 2u
    ("aybe", 2, 1, -POLE_TAU / 2, 0.3),
    # U + V + (1/3)*tau' = 0 with U + V = 3(u - v)
    ("aybe", 3, 1, 0.1 - POLE_TAU / 6, 0.1 + POLE_TAU / 6),
    # V + (1/2)*tau' = 0 with V = -2v
    ("cybe", 2, 1, None, POLE_TAU / 2),
    # V + (1/3)*tau' = 0 with V = -3v
    ("cybe", 3, 1, None, POLE_TAU / 3),
]


@pytest.mark.parametrize("kind,d,r,u,v", TWISTED_POLES)
def test_pole_guard_on_twisted_arguments(kind, d, r, u, v):
    m = modular_param(POLE_TAU)
    for z in [x for x in (u, v, None if u is None else u - v) if x is not None]:
        assert lattice_distance(z, m.tau) > 0.1
    if kind == "aybe":
        h = elliptic_aybe(d, r, POLE_TAU)
        evaluators = [lambda w: eval_aybe(h, u + w, v),
                      lambda w: bf.eval_elliptic_aybe_per_char(h, u + w, v)]
    else:
        h = elliptic_cybe(d, r, POLE_TAU)
        evaluators = [lambda w: eval_cybe(h, v + w), lambda w: bf.eval_elliptic_cybe_per_char(h, v + w)]
    # the shifted argument moves by d*r*w (or -d*w): inside and just outside
    # the 1e-6 guard, both assemblies agree on raising
    for fn in evaluators:
        for w in (0.0, 1e-8, 1e-7 * (1 + 1j)):
            with pytest.raises(PoleProximityError):
                fn(w)
        fn(1e-5)
        fn(2e-5j)


# ---------------------------------------------------------------------------
# alternative one-variable formula
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d,r", [(2, 1), (3, 1), (3, 2)])
def test_cybe_alt_formula_agrees(d, r, rng):
    h = elliptic_cybe(d, r, 1j)
    count = 0
    for v in draw_disc(rng, 0.35, 40):
        if not in_domain(h, None, v, guard=1e-2):
            continue
        gap = (eval_cybe(h, v) - eval_cybe_alt(h, v)).max_abs()
        scale = eval_cybe(h, v).max_abs()
        assert gap < 1e-9 * max(1.0, scale)
        count += 1
        if count == 10:
            break
    assert count == 10


DOMAIN_HANDLES = [
    elliptic_aybe(2, 1, 1j),
    elliptic_aybe(3, 2, 0.2 + 1.1j),
    elliptic_cybe(3, 1, 0.1 + 1.2j),
    trig_aybe(1),
    trig_aybe(2),
    trig_cybe(1),
    trig_cybe(2),
    scalar_kronecker(0.3 + 0.9j),
    scalar_trig(),
    scalar_rational(0.7 + 0.2j, -1.1),
    custom_handle(lambda u, v: identity2(2), 2),
    replace(elliptic_aybe(3, 2, 0.2 + 1.1j), rescale=(0.9j, 0.4, 1.2 + 0.3j, 0.7 - 0.1j)),
    replace(scalar_kronecker(0.2 + 1j), rescale=(1.0, 0.0, 0.8 - 0.3j, 1.7 + 0.4j)),
    replace(trig_aybe(1), rescale=(1.0, 0.0, 2.3 + 1.1j, 0.7 - 0.6j)),
]


@pytest.mark.parametrize("h", DOMAIN_HANDLES, ids=lambda h: h.family)
def test_domain_mask_decides_as_the_pointwise_reference(h):
    rng = np.random.default_rng(11)
    u = rng.uniform(-1, 1, (3, 40)) + 1j * rng.uniform(-1, 1, (3, 40))
    v = rng.uniform(-1, 1, (3, 40)) + 1j * rng.uniform(-1, 1, (3, 40))
    # exact poles and points a guard's width from them
    u[0, :4] = (0.0, 2j * math.pi, 1.0, 1e-3)
    v[0, 4:8] = (0.0, 0.5, -u[0, 6], 2j * math.pi + 1e-3)
    for guard in (1e-9, 1e-3, 0.1, 0.3):
        mask = aybe.solutions._domain_mask(h, u, v, guard)
        assert mask.shape == v.shape
        expected = [bf.in_domain_pointwise(h, complex(a), complex(b), guard)
                    for a, b in zip(u.ravel(), v.ravel())]
        assert mask.ravel().tolist() == expected
        assert in_domain(h, complex(u[0, 6]), complex(v[0, 6]), guard) == expected[6]


def test_domain_mask_rejects_non_finite_points_quietly():
    h = elliptic_aybe(2, 1, 1j)
    with np.errstate(all="raise"):
        mask = aybe.solutions._domain_mask(h, np.array([math.inf, 0.1, 0.1]),
                                           np.array([0.3, math.nan, 0.3]), 1e-9)
    assert mask.tolist() == [False, False, True]


@pytest.mark.parametrize("h", DOMAIN_HANDLES, ids=lambda h: h.family)
def test_non_finite_points_are_outside_every_domain(h):
    bad = (math.inf, -math.inf, complex(0.0, math.inf), complex(0.3, math.nan))
    u = np.array([0.2] * len(bad) + list(bad), dtype=complex)
    v = np.array(list(bad) + [0.3] * len(bad), dtype=complex)
    if h.is_cybe:
        u, v = u[:len(bad)], v[:len(bad)]
    with np.errstate(all="raise"):
        mask = aybe.solutions._domain_mask(h, u, v, 1e-3)
    assert not mask.any()
    for a, b in zip(u, v):
        assert not in_domain(h, None if h.is_cybe else complex(a), complex(b))
        assert not bf.in_domain_pointwise(h, complex(a), complex(b), 1e-3)


@pytest.mark.parametrize("h", [
    elliptic_aybe(2, 1, 1j),
    replace(elliptic_aybe(3, 2, 0.2 + 1.1j), rescale=(0.9j, 0.4, 1.2, 0.7 - 0.1j)),
    replace(scalar_kronecker(0.3 + 0.9j), rescale=(1.0, 0.0, 0.8 - 0.3j, 1.7 + 0.4j)),
    trig_aybe(1),
    scalar_rational(),
], ids=lambda h: h.family)
def test_u_circle_radii_are_bitwise_the_pointwise_gaps(h):
    _, _, c3, c4 = h.rescale

    def gap(vv):
        # the pointwise gaps of the family records, in Python arithmetic
        if h.family == "elliptic_aybe":
            return min(1.0, h.r * h.tau.imag, lattice_distance(h.d * vv, h.r * h.tau)) / (h.d * h.r)
        if h.family == "scalar_kronecker":
            return min(1.0, h.tau.imag, lattice_distance(vv, h.tau))
        return 2.0 * math.pi if h.family == "trig_aybe1" else 1.0

    rng = np.random.default_rng(3)
    v = rng.uniform(-1.5, 1.5, 500) + 1j * rng.uniform(-1.5, 1.5, 500)
    for share in (16.0, 50.0):
        radii = aybe.solutions._u_circle_radii(h, v, share)
        assert np.array_equal(radii, [gap(c4 * x) / (share * abs(c3)) for x in v.tolist()])


# ---------------------------------------------------------------------------
# u -> 0 limits
# ---------------------------------------------------------------------------

LIMIT_HANDLES = [
    elliptic_aybe(2, 1, 1j),
    elliptic_aybe(7, 3, 0.2 + 1.1j),
    trig_aybe(1),
    trig_aybe(2),
    replace(elliptic_aybe(3, 2, 0.2 + 1.1j), rescale=(0.9j, 0.4, 1.2, 0.7 - 0.1j)),
]


def _u_pole_gap(h, v):
    # distance R(v) from u = 0 to the nearest other u-pole
    _, _, c3, c4 = h.rescale
    gap = 2.0 * math.pi
    if h.family == "elliptic_aybe":
        gap = min(1.0, h.r * h.tau.imag, lattice_distance(h.d * c4 * v, h.r * h.tau)) / (h.d * h.r)
    return gap / abs(c3)


@pytest.mark.parametrize("h", LIMIT_HANDLES, ids=str)
def test_limit_matches_paired_cybe(h):
    # the limit of c1 exp(c2 u v) r(c3 u, c4 v) is c1 times the partner at c4 v
    c1, _, _, c4 = h.rescale
    partner = replace(paired_cybe_handle(h), rescale=(c1, 0.0, 1.0, c4))
    for v in (0.31, 0.27 + 0.06j):
        res = cybe_limit_of_aybe(h, v)
        target = eval_cybe(partner, v).project_sl()
        gap = (res.value - target).max_abs()
        assert gap < 1e-12 * max(1.0, target.max_abs())
        # the adaptive contour of the series module as an independent oracle
        contour = extract_u_series(h, v, order=0, radius=2.0 * res.radius).coefficient(0)
        gap = (res.value - contour.project_sl()).max_abs()
        assert gap < 1e-12 * max(1.0, target.max_abs())
        assert 0.0 < res.radius < _u_pole_gap(h, v)
        # the 4 even nodes miss the limit by about 50^-4 = 1.6e-7 relative
        assert math.isfinite(res.gap) and res.gap < 1e-6


@pytest.mark.parametrize(
    "h,v",
    [
        (scalar_trig(), 0.3),
        (custom_handle(lambda u, v: eval_aybe(trig_aybe(1), u, v), 2), 0.3),
        (elliptic_cybe(2, 1, 1j), 0.3),
        (equivalence_transform(
            trig_aybe(1), GaugeSpec(kind="callable", fn=lambda x, y: np.eye(2))
        ), 0.3),
        # on the polar locus of the CYBE partner
        (elliptic_aybe(2, 1, 1j), 0.5),
        (elliptic_aybe(3, 2, 0.2 + 1.1j), (0.2 + 1.1j) * 2 / 3),
        (trig_aybe(1), 2j * math.pi),
        (trig_aybe(2), 0.0),
    ],
    ids=lambda x: getattr(x, "family", str(x)),
)
def test_limit_rejects_families_without_pole_data_and_polar_v(h, v):
    with pytest.raises(DomainError):
        cybe_limit_of_aybe(h, v)


def test_paired_cybe_handle_rejects_scalars():
    with pytest.raises(DomainError):
        paired_cybe_handle(scalar_trig())


# ---------------------------------------------------------------------------
# transforms and serialization
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "h",
    [
        scalar_trig(),
        scalar_kronecker(0.5 + 0.9j),
        scalar_rational(0.7 + 0.2j, 1.3),
        replace(scalar_trig(), rescale=(1.3 + 0.1j, 0.2 - 0.1j, 0.8, 1.1)),
        equivalence_transform(scalar_kronecker(1j), GaugeSpec(kind="scalar_exp", c=0.3)),
        equivalence_transform(scalar_rational(), [[2.0 + 1.0j]]),
        equivalence_transform(
            scalar_trig(), GaugeSpec(kind="callable", fn=lambda x, y: np.eye(1))
        ),
        trig_aybe(1),
        elliptic_aybe(2, 1, 1j),
        custom_handle(lambda u, v: eval_aybe(scalar_trig(), v, u), 1),
    ],
    ids=lambda h: h.family,
)
def test_eval_aybe_array_matches_points(h, rng):
    # every family runs on arrays; custom handles and callable gauges call
    # their Python callable point by point
    u = draw_disc(rng, 0.4, 30)
    v = draw_disc(rng, 0.4, 30) + 0.05
    values = eval_aybe_array(h, u, v)
    assert values.shape == (30,) + (h.n,) * 4
    for k in range(30):
        point = eval_aybe(h, u[k], v[k]).coeffs
        assert np.max(np.abs(values[k] - point)) <= 1e-13 * max(np.max(np.abs(point)), 1.0)
    # broadcasting: one v against a column of u
    column = eval_aybe_array(h, u[:4, None], v[0])
    assert column.shape == (4,) + (h.n,) * 4
    points = np.stack([eval_aybe(h, u[k], v[0]).coeffs for k in range(4)])
    assert np.allclose(column, points, rtol=1e-13, atol=1e-13)


def _assert_rows_match_points(values, points):
    # each row equals its one-point evaluation to 1e-14 relative
    assert values.shape == points.shape
    for row, point in zip(values, points):
        assert np.max(np.abs(row - point)) <= 1e-14 * max(np.max(np.abs(point)), 1e-300)


@pytest.mark.parametrize("d", range(1, 8))
def test_batched_elliptic_evaluation_matches_pointwise(d):
    # one theta grid for all points against one call per point, every unit r
    rng = np.random.default_rng(50 + d)
    tau = 0.2 + 1.1j
    for h, hc in zip(_unit_handles(elliptic_aybe, d, tau), _unit_handles(elliptic_cybe, d, tau)):
        u = draw_disc(rng, 0.4, 12)
        v = draw_disc(rng, 0.4, 12) + 0.05
        _assert_rows_match_points(
            eval_aybe_array(h, u, v), np.stack([eval_aybe(h, a, b).coeffs for a, b in zip(u, v)])
        )
        _assert_rows_match_points(
            eval_cybe_array(hc, v), np.stack([eval_cybe(hc, b).coeffs for b in v])
        )


BATCH_TAU = 0.3 + 0.9j
GAUGE = np.array([[1.0, 0.3j], [-0.2, 1.1]])


@pytest.mark.parametrize(
    "h",
    [
        trig_aybe(1),
        trig_aybe(2),
        replace(trig_aybe(1), rescale=(1.3 + 0.1j, 0.2 - 0.1j, 0.8, 1.1)),
        equivalence_transform(trig_aybe(2), GAUGE),
        equivalence_transform(elliptic_aybe(3, 2, BATCH_TAU), GaugeSpec(kind="scalar_exp", c=0.3 - 0.1j)),
        replace(elliptic_aybe(2, 1, BATCH_TAU), rescale=(0.9j, 0.4, 1.2, 0.7 - 0.1j)),
        equivalence_transform(
            trig_aybe(1), GaugeSpec(kind="callable", fn=lambda x, y: np.eye(2) + 0.1 * x * GAUGE)
        ),
        trig_cybe(1),
        trig_cybe(2),
        replace(trig_cybe(1), rescale=(1.3 + 0.1j, 0.0, 1.0, 1.1)),
        equivalence_transform(trig_cybe(2), GAUGE),
        equivalence_transform(elliptic_cybe(3, 1, BATCH_TAU), np.diag([1.0, 2.0, 0.5j])),
    ],
    ids=lambda h: f"{h.family}-{h.gauge.kind if h.gauge else 'none'}-{h.rescale[0]}",
)
def test_batched_evaluation_with_transforms_matches_pointwise(h, rng):
    u = draw_disc(rng, 0.4, 16)
    v = draw_disc(rng, 0.4, 16) + 0.05
    if h.is_cybe:
        values = eval_cybe_array(h, v)
        points = np.stack([eval_cybe(h, b).coeffs for b in v])
    else:
        values = eval_aybe_array(h, u, v)
        points = np.stack([eval_aybe(h, a, b).coeffs for a, b in zip(u, v)])
    _assert_rows_match_points(values, points)


CONCAT_HANDLES = [
    elliptic_aybe(3, 2, BATCH_TAU),
    elliptic_aybe(7, 3, BATCH_TAU),
    elliptic_cybe(4, 3, BATCH_TAU),
    elliptic_cybe(7, 2, BATCH_TAU),
    trig_aybe(1),
    trig_aybe(2),
    trig_cybe(1),
    trig_cybe(2),
    scalar_kronecker(BATCH_TAU),
    scalar_trig(),
    scalar_rational(0.7 + 0.2j, 1.3),
    custom_handle(lambda u, v: eval_aybe(trig_aybe(1), u, v), 2),
    replace(elliptic_aybe(2, 1, BATCH_TAU), rescale=(0.9j, 0.4, 1.2, 0.7 - 0.1j)),
    equivalence_transform(elliptic_aybe(3, 2, BATCH_TAU), GaugeSpec(kind="scalar_exp", c=0.3)),
    equivalence_transform(elliptic_aybe(3, 1, BATCH_TAU), np.diag([1.0, 2.0, 0.5j]) + 0.1),
    equivalence_transform(elliptic_cybe(3, 1, BATCH_TAU), np.diag([1.0, 2.0, 0.5j])),
    equivalence_transform(
        trig_aybe(1), GaugeSpec(kind="callable", fn=lambda x, y: np.eye(2) + 0.1 * x * GAUGE)
    ),
]


def test_concatenation_handles_cover_every_family():
    assert {h.family for h in CONCAT_HANDLES} == set(aybe.solutions._FAMILIES)


@pytest.mark.parametrize(
    "h", CONCAT_HANDLES,
    ids=lambda h: f"{h.family}-{h.d}-{h.gauge.kind if h.gauge else 'none'}-{h.rescale[0]}",
)
def test_evaluation_of_a_concatenation_is_bitwise_the_separate_calls(h, rng):
    # a verify run evaluates the points of all its checks in one call, so
    # no point's value may depend on the other points of its call; 60
    # points cross the 2048 / n^2 points of a base call at n = 7
    u = draw_disc(rng, 0.4, 60)
    v = draw_disc(rng, 0.4, 60) + 0.05
    if h.is_cybe:
        def values(a, b):
            return eval_cybe_array(h, v[a:b])
    else:
        def values(a, b):
            return eval_aybe_array(h, u[a:b], v[a:b])
    parts = np.concatenate([values(a, b) for a, b in ((0, 1), (1, 17), (17, 60))])
    assert np.array_equal(values(0, 60), parts)


@pytest.mark.parametrize(
    "h", CONCAT_HANDLES,
    ids=lambda h: f"{h.family}-{h.d}-{h.gauge.kind if h.gauge else 'none'}-{h.rescale[0]}",
)
def test_every_family_evaluates_zero_points(h):
    empty = (0,) + (h.n,) * 4
    if h.is_cybe:
        assert eval_cybe_array(h, []).shape == empty
    else:
        assert eval_aybe_array(h, [], []).shape == empty
        assert eval_aybe_array(h, np.zeros((0, 16)), np.zeros((0, 1))).shape == empty


@pytest.mark.parametrize(
    "h", CONCAT_HANDLES,
    ids=lambda h: f"{h.family}-{h.d}-{h.gauge.kind if h.gauge else 'none'}-{h.rescale[0]}",
)
def test_every_family_evaluates_to_c_order(h):
    # what the checks compute from the values (their Frobenius norms read
    # them in memory order) must not depend on how a gauge laid them out
    v = np.array([0.11 + 0.05j, -0.2j, 0.3])
    values = eval_cybe_array(h, v) if h.is_cybe else eval_aybe_array(h, v[::-1] + 0.07, v)
    assert values.shape == (3,) + (h.n,) * 4
    assert values.flags.c_contiguous


@pytest.mark.parametrize(
    "h", [h for h in CONCAT_HANDLES if h.is_aybe],
    ids=lambda h: f"{h.family}-{h.d}-{h.gauge.kind if h.gauge else 'none'}-{h.rescale[0]}",
)
def test_a_v_column_is_bitwise_the_broadcast_points(h, rng):
    # the series contours pass v as a (rows, 1) column against (rows, 16)
    # nodes u: the family evaluates each row's v once, and the values are
    # those of the broadcast points, also where the rows of a call cross
    # the 2048 / n^2 points of a base call (n = 7: 41 points)
    u = draw_disc(rng, 0.3, 5 * 16).reshape(5, 16)
    v = (draw_disc(rng, 0.4, 5) + 0.05)[:, None]
    flat = eval_aybe_array(h, u.reshape(-1), np.repeat(v, 16))
    assert eval_aybe_array(h, u, v).tobytes() == flat.tobytes()


def test_rows_longer_than_a_base_call_are_bitwise_the_points():
    # a 64-node contour at d = 7 passes (3, 64) nodes u against a (3, 1)
    # column v: a row holds more than the 2048 / 49 = 41 points of a base
    # call, so the family evaluates the flattened points, in 41-point calls
    h = elliptic_aybe(7, 3, 0.2 + 1.1j)
    u = np.tile(0.05 * np.exp(2j * np.pi * np.arange(64) / 64), (3, 1))
    v = np.array([[0.11 + 0.05j], [-0.2j], [0.3]])
    values = eval_aybe_array(h, u, v)
    assert values.shape == (192,) + (7,) * 4
    rows = np.concatenate([eval_aybe_array(h, u[k], v[k]) for k in range(3)])
    points = np.concatenate([eval_aybe_array(h, a, b) for a, b in np.broadcast(u, v)])
    assert values.tobytes() == rows.tobytes() == points.tobytes()


def _first_error(fn, points):
    for p in points:
        try:
            fn(*p)
        except PoleProximityError as exc:
            return str(exc)
    raise AssertionError("no point raised")


@pytest.mark.parametrize(
    "h,bad",
    [
        # a v pole (V + tau'/2 = 0, V = -2v) before a twisted u pole (U = 2u)
        (elliptic_aybe(2, 1, BATCH_TAU), [(0.1, BATCH_TAU / 2), (-BATCH_TAU / 2, 0.3)]),
        # u on the lattice after u + v on it
        (scalar_kronecker(BATCH_TAU), [(0.2, -0.2), (1.0, 0.3)]),
        (elliptic_cybe(3, 1, BATCH_TAU), [(None, BATCH_TAU / 3), (None, 0.0)]),
    ],
    ids=lambda x: getattr(x, "family", ""),
)
def test_batch_pole_raises_first_offending_points_error(h, bad):
    good = [(0.11 + 0.05j, 0.23), (-0.17, 0.31 - 0.02j)]
    points = good + bad[:1] + good + bad[1:]
    if h.is_cybe:
        expected = _first_error(lambda u, v: eval_cybe(h, v), points)
        call = lambda: eval_cybe_array(h, [v for _, v in points])  # noqa: E731
    else:
        expected = _first_error(lambda u, v: eval_aybe(h, u, v), points)
        call = lambda: eval_aybe_array(h, *zip(*points))  # noqa: E731
    assert expected.startswith(("u = ", "v = ", "u+v = "))
    with pytest.raises(PoleProximityError) as info:
        call()
    assert str(info.value) == expected


def test_batch_overflow_and_zero_division_raise_like_python_arithmetic():
    # exp(800) overflows a float; 1 - exp(0) is an exact zero denominator
    with pytest.raises(OverflowError):
        eval_aybe_array(trig_aybe(1), [0.3, 800.0], [0.5, 0.5])
    with pytest.raises(OverflowError):
        eval_aybe(scalar_trig(), 800.0, 0.5)
    with pytest.raises(ZeroDivisionError):
        eval_aybe_array(trig_aybe(1), [0.3, 0.0], [0.5, 0.5])
    with pytest.raises(ZeroDivisionError):
        eval_cybe(trig_cybe(1), 0.0)


def test_eval_aybe_array_rejects_cybe_families():
    with pytest.raises(DomainError):
        eval_aybe_array(trig_cybe(1), np.array([0.1]), np.array([0.2]))


def test_constant_gauge_keeps_aybe(rng):
    from aybe.verify import aybe_residual

    g = np.array([[1.0, 0.3], [-0.2, 1.1]], dtype=complex)
    h = equivalence_transform(trig_aybe(1), g)
    res = aybe_residual(h, 0.31, -0.22, 0.41, 0.27)
    assert res.max_abs() < 1e-12


def test_scalar_exp_gauge_keeps_aybe():
    from aybe.verify import aybe_residual

    h = equivalence_transform(
        elliptic_aybe(2, 1, 1j), GaugeSpec(kind="scalar_exp", c=0.37 - 0.11j)
    )
    res = aybe_residual(h, 0.21, -0.12, 0.31, 0.17)
    assert res.max_abs() < 1e-12


def test_cybe_family_rejects_a_non_constant_gauge_before_evaluating(monkeypatch):
    h = equivalence_transform(elliptic_cybe(3, 1, 1j), GaugeSpec(kind="scalar_exp", c=0.3))
    calls = []
    monkeypatch.setattr(aybe.solutions, "_evaluate", lambda *args: calls.append(args))
    with pytest.raises(DomainError, match="only constant gauges apply to CYBE families"):
        eval_cybe_array(h, np.array([0.1, 0.2j]))
    assert calls == []


def test_equivalence_transform_validates():
    with pytest.raises(ValueError):
        equivalence_transform(trig_aybe(1), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        equivalence_transform(trig_aybe(1), np.eye(3))
    g = equivalence_transform(trig_aybe(1), np.eye(2))
    with pytest.raises(ValueError):
        equivalence_transform(g, np.eye(2))


def test_handle_serialization_roundtrip():
    handles = [
        elliptic_aybe(3, 2, 0.5 + 0.9j),
        equivalence_transform(trig_aybe(1), np.array([[1.0, 0.2], [0.0, 0.9]])),
        equivalence_transform(
            scalar_kronecker(2j), GaugeSpec(kind="scalar_exp", c=0.3j)
        ),
        scalar_rational(2.0, -0.5j),
    ]
    for h in handles:
        back = handle_from_dict(handle_to_dict(h))
        if h.is_cybe:
            gap = (eval_cybe(back, 0.37) - eval_cybe(h, 0.37)).max_abs()
        else:
            gap = (eval_aybe(back, 0.21, 0.33) - eval_aybe(h, 0.21, 0.33)).max_abs()
        assert gap < 1e-14


def test_custom_handles_not_serializable():
    h = custom_handle(lambda u, v: identity2(2), 2)
    with pytest.raises(ValueError):
        handle_to_dict(h)


def test_handle_validation():
    with pytest.raises(ValueError):
        elliptic_aybe(2, 2, 1j)  # gcd(r, d) != 1
    with pytest.raises(ValueError):
        elliptic_aybe(2, 1, -1j)  # lower half plane
    with pytest.raises(ValueError):
        trig_aybe(3)


@pytest.mark.parametrize(
    "h,n,two_variable",
    [
        (elliptic_aybe(3, 2, 1j), 3, True),
        (elliptic_cybe(2, 1, 1j), 2, False),
        (trig_aybe(2), 2, True),
        (trig_cybe(1), 2, False),
        (scalar_kronecker(1j), 1, True),
        (scalar_trig(), 1, True),
        (scalar_rational(), 1, True),
        (custom_handle(lambda u, v: identity2(3), 3), 3, True),
    ],
    ids=str,
)
def test_family_size_and_arity(h, n, two_variable):
    assert (h.n, h.is_aybe, h.is_cybe) == (n, two_variable, not two_variable)


@pytest.mark.parametrize(
    "fields",
    [
        {"family": "nope"},
        {"family": "custom"},  # no eval_fn
        {"family": "elliptic_cybe", "d": 0, "tau": 1j},
        {"family": "elliptic_cybe", "d": 2, "r": 4, "tau": 1j},
        {"family": "scalar_kronecker"},  # no tau
    ],
)
def test_handle_validation_by_family(fields):
    with pytest.raises(ValueError):
        SolutionHandle(**fields)


@pytest.mark.parametrize(
    "h", [trig_cybe(1), custom_handle(lambda u, v: identity2(2), 2)], ids=str
)
def test_families_without_pole_data(h):
    with pytest.raises(DomainError):
        rho_theoretical(h)
    with pytest.raises(DomainError):
        paired_cybe_handle(h)
