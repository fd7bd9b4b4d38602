"""Theta, Kronecker and Weierstrass layers against defining-series oracles.

Every comparison here pits the production path (lattice reduction +
truncated theta quotients) against a head-on summation of the defining
series from :mod:`aybe.bruteforce`; nothing is shared between the two.
The last tests pin the bits of the theta and twist kernels by digests.
"""

import cmath
import hashlib
import math

import numpy as np
import pytest

from aybe import bruteforce as bf
from aybe.bruteforce import (
    identity_eta2_isogeny,
    identity_F_zeta,
    identity_p_distribution,
    identity_zeta_distribution,
    identity_zeta_distribution_char,
    kronecker_weierstrass_limit,
)
from aybe.errors import DomainError, PoleProximityError
from aybe.special import (
    Characteristic,
    ModularParam,
    _kronecker_twist_grid,
    _lattice_distance_grid,
    _reduced_distance_grid,
    _split_lattice_grid,
    _sum_terms,
    _theta_grid_terms,
    _theta_raw_grid,
    eisenstein_G,
    j_invariant,
    kronecker_F,
    kronecker_F_char,
    lattice_distance,
    modular_param,
    theta11,
    weierstrass_p,
    weierstrass_zeta,
)

TWO_PI_I = 2j * math.pi

TAUS = (1j, 2j, 0.5 + 0.9j)

THETA_POINTS = (
    0.17 + 0.05j,
    -0.42 + 0.31j,
    0.8 - 0.13j,
    2.31 + 1.72j,   # forces a lattice reduction
    -1.6 + 0.95j,
)


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("u", THETA_POINTS)
def test_theta11_matches_defining_series(tau, u):
    m = modular_param(tau)
    direct = bf.theta11_series(u, tau, n_max=60)
    assert abs(theta11(u, m) - direct) < 1e-12 * max(1.0, abs(direct))


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("order", [1, 3])
def test_theta11_derivatives_match_series(tau, order):
    m = modular_param(tau)
    direct = bf.theta11_derivative_series(tau, order=order, n_max=60)
    assert abs(bf.theta11_derivative_at_zero(m, order) - direct) < 1e-11 * max(
        1.0, abs(direct)
    )


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("u", [0.23 + 0.11j, -0.37 + 0.41j])
def test_theta11_quasi_periodicity(tau, u):
    m = modular_param(tau)
    base = theta11(u, m)
    assert abs(theta11(u + 1.0, m) + base) < 1e-10 * max(1.0, abs(base))
    factor = -cmath.exp(-1j * math.pi * tau - TWO_PI_I * u)
    assert abs(theta11(u + tau, m) - factor * base) < 1e-10 * max(
        1.0, abs(factor * base)
    )


def test_theta11_is_odd(m_generic):
    u = 0.31 + 0.17j
    assert abs(theta11(-u, m_generic) + theta11(u, m_generic)) < 1e-12


@pytest.mark.parametrize("tau", TAUS)
def test_kronecker_F_matches_double_series(tau):
    # The double q-series converges only for 0 < Im(u), Im(v) < Im(tau).
    m = modular_param(tau)
    pts = [(0.13 + 0.21j, -0.29 + 0.33j), (-0.4 + 0.52j, 0.18 + 0.27j)]
    for u, v in pts:
        direct = bf.kronecker_double_series(u, v, tau, n_max=80)
        assert abs(kronecker_F(u, v, m) - direct) < 1e-9 * max(1.0, abs(direct))


def test_kronecker_F_char_matches_series(m_tall):
    from fractions import Fraction

    char = Characteristic.of(Fraction(1, 2), Fraction(1, 3))
    u, v = 0.21 + 0.31j, -0.17 + 0.43j
    direct = bf.kronecker_char_series(0.5, Fraction(1, 3), u, v, 2j, n_max=80)
    assert abs(kronecker_F_char(char, u, v, m_tall) - direct) < 1e-9


def test_kronecker_F_char_is_periodic_in_characteristic(m_square):
    from fractions import Fraction

    u, v = 0.19 + 0.07j, 0.23 - 0.11j
    base = kronecker_F_char(Characteristic.of(Fraction(1, 3), Fraction(1, 4)), u, v, m_square)
    shifted = kronecker_F_char(
        Characteristic.of(Fraction(4, 3), Fraction(5, 4)), u, v, m_square
    )
    assert abs(base - shifted) < 1e-12 * max(1.0, abs(base))


def test_kronecker_F_pole_guard(m_square):
    # the message names the argument that is on the lattice
    for u, v, guard, label in [
        (1e-12, 0.3, 1e-6, "u"),
        (0.3, 1.0 + 1j + 1e-9, 1e-6, "v"),
        (0.3 + 0.1j, 0.7 - 1.1j, 1e-6, "u\\+v"),
        (0.3, 0.2, 0.6, "u"),  # every argument is within 0.6; u is named first
    ]:
        with pytest.raises(PoleProximityError, match=f"^{label} = "):
            kronecker_F(u, v, m_square, guard=guard)


@pytest.mark.parametrize("fn", [weierstrass_zeta, weierstrass_p])
@pytest.mark.parametrize("x", [1e-12, -1.0 + 2j + 1e-9j], ids=["origin", "-1+2i"])
def test_weierstrass_pole_guard(fn, x, m_square):
    with pytest.raises(PoleProximityError, match="^x = "):
        fn(x, m_square)


@pytest.mark.parametrize("height", [15, 20, 30])
@pytest.mark.parametrize("tau", [1j, 0.5 + 0.9j])
def test_kronecker_F_quasi_periodic_far_from_real_axis(tau, height):
    # F(u + tau, v) = exp(-2*pi*i*v) F(u, v); the theta factors of F grow
    # like exp(pi*b^2*Im tau) and overflowed separately at Im u ~ 20*Im tau
    m = modular_param(tau)
    u = 0.1 + 0.2 * tau.real + 1j * height * tau.imag
    v = 0.23 + 0.05j
    base = kronecker_F(u, v, m)
    shifted = kronecker_F(u + tau, v, m)
    expected = cmath.exp(-TWO_PI_I * v) * base
    assert cmath.isfinite(base)
    assert abs(shifted - expected) < 1e-10 * abs(expected)


def test_kronecker_F_finite_at_im_u_15(m_square):
    value = kronecker_F(0.1 + 15j, 0.23 + 0.05j, m_square)
    # 15 shifts by tau multiply F(0.1, v) by exp(-2*pi*i*15*v)
    expected = cmath.exp(-TWO_PI_I * 15 * (0.23 + 0.05j)) * kronecker_F(
        0.1, 0.23 + 0.05j, m_square
    )
    assert abs(value - expected) < 1e-10 * abs(expected)


def test_kronecker_F_on_arrays_matches_points(m_generic):
    u = np.array([0.17 + 0.05j, -0.42 + 0.31j, 2.31 + 1.72j, 0.3 - 9.5j])
    v = np.array([0.23 - 0.11j, 0.1 + 0.4j, -1.6 + 0.95j, 0.21])
    values = kronecker_F(u, v, m_generic)
    assert values.shape == (4,)
    for k in range(4):
        point = kronecker_F(complex(u[k]), complex(v[k]), m_generic)
        assert abs(values[k] - point) < 1e-13 * abs(point)
    # one v broadcast against many u
    row = kronecker_F(u, 0.23 - 0.11j, m_generic)
    assert abs(row[0] - values[0]) < 1e-13 * abs(values[0])


def test_kronecker_F_on_arrays_keeps_the_broadcast_shape(m_generic):
    # one path for points and arrays: the d = 1 twist grid, which sums a v
    # column once per row and returns the broadcast shape, also with no point
    u = np.array([[0.17 + 0.05j, -0.42 + 0.31j, 0.3 - 9.5j]] * 2) + np.array([[0.0], [0.1]])
    v = np.array([[0.23 - 0.11j], [2.31 + 1.72j]])
    values = kronecker_F(u, v, m_generic)
    assert values.shape == (2, 3)
    flat = kronecker_F(u.reshape(-1), np.repeat(v, 3), m_generic)
    assert values.reshape(-1).tobytes() == flat.tobytes()
    for i, j in np.ndindex(2, 3):
        assert values[i, j] == kronecker_F(complex(u[i, j]), complex(v[i, 0]), m_generic)
    assert kronecker_F(np.array([]), 0.25, m_generic).shape == (0,)
    assert kronecker_F(np.zeros((0, 3)), np.zeros((0, 1)), m_generic).shape == (0, 3)
    # a v with no u to pair with is no point, so neither a pole nor an error
    assert kronecker_F(np.zeros((0, 3)), np.array([[0.0], [np.inf]])[:, None], m_generic).shape == (2, 0, 3)


def test_kronecker_F_array_pole_guard(m_square):
    u = np.array([0.3, 0.2 + 0.1j, 1.0 + 1j + 1e-9])
    with pytest.raises(PoleProximityError, match="u = "):
        kronecker_F(u, 0.25, m_square)
    with pytest.raises(PoleProximityError, match="u\\+v = "):
        kronecker_F(np.array([0.3, 0.4]), np.array([0.2, -0.4 + 2j]), m_square)
    with pytest.raises(PoleProximityError):
        kronecker_F(np.array([0.3, 0.4]), 0.2, m_square, guard=0.6)
    with pytest.raises(ValueError):
        kronecker_F(np.array([0.3, np.inf]), 0.2, m_square)


def test_kronecker_F_symmetry(m_generic):
    u, v = 0.27 + 0.13j, -0.19 + 0.21j
    assert abs(
        kronecker_F(u, v, m_generic) - kronecker_F(v, u, m_generic)
    ) < 1e-13


@pytest.mark.parametrize("tau", TAUS)
def test_weierstrass_zeta_matches_lattice_sum(tau):
    m = modular_param(tau)
    for x in (0.23 + 0.11j, -0.31 + 0.29j):
        direct = bf.zeta_lattice_extrapolated(x, tau)
        assert abs(weierstrass_zeta(x, m) - direct) < 1e-9 * max(1.0, abs(direct))


@pytest.mark.parametrize("tau", TAUS)
def test_weierstrass_p_matches_lattice_sum(tau):
    # The box sums carry a c2/M^2 + c3/M^3 truncation bias; solving it out
    # through three box sizes leaves ~1e-10 of defining-series truth.
    m = modular_param(tau)
    sizes = (80, 160, 320)
    rows = np.array([[1.0, 1.0 / s**2, 1.0 / s**3] for s in sizes], dtype=complex)
    for x in (0.23 + 0.11j, 0.4 - 0.17j):
        sums = np.array([bf.wp_lattice_sum(x, tau, s) for s in sizes])
        direct = np.linalg.solve(rows, sums)[0]
        assert abs(weierstrass_p(x, m) - direct) < 1e-9 * max(1.0, abs(direct))


def test_weierstrass_p_is_minus_zeta_derivative(m_square):
    x, step = 0.29 + 0.13j, 1e-5
    num = (
        weierstrass_zeta(x + step, m_square) - weierstrass_zeta(x - step, m_square)
    ) / (2.0 * step)
    assert abs(num + weierstrass_p(x, m_square)) < 1e-6


def test_kronecker_weierstrass_limit(m_square, m_generic):
    # The finite part of 2*pi*i*F(x, y) at x = 0 is zeta(y) - y*eta1; the
    # residual of the probe is O(x), so check smallness and the linear rate.
    for m in (m_square, m_generic):
        res_small = abs(kronecker_weierstrass_limit(0.4 - 0.21j, m, x=1e-5))
        res_large = abs(kronecker_weierstrass_limit(0.4 - 0.21j, m, x=1e-3))
        assert res_small < 1e-4
        assert res_large / res_small == pytest.approx(100.0, rel=0.05)


@pytest.mark.parametrize("tau", TAUS)
def test_eta1_matches_lattice_sum(tau):
    # Independent route to eta1; the Legendre relation then transfers the
    # agreement to eta2.
    m = modular_param(tau)
    assert abs(m.eta1 - bf.eta1_lattice_sum(tau)) < 1e-10


@pytest.mark.parametrize("tau", TAUS)
def test_legendre_relation(tau):
    m = modular_param(tau)
    assert abs(m.eta1 * tau - m.eta2 - TWO_PI_I) < 1e-10


@pytest.mark.parametrize("tau", TAUS)
def test_eisenstein_matches_lattice_sums(tau):
    # g2 = 320*pi^4*G4 and g3 = -(448/3)*pi^6*G6 in the q-series
    # normalization with constant terms 1/240 and -1/504.  The box-
    # truncated weight-4 sum converges slowly, hence the loose bound.
    m = modular_param(tau)
    g2 = bf.g2_lattice_sum(tau)
    g3 = bf.g3_lattice_sum(tau)
    assert abs(g2 - 320.0 * math.pi**4 * eisenstein_G(4, m)) < 1e-3 * max(
        1.0, abs(g2)
    )
    assert abs(g3 + (448.0 / 3.0) * math.pi**6 * eisenstein_G(6, m)) < 1e-7 * max(
        1.0, abs(g3)
    )


def test_eisenstein_constant_terms():
    # Large Im(tau) kills every q-power, leaving the rational constants.
    m = modular_param(50j)
    assert abs(eisenstein_G(4, m) - 1.0 / 240.0) < 1e-15
    assert abs(eisenstein_G(6, m) + 1.0 / 504.0) < 1e-15


def test_eisenstein_G6_vanishes_at_square_lattice(m_square):
    assert abs(eisenstein_G(6, m_square)) < 1e-15


def test_j_invariant_special_values(m_square, m_tall):
    assert abs(j_invariant(m_square) - 1728.0) < 1e-6
    assert abs(j_invariant(m_tall) - 66.0**3) < 1e-6 * 66.0**3


@pytest.mark.parametrize(
    "tau",
    [1j, 2j, 0.5 + 0.9j, 0.1 + 0.6j, 0.1 + 5j, 0.1 + 7j, 7j, 0.1 + 8j, 10j, 30j, 0.45 + 0.3j],
)
def test_j_invariant_matches_mpmath_without_cancellation(tau):
    # g2^3 - 27 g3^2 cancelled to a wrong value at 0.1+7i and to 0 at 7i;
    # Jacobi's product for the discriminant does not cancel
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        ref = complex(1728 * mpmath.kleinj(mpmath.mpc(tau.real, tau.imag)))
    assert abs(j_invariant(modular_param(tau)) - ref) <= 1e-12 * abs(ref)


def test_j_invariant_refuses_a_q_that_underflows():
    assert modular_param(120j).q == 0
    with pytest.raises(ValueError, match="underflows to 0"):
        j_invariant(modular_param(120j))


def test_lattice_distance_reduction():
    assert lattice_distance(3.0 + 2.0 * (0.5 + 0.9j), 0.5 + 0.9j) < 1e-12
    assert lattice_distance(0.5, 1j) == pytest.approx(0.5)


@pytest.mark.parametrize(
    "tau", [1j, 2j, 0.5 + 0.9j, 0.2 + 1.1j, -0.45 + 0.6j, 0.01j, 3 + 2j, 0.1 + 0.05j]
)
def test_array_lattice_distance_is_bitwise_the_scalar_one(tau):
    rng = np.random.default_rng(7)
    x = rng.uniform(-4, 4, 2000) + 1j * rng.uniform(-4, 4, 2000) * tau.imag
    x[:4] = (0.0, tau, 0.5 + 0.5 * tau, -1.5 * tau)  # on the lattice and on cell edges
    fast = _lattice_distance_grid(x.reshape(40, 50), tau).ravel()
    slow = np.array([lattice_distance(complex(z), tau) for z in x])
    assert np.array_equal(fast, slow)
    # the reduced points of the Kronecker guards give the same distances
    x0 = _split_lattice_grid(x, tau)[0]
    assert np.array_equal(_reduced_distance_grid(x0, tau), slow)


@pytest.mark.parametrize("tau", [0.02j, 0.015j, 0.01j, 0.005j])
def test_from_tau_raises_domain_error_when_theta_prime_is_cancellation_noise(tau):
    # the theta series sums theta11'(0) to rounding noise of 3.6e-15 to
    # 2.1e-14 here, against a true 1.9e-14 at 0.02i, 6.2e-20 at 0.015i,
    # 4.9e-31 at 0.01i and 1.1e-64 at 0.005i
    with pytest.raises(DomainError, match="theta11'"):
        ModularParam.from_tau(tau)


@pytest.mark.parametrize("tau", [0.05j, 0.03j, 0.3 + 0.01j])
def test_from_tau_keeps_theta_prime_above_the_rounding_bound(tau):
    m = ModularParam.from_tau(tau)
    if tau.real == 0:
        # 2*pi*eta(tau)^3 by the modular transform, 2*pi t^(-3/2) e^(-pi/(4t))
        t = tau.imag
        exact = 2 * math.pi * t**-1.5 * math.exp(-math.pi / (4 * t))
        assert abs(m.theta_prime0 - 1j * exact) < 1e-5 * exact


IDENTITY_DS = (2, 3, 5)


@pytest.mark.parametrize("d", IDENTITY_DS)
@pytest.mark.parametrize("tau", TAUS)
def test_zeta_distribution_identity(d, tau, rng):
    from conftest import draw_disc

    m = modular_param(tau)
    count = 0
    for x in draw_disc(rng, 0.35, 40):
        if lattice_distance(d * x, d * tau) < 1e-2:
            continue
        if min(lattice_distance(x - k / d, tau) for k in range(d)) < 1e-2:
            continue
        assert abs(identity_zeta_distribution(d, x, m)) < 1e-8
        count += 1
        if count == 10:
            break
    assert count == 10


@pytest.mark.parametrize("d", IDENTITY_DS)
def test_zeta_distribution_identity_with_characteristic(d, m_generic, rng):
    from conftest import draw_disc

    count = 0
    for x in draw_disc(rng, 0.3, 40):
        try:
            res = identity_zeta_distribution_char(d, 1, x, m_generic)
        except PoleProximityError:
            continue
        assert abs(res) < 1e-8
        count += 1
        if count == 10:
            break
    assert count == 10


@pytest.mark.parametrize("d", IDENTITY_DS)
@pytest.mark.parametrize("tau", TAUS)
def test_p_distribution_identity(d, tau, rng):
    from conftest import draw_disc

    m = modular_param(tau)
    count = 0
    for x in draw_disc(rng, 0.3, 40):
        try:
            res = identity_p_distribution(d, x, m)
        except PoleProximityError:
            continue
        assert abs(res) < 1e-8
        count += 1
        if count == 10:
            break
    assert count == 10


@pytest.mark.parametrize("d", IDENTITY_DS)
@pytest.mark.parametrize("tau", TAUS)
def test_eta2_isogeny_identity(d, tau):
    assert abs(identity_eta2_isogeny(d, modular_param(tau))) < 1e-10


@pytest.mark.parametrize("d,k,ell", [(2, 1, 0), (2, 1, 1), (3, 1, 2), (3, 2, 1), (5, 2, 3)])
def test_F_zeta_expansion_identity(d, k, ell, m_square, rng):
    from conftest import draw_disc

    count = 0
    for x in draw_disc(rng, 0.3, 60):
        try:
            res = identity_F_zeta(d, k, ell, x, m_square)
        except PoleProximityError:
            continue
        assert abs(res) < 1e-8
        count += 1
        if count == 10:
            break
    assert count == 10


def test_sum_terms_is_bitwise_numpys_contiguous_sum():
    # numpy's pairwise sum splits a contiguous axis of more than 64 complex
    # terms in two halves, as the > 64-term branch does
    rng = np.random.default_rng(17)
    for count in range(4, 400):
        terms = rng.normal(size=(count, 3)) + 1j * rng.normal(size=(count, 3))
        total = _sum_terms(terms)
        assert np.array_equal(total.view(float), np.ascontiguousarray(terms.T).sum(axis=1).view(float))


# ---------------------------------------------------------------------------
# the kernels' bits: sha256 digests (first 16 hex digits) of the outputs at
# seeded points, frozen from the implementation that summed theta with the
# term index innermost.  A change that keeps every operand and operation
# order keeps them; one that does not must list its changed digits.
# ---------------------------------------------------------------------------

def _digest(arrays) -> str:
    return hashlib.sha256(b"".join(np.asarray(a).tobytes() for a in arrays)).hexdigest()[:16]


def _kernel_points(tau: complex, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.5, 1.5, count) + rng.uniform(-1.5, 1.5, count) * tau


# tau, its number of theta terms K, and the digests at orders (0,), (0, 1), (1, 3)
THETA_DIGESTS = [
    (0.1+0.025j, 28, ("79e00bb393913266", "26fd4b0d0ec41c64", "f1c7f64df6474e7c")),
    (-0.2+0.08j, 17, ("88445307e3293264", "92a6bcfed43e278a", "acdf7c947a68953f")),
    (0.3+0.5j, 9, ("413b4728d7aeea11", "74405cd28bf46b41", "97dff3e39473a146")),
    (-0.2+1.1j, 8, ("d4b5495b90381d32", "27c7e5b0aa209d1a", "970c2fb912ef1d2f")),
    (0.5+3j, 6, ("e13ba7a3ff5df722", "5c965f6a00bfa856", "39b8d1cf6b042bbc")),
    (0.4+9j, 5, ("561e923cc6ece3e8", "a33d919f5f935933", "0bbbb64e7c0bae6b")),
]


@pytest.mark.parametrize("tau,terms,digests", THETA_DIGESTS, ids=str)
def test_theta_kernel_bits_are_pinned(tau, terms, digests):
    assert len(_theta_grid_terms(tau)[0]) == terms
    # 300 reduced points, 0 and the cell's corners among them
    u0 = _split_lattice_grid(_kernel_points(tau, 295, 41), tau)[0]
    u0 = np.concatenate([u0, [0.0, 0.5, -0.5, 0.5 * tau, 0.5 + 0.5 * tau]])
    got = [_digest(_theta_raw_grid(u0, tau, orders)) for orders in ((0,), (0, 1), (1, 3))]
    assert tuple(got) == digests


# (d, tau) and the digests of the tables at first = 0 and at first = 1, and
# of the CYBE call (u = 0, first = 1, with zeta)
TWIST_DIGESTS = [
    (2, 0.1+0.9j, ("4f7005910b0e180b", "5c469abcf09645c1", "b60381616c0d3733")),
    (3, -0.3+2.4j, ("e91f7c1920bb543b", "bf490212abb3b4a9", "115e88ae598fb1e8")),
    (4, 0.2+0.7j, ("4cd42c4a23ef3309", "0d5cad580b7f7742", "37d435c22ee61b3c")),
    (5, 0.45+1.3j, ("a9113eaf2026799a", "05b17eee9402ea4c", "9570821f03abf170")),
    (6, -0.1+7.5j, ("b402e3315fdb5556", "c5f7964412f0a925", "cd3f8ff72268494f")),
    (7, 0.25+1.1j, ("43111dd4ababb5dc", "c158f441e60dadb4", "52a425ed2c4bdf7d")),
]


@pytest.mark.parametrize("d,tau,digests", TWIST_DIGESTS, ids=str)
def test_twist_grid_bits_are_pinned(d, tau, digests):
    m = modular_param(tau)
    u, v = _kernel_points(tau, 40, d), _kernel_points(tau, 40, d + 100)
    got = [
        _digest([_kronecker_twist_grid(u, v, d, m, first=first)]) for first in (0, 1)
    ] + [_digest(_kronecker_twist_grid(0.0, v, d, m, first=1, zeta=True))]
    assert tuple(got) == digests
