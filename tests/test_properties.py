"""Property tests of theta11, the Kronecker function, the Weierstrass
functions, the lattice guard, the twist-table rank and projection, the
batched contour extraction and the scale invariance of the sampled checks,
and mpmath oracles.

Both third-party libraries are optional test dependencies (the ``test``
extra); each test is skipped when its library is missing.
"""

import cmath
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from aybe import series
from aybe.bruteforce import contour_coefficients_doubling, theta11_series
from aybe.errors import PoleProximityError
from aybe.solutions import _place_twists, elliptic_aybe, trig_aybe
from aybe.special import (
    Characteristic,
    _kronecker_twist_grid,
    _lattice_distance_grid,
    _lattice_guard_distance,
    _reduced_distance_grid,
    _reduced_guard_distance,
    _split_lattice_grid,
    _theta_raw_grid,
    kronecker_F,
    lattice_distance,
    modular_param,
    split_lattice,
    theta11,
    weierstrass_p,
    weierstrass_zeta,
    zeta_char,
)
from aybe.tensors import _project_sl, _ranks_as_maps, _twist_project_sl, _twist_ranks, _twist_singular_values
from aybe.verify import SuiteConfig, run_suite

TWO_PI_I = 2j * math.pi

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    tau_re=st.floats(-0.5, 0.5),
    tau_im=st.floats(0.05, 2.0),
    u_re=st.floats(-0.5, 0.5),
    u_height=st.floats(-30.0, 30.0),
    v_re=st.floats(-0.5, 0.5),
    v_height=st.floats(-0.45, 0.45),
)
def test_theta_and_kronecker_scalar_array_and_quasi_periodicity(
    tau_re, tau_im, u_re, u_height, v_re, v_height
):
    # |Im u| up to 30*Im tau, Im tau down to 0.05
    tau = complex(tau_re, tau_im)
    m = modular_param(tau)
    u = complex(u_re, 0.0) + u_height * tau
    v = complex(v_re, 0.0) + v_height * tau

    u0, _, _ = split_lattice(u, tau)
    direct = theta11_series(u0, tau, n_max=60)
    # theta11 is small near the origin against the terms of its series (below
    # 5 in modulus after reduction), so both sums lose relative digits as Im
    # tau falls (measured worst over 20,000 draws: 1.35e-12 at tau ~ 0.052i,
    # 9.5e-14 times min(1, Im tau)); at theta11(0) = 0 only the absolute
    # roundoff of the terms is left
    assert abs(theta11(u0, m) - direct) <= 1e-12 / min(1.0, tau_im) * abs(direct) + 1e-15

    hypothesis.assume(
        min(lattice_distance(z, tau) for z in (u, v, u + v, u + tau, u + tau + v))
        > 0.05 * min(1.0, tau_im)
    )
    f = kronecker_F(u, v, m)
    f_grid = kronecker_F(np.array([u]), v, m)[0]
    assert abs(f_grid - f) <= 1e-13 * abs(f)
    # Near the origin theta11 is small against the terms of its series, and
    # this cancellation costs F relative accuracy like 1/Im(tau)^2 (measured
    # worst: 1.4e-12 at Im tau = 1, 2.4e-10 at Im tau = 0.06).
    tol = 1e-11 / min(1.0, tau_im) ** 2
    assert abs(kronecker_F(u + 1.0, v, m) - f) <= tol * abs(f)
    expected = cmath.exp(-TWO_PI_I * v) * f
    assert abs(kronecker_F(u + tau, v, m) - expected) <= tol * abs(expected)


@hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    tau_im=st.floats(0.05, 2.0),
    height=st.integers(-30, 30),
    offset=st.floats(-0.9e-6, 0.9e-6),
)
def test_kronecker_pole_guard_on_points_and_arrays(tau_im, height, offset):
    # a point within POLE_GUARD of the lattice raises on both paths
    tau = complex(0.1, tau_im)
    m = modular_param(tau)
    u = 1.0 + height * tau + offset
    with pytest.raises(PoleProximityError):
        kronecker_F(u, 0.3, m)
    with pytest.raises(PoleProximityError):
        kronecker_F(np.array([0.2, u]), 0.3, m)


@pytest.mark.parametrize("tau", [1j, 0.5 + 0.9j, 0.1 + 0.3j, 8j, 16j, 0.3 + 60j])
def test_theta11_matches_mpmath_jtheta(tau):
    mpmath = pytest.importorskip("mpmath")
    m = modular_param(tau)
    # reduced points with |Im u0| up to Im(tau)/2, where one half of the
    # series grows like exp(pi*Im(tau)/2) and the other decays
    u0 = np.array([0.17 + 0.05j, -0.42 + 0.49 * tau, 0.31 - 0.5 * tau, 0.5 + 0.25 * tau])
    derivatives = _theta_raw_grid(u0, tau, (1, 3))
    with mpmath.workdps(30):
        # theta11(u, tau) = i * theta_1(pi*u, q) with nome q = exp(pi*i*tau)
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
        for u in (0.17 + 0.05j, -0.42 + 0.31j, 2.31 + 1.72j, 0.3 - 2.5j, *u0):
            ref = complex(1j * mpmath.jtheta(1, mpmath.pi * mpmath.mpc(u), q))
            assert abs(theta11(u, m) - ref) < 1e-12 * abs(ref)
        for k, values in zip((1, 3), derivatives):
            for u, value in zip(u0, values):
                z = mpmath.pi * mpmath.mpc(u)
                ref = complex(1j * mpmath.pi**k * mpmath.jtheta(1, z, q, derivative=k))
                assert abs(value - ref) < 1e-12 * abs(ref)


@pytest.mark.parametrize("tau", [0.2 + 1.1j, 0.0625j, 0.3 + 60j])
@pytest.mark.parametrize("orders", [(0,), (0, 1), (1, 3), (0, 1, 2)])
def test_theta_kernel_is_batch_invariant(tau, orders):
    # a point's theta sums do not depend on the other points of the call or
    # on the shape of the array: bit for bit, alone (0-d) and inside arrays
    rng = np.random.default_rng(31)
    u0 = _split_lattice_grid(
        rng.uniform(-2, 2, 1040) + rng.uniform(-2, 2, 1040) * tau, tau
    )[0]
    alone = np.array([_theta_raw_grid(np.asarray(x), tau, orders) for x in u0])
    for size in (2, 3, 17, 256, 1040):
        batch = np.array(_theta_raw_grid(u0[:size], tau, orders)).T
        assert batch.tobytes() == alone[:size].tobytes()
    grid = np.array(_theta_raw_grid(u0.reshape(65, 16), tau, orders))
    assert grid.reshape(len(orders), -1).T.tobytes() == alone.tobytes()


# the same lattices and points for the zeta and wp properties
zeta_points = dict(
    tau_re=st.floats(-0.5, 0.5),
    tau_im=st.floats(0.05, 2.0),
    x_re=st.floats(-0.5, 0.5),
    x_height=st.floats(-3.0, 3.0),
)


def grid_zeta(x, m):
    # zeta(x) from the theta grid of the elliptic families (d = 1)
    _, ((zeta,),) = _kronecker_twist_grid(0.0, x, 1, m, first=1, zeta=True)
    return zeta


def _zeta_setup(tau_re, tau_im, x_re, x_height):
    tau = complex(tau_re, tau_im)
    x = complex(x_re, 0.0) + x_height * tau
    hypothesis.assume(lattice_distance(x, tau) > 0.05 * min(1.0, tau_im))
    m = modular_param(tau)
    # the scale of the terms zeta is summed from: eta1 grows like 1/Im(tau)^2
    scale = max(1.0, abs(m.eta1), abs(m.eta2), abs(m.eta1 * x))
    return tau, x, m, scale


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(**zeta_points)
def test_grid_zeta_matches_points_and_is_quasi_periodic_and_odd(tau_re, tau_im, x_re, x_height):
    tau, x, m, scale = _zeta_setup(tau_re, tau_im, x_re, x_height)
    points = (x, x + 1.0, x + tau, -x)
    grid = [grid_zeta(z, m) for z in points]
    for z, value in zip(points, grid):
        assert abs(value - weierstrass_zeta(z, m)) <= 1e-13 * scale
    # zeta loses digits at small Im(tau) as F does (see above; measured
    # worst: 1.7e-12 of this bound's scale at tau = 0.05i, x = 0.0025i)
    tol = 1e-11 * scale / min(1.0, tau_im) ** 2
    z, z_one, z_tau, z_neg = grid
    assert abs(z_one - (z + m.eta1)) <= tol
    assert abs(z_tau - (z + m.eta2)) <= tol
    assert abs(z_neg + z) <= tol


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(**zeta_points)
def test_wp_is_even_and_doubly_periodic(tau_re, tau_im, x_re, x_height):
    tau, x, m, _ = _zeta_setup(tau_re, tau_im, x_re, x_height)
    p = weierstrass_p(x, m)
    # wp = -eta1 - theta''/theta + (theta'/theta)^2 is summed from terms of
    # size eta1 and 1/x^2; as a second derivative it loses more digits at
    # small Im(tau) than zeta (measured worst: 5e-9 relative at tau = 0.05i,
    # |x| = 0.0033)
    tol = 1e-11 * max(1.0, abs(p), abs(m.eta1), 1.0 / abs(x) ** 2) / min(1.0, tau_im) ** 3
    for other in (weierstrass_p(-x, m), weierstrass_p(x + 1.0, m), weierstrass_p(x + tau, m)):
        assert abs(other - p) <= tol


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    tau_re=st.floats(-0.5, 0.5),
    tau_im=st.floats(0.05, 2.0),
    d=st.integers(1, 6),
    v_re=st.floats(-0.5, 0.5),
    v_height=st.floats(-1.5, 1.5),
)
def test_twist_grid_zeta_matches_zeta_char(tau_re, tau_im, d, v_re, v_height):
    # the zeta terms of the elliptic CYBE family, from the shared theta grid
    tau = complex(tau_re, tau_im)
    m = modular_param(tau)
    v = complex(v_re, 0.0) + v_height * tau
    hypothesis.assume(
        min(lattice_distance(v + s * tau / d, tau) for s in range(2 * d - 1))
        > 0.05 * min(1.0, tau_im)
    )
    _, (zetas,) = _kronecker_twist_grid(0.0, v, d, m, first=1, zeta=True)
    scale = max(1.0, abs(m.eta1), abs(m.eta2), abs(m.eta1 * v))
    for k in range(d):
        ref = zeta_char(Characteristic.of(0, Fraction(k, d)), v, m)
        assert abs(zetas[k] - ref) <= 1e-13 * scale


@pytest.mark.parametrize("tau", [1j, 0.5 + 0.9j, 0.1 + 0.3j])
def test_zeta_matches_mpmath_jtheta(tau):
    # zeta(x) = eta1*x + theta11'(x)/theta11(x) with eta1 the ratio of the
    # third and first derivatives of theta11 at 0, over -3; theta11(u) is
    # i*theta_1(pi*u, q), so theta11'/theta11 = pi*theta_1'/theta_1
    mpmath = pytest.importorskip("mpmath")
    m = modular_param(tau)
    points = (0.17 + 0.05j, -0.42 + 0.31j, 2.31 + 1.72j, 0.3 - 2.5j)
    grid = [grid_zeta(x, m) for x in points]
    with mpmath.workdps(30):
        pi = mpmath.pi
        q = mpmath.exp(1j * pi * mpmath.mpc(tau))
        eta1 = -pi**2 * mpmath.jtheta(1, 0, q, 3) / (3 * mpmath.jtheta(1, 0, q, 1))
        for x, fast in zip(points, grid):
            w = pi * mpmath.mpc(x)
            ref = complex(eta1 * mpmath.mpc(x) + pi * mpmath.jtheta(1, w, q, 1) / mpmath.jtheta(1, w, q))
            assert abs(fast - ref) < 1e-12 * max(1.0, abs(ref))
            assert abs(weierstrass_zeta(x, m) - ref) < 1e-12 * max(1.0, abs(ref))


@pytest.mark.parametrize(
    "tau,u,v",
    [
        (0.2 + 1.1j, 0.13 + 0.07j, -0.21 + 0.05j),
        (-0.4 + 0.95j, -0.17 + 0.11j, 0.23 - 0.06j),
        (0.5 + 0.87j, 0.19 - 0.04j, 0.08 + 0.15j),
        (2j, -0.09 - 0.12j, 0.27 + 0.1j),
    ],
)
def test_twist_tables_and_zeta_rows_match_mpmath_jtheta(tau, u, v):
    # whole values, not identities between them: for p = j/d, q = k/d,
    # F_{p,q}(u, v) = exp(2 pi i (p q tau + p v + q u)) theta'(0) theta(u' + v')
    #                 / (2 pi i theta(u') theta(v')), u' = u + p tau, v' = v + q tau,
    # and the elliptic-cybe row zeta(v') - q eta2, with theta(z) =
    # i theta_1(pi z, q) at 40 digits and eta1 = -theta'''(0) / (3 theta'(0))
    mpmath = pytest.importorskip("mpmath")
    m = modular_param(tau)
    with mpmath.workdps(40):
        pi, T, U, V = mpmath.pi, mpmath.mpc(tau), mpmath.mpc(u), mpmath.mpc(v)
        nome = mpmath.exp(1j * pi * T)

        def theta(z, k=0):
            return 1j * pi**k * mpmath.jtheta(1, pi * z, nome, k)

        eta1 = -theta(0, 3) / (3 * theta(0, 1))
        eta2 = eta1 * T - 2j * pi
        for d in range(2, 8):
            table = _kronecker_twist_grid(u, v, d, m)[0]
            (zetas,) = _kronecker_twist_grid(0.0, np.array([v]), d, m, first=1, zeta=True)[1]
            shift = [mpmath.mpf(k) / d for k in range(2 * d - 1)]
            tu = [theta(U + s * T) for s in shift[:d]]
            tv = [theta(V + s * T) for s in shift[:d]]
            tw = [theta(U + V + s * T) for s in shift]
            for j in range(d):
                for k in range(d):
                    p, q = shift[j], shift[k]
                    ref = complex(mpmath.exp(2j * pi * (p * q * T + p * V + q * U)) * theta(0, 1)
                                  * tw[j + k] / (2j * pi * tu[j] * tv[k]))
                    assert abs(table[j, k] - ref) <= 1e-13 * abs(ref)
            for k in range(d):
                x = V + shift[k] * T
                ref = complex(eta1 * x + theta(x, 1) / theta(x) - shift[k] * eta2)
                assert abs(zetas[k] - ref) <= 1e-13 * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# contour extraction against the one-count-per-call reference


def _rational_rows(rows, width=()):
    """Radii and ``fn`` of rows z^-q_k + sum_j a_j/(z - p_j), every p_j
    outside row k's circle, from (radius, [(|p_j|/radius, angle, a_j)], q_k)
    per row, and the list of ``fn``'s node shapes, one per call; without
    poles, or with far ones, a row settles at the first comparison."""
    radius = np.array([r for r, _, _ in rows], dtype=float)
    pad = max([len(poles) for _, poles, _ in rows] + [1])
    poles = np.full((len(rows), pad), 1e3 + 0j)
    residues = np.zeros((len(rows), pad), dtype=complex)
    for k, (r, row_poles, _) in enumerate(rows):
        for j, (ratio, angle, residue) in enumerate(row_poles):
            poles[k, j] = cmath.rect(ratio * r, angle)
            residues[k, j] = residue
    order = np.array([q for _, _, q in rows], dtype=int)
    calls = []

    def fn(rows_, z):
        calls.append(z.shape)
        value = z ** -order[rows_, None].astype(float)
        value = value + np.sum(
            residues[rows_, None, :] / (z[:, :, None] - poles[rows_, None, :]), axis=2
        )
        return value.reshape(z.shape + (1,) * len(width)) * np.ones(width)

    return radius, fn, calls


def _assert_contours_match(rows, powers, width=(), guards=0):
    """The batched extraction equals the doubling reference bit for bit, in
    one call fewer; returns the node counts."""
    radius, fn, calls = _rational_rows(rows, width)
    fast, fast_nodes = series._contour_coefficients(fn, powers, radius, guards=guards)
    fast_calls, calls[:] = len(calls), []
    ref, ref_nodes = contour_coefficients_doubling(
        fn, powers, radius, n_start=series._N_START, n_max=series._N_MAX, guards=guards
    )
    assert np.array_equal(fast_nodes, ref_nodes)
    for a, b in zip(fast, ref):
        assert a.shape == b.shape == (len(rows),) + width
        assert np.array_equal(a, b)
    # the fast path evaluates the first two counts in one call
    assert fast_calls == len(calls) - 1
    return fast_nodes


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    rows=st.lists(
        st.tuples(
            st.floats(0.05, 3.0),  # radius
            st.lists(  # poles outside the circle: (|p|/radius, angle, residue)
                st.tuples(st.floats(1.05, 300.0), st.floats(0.0, 2.0 * math.pi),
                          st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0)),
                min_size=0, max_size=3,
            ),
            st.integers(0, 3),  # order of the pole at 0
        ),
        min_size=1, max_size=6,
    ),
    powers=st.lists(st.integers(-4, 4), min_size=1, max_size=4, unique=True),
    width=st.sampled_from([(), (2,)]),
)
def test_contour_coefficients_match_the_doubling_reference(rows, powers, width):
    _assert_contours_match(rows, powers, width)


def test_contour_rows_that_all_settle_at_the_first_comparison():
    rows = [(0.3, [], 2), (1.5, [], 0), (2.0, [(250.0, 1.0, 2 + 1j)], 1)]
    nodes = _assert_contours_match(rows, [-2, 0, 1], (2,))
    assert nodes.tolist() == [16, 16, 16]


def test_contour_one_row_of_several_lags():
    rows = [(0.3, [], 2), (0.8, [(3.0, 0.5, 1.0)], 0), (1.5, [], 1), (0.5, [], 3)]
    nodes = _assert_contours_match(rows, [-1, 0, 2])
    assert nodes.tolist() == [16, 64, 16, 16]


def test_contour_of_no_rows():
    radius, fn, _ = _rational_rows([])
    assert radius.shape == (0,)
    _assert_contours_match([], [0, 1], (2,))


def test_contour_guard_powers_stay_out_of_the_agreement_test():
    # a pole at 5 radii leaves c_-4 (weighted by r^-4) 5^4 times further
    # from settling than c_0 and c_1: guarding it saves a doubling
    rows = [(0.5, [(5.0, 2.0, 1.5 - 1j)], 1), (1.0, [], 0)]
    guarded = _assert_contours_match(rows, [-4, 0, 1], guards=1)
    tested = _assert_contours_match(rows, [-4, 0, 1])
    assert guarded.tolist() == [32, 16] and tested.tolist() == [64, 16]


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    tau_re=st.floats(-3.0, 3.0),
    tau_im=st.floats(0.05, 3.0),
    guard=st.one_of(st.floats(1e-12, 0.6), st.sampled_from([1e-9, 1e-3, 1e-2])),
    scale=st.floats(0.0, 2.0),
    angle=st.floats(0.0, 2.0 * math.pi),
    shift_a=st.integers(-3, 3),
    shift_b=st.integers(-3, 3),
)
def test_one_corner_guard_flags_equal_the_nine_corner_flags(tau_re, tau_im, guard, scale, angle, shift_a, shift_b):
    # skewed tau (|Re tau| up to 3 Im tau / 0.05), points within about two
    # guards of 0, +-1, +-tau and +-1 +-tau, moved by a lattice vector: the
    # guard's flags, and its distance where either is at most the guard,
    # are the nine-corner ones
    tau = complex(tau_re, tau_im)
    corners = np.array([a + b * tau for a in (-1, 0, 1) for b in (-1, 0, 1)])
    x = corners + shift_a + shift_b * tau + scale * guard * cmath.exp(1j * angle)
    x = np.concatenate((x, [scale * guard, 0.5 + 0.5 * tau + scale * guard]))
    z0 = _split_lattice_grid(x, tau)[0]
    full, fast = _reduced_distance_grid(z0, tau), _reduced_guard_distance(z0, tau, guard)
    assert ((fast < guard) == (full < guard)).all()
    assert ((fast > guard) == (full > guard)).all()
    assert np.where(np.minimum(fast, full) <= guard, fast == full, (fast > guard) & (full > guard)).all()
    assert ((_lattice_guard_distance(x, tau, guard) > guard) == (_lattice_distance_grid(x, tau) > guard)).all()


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    d=st.integers(2, 7),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-6.0, 6.0),
    zero_rows=st.integers(0, 2),
)
def test_twist_table_rank_and_projection_match_the_placed_tensor(d, seed, log_scale, zero_rows):
    # the DFT singular values of a twist table are those of the dense map of
    # the tensor it places, and its row-0 projection is project_sl there
    rng = np.random.default_rng(seed)
    tables = (rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))) * 10.0**log_scale
    tables[:, d - zero_rows:] = 0.0  # zero blocks of the map: rank d^2 - d * zero_rows
    dense = _place_twists(tables, d).reshape((3,) + (d,) * 4)
    maps = dense.transpose(0, 3, 4, 2, 1).reshape(3, d * d, d * d)
    sigma = np.linalg.svd(maps, compute_uv=False)
    dft = np.sort(_twist_singular_values(tables), axis=1)[:, ::-1]
    assert (np.abs(dft - sigma) <= 1e-14 * sigma[:, :1]).all()
    ranks = _twist_ranks(tables)
    assert ranks.tolist() == _ranks_as_maps(dense).tolist() == [d * (d - zero_rows)] * 3
    projected = _place_twists(_twist_project_sl(tables), d).reshape(dense.shape)
    assert np.abs(projected - _project_sl(dense)).max() <= 1e-15 * np.abs(tables).max()


SCALED_HANDLES = [elliptic_aybe(2, 1, 0.1 + 0.9j), trig_aybe(1)]  # graded, dense
SCALED_CONFIG = SuiteConfig(seed=3, n_aybe=8, n_unitarity=8, n_rank=3, n_limit=3)
UNSCALED_RESIDUALS = {}


@pytest.mark.parametrize("h", SCALED_HANDLES, ids=lambda h: h.family)
@hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
@hypothesis.given(k=st.integers(-1000, 1000))
@hypothesis.example(k=-1000)
@hypothesis.example(k=1000)
def test_relative_residuals_ignore_a_power_of_two_rescale(h, k):
    # the checks scale each sample by a power of two before its products
    # and norms, which is exact: every relative residual is the unscaled
    # one bit for bit, where the squared norms used to overflow past 2^510
    if h.family not in UNSCALED_RESIDUALS:
        UNSCALED_RESIDUALS[h.family] = [rep.max_rel_residual for rep in run_suite(h, SCALED_CONFIG)]
    reports = run_suite(replace(h, rescale=(2**k, 0, 1, 1)), SCALED_CONFIG)
    assert [rep.max_rel_residual for rep in reports] == UNSCALED_RESIDUALS[h.family]
