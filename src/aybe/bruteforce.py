"""Slow defining-series implementations used as oracles by the test suite.

Every series routine here evaluates one of the definitions head-on: truncated
theta sums, the Kronecker double series, Eisenstein-summed lattice series.
Nothing is shared with the fast paths in :mod:`aybe.special`, so agreement
between the two is a genuine cross-check.  Truncation orders are explicit
arguments; callers pick them so the truncation error sits well below the
comparison tolerance.

:func:`eval_elliptic_aybe_per_char` and :func:`eval_elliptic_cybe_per_char`
are the exceptions: they assemble the elliptic tensors one rational
characteristic at a time from the scalar :func:`aybe.special.kronecker_F_char`
and :func:`aybe.special.zeta_char`, where :mod:`aybe.solutions` evaluates all
characteristics on one theta grid.  :func:`eval_cybe_alt` assembles the
elliptic CYBE tensor a third way, from the same scalar ``zeta_char``.  These
cross-check the tensor assembly and the grid path, not theta or zeta
themselves.  :func:`leg_product_einsum` is the reference for
:func:`aybe.tensors.leg_product`: the same contraction as an ``einsum``
of the spec table, where the fast path makes it one BLAS matrix product.
:func:`composite_columns` is the reference for
:func:`aybe.curve.composite_stack`: one sample's residue and evaluation
maps built column by column from each basis section's endpoint values,
glued with ``inv``, framed, and composed by one ``solve``.
:func:`in_domain_pointwise` and :func:`check_samples_pointwise` are the
references for the array polar-locus tests of :mod:`aybe.solutions` and the
block rejection sampling of :mod:`aybe.verify`: one point at a time, in
Python's complex arithmetic.  :func:`contour_coefficients_doubling` is the
reference for ``aybe.series._contour_coefficients``: the trapezoid rule
from ``n_start`` nodes up, one ``fn`` call per node count, with the nodes
and weights formed afresh at each count.  The ``identity_*`` functions and
:func:`kronecker_weierstrass_limit` return the residuals of the distribution
and isogeny relations and of the Weierstrass limit of F, formed from the
fast scalar functions of :mod:`aybe.special`.  Only the tests use
:func:`theta11_derivative_at_zero`, the fast path's termwise theta
derivative that :func:`theta11_derivative_series` checks, and
:func:`matrix_unit`.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .curve import BundleParams
from .errors import DomainError, NonConvergenceError
from .solutions import SolutionHandle, paired_cybe_handle
from .special import (
    Characteristic,
    ModularParam,
    _theta_at,
    kronecker_F,
    kronecker_F_char,
    lattice_distance,
    modular_param,
    weierstrass_p,
    weierstrass_zeta,
    zeta_char,
)
from .tensors import _LEG_PRODUCT_SPECS, MatrixTensor2, MatrixTensor3

TWO_PI_I = 2j * math.pi


def theta11_series(u: complex, tau: complex, n_max: int = 40) -> complex:
    """Direct summation of the defining theta series over |n| <= n_max."""
    total = 0.0 + 0.0j
    for n in range(-n_max, n_max + 1):
        half = n + 0.5
        total += (-1) ** (n % 2) * cmath.exp(
            1j * math.pi * half * half * tau + TWO_PI_I * half * u
        )
    return total


def theta11_derivative_series(tau: complex, order: int = 1, n_max: int = 40) -> complex:
    """Termwise derivative of the theta series at u = 0."""
    total = 0.0 + 0.0j
    for n in range(-n_max, n_max + 1):
        half = n + 0.5
        total += (
            (-1) ** (n % 2)
            * (TWO_PI_I * half) ** order
            * cmath.exp(1j * math.pi * half * half * tau)
        )
    return total


def theta11_derivative_at_zero(m: ModularParam, order: int = 1) -> complex:
    """Termwise u-derivative of theta11 at u = 0 by the truncated theta sum
    of :mod:`aybe.special` (the fast path), to hold against
    :func:`theta11_derivative_series`."""
    (val,) = _theta_at(0.0, m.tau, (order,))
    return val


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    """The n x n matrix unit e_ij."""
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def kronecker_double_series(u: complex, v: complex, tau: complex, n_max: int = 60) -> complex:
    """Double q-series for F(u, v), valid for 0 < Im(u), Im(v) < Im(tau).

    F(u, v) = -sum over (m+1/2)(n+1/2) > 0 of sign(m+1/2)
              * exp(2*pi*i*(m*n*tau + m*v + n*u)).
    """
    if not (0.0 < u.imag < tau.imag and 0.0 < v.imag < tau.imag):
        raise ValueError("double series requires 0 < Im(u), Im(v) < Im(tau)")
    total = 0.0 + 0.0j
    for mm in range(-n_max, n_max + 1):
        for nn in range(-n_max, n_max + 1):
            if (mm + 0.5) * (nn + 0.5) <= 0.0:
                continue
            sign = 1.0 if mm >= 0 else -1.0
            total += sign * cmath.exp(TWO_PI_I * (mm * nn * tau + mm * v + nn * u))
    return -total


def kronecker_char_series(
    p, q, u: complex, v: complex, tau: complex, n_max: int = 60
) -> complex:
    """Double series for F_pq: indices run over (Z + p) x (Z + q).

    The summation region is (m + eps)(n + eps) > 0 for infinitesimal
    eps > 0 with sign(m + eps); convergence requires small positive Im(u),
    Im(v).
    """
    p = Fraction(p)
    q = Fraction(q)
    total = 0.0 + 0.0j
    for m0 in range(-n_max, n_max + 1):
        mm = float(m0 + p)
        for n0 in range(-n_max, n_max + 1):
            nn = float(n0 + q)
            if mm >= 0.0 and nn >= 0.0:
                sign = 1.0
            elif mm < 0.0 and nn < 0.0:
                sign = -1.0
            else:
                continue
            total += sign * cmath.exp(TWO_PI_I * (mm * nn * tau + mm * v + nn * u))
    return -total


def leg_product_einsum(
    x: MatrixTensor2, legs_x: str, y: MatrixTensor2, legs_y: str
) -> MatrixTensor3:
    """``x_{legs_x} y_{legs_y}`` as the ``einsum`` of the leg-product spec
    table: the reference for :func:`aybe.tensors.leg_product`."""
    spec = _LEG_PRODUCT_SPECS.get((legs_x, legs_y))
    if spec is None:
        raise ValueError(f"unsupported leg pairs {legs_x!r} and {legs_y!r}")
    return MatrixTensor3(np.einsum(spec, x.coeffs, y.coeffs))


def _lattice_points(tau: complex, n_max: int) -> np.ndarray:
    a = np.arange(-n_max, n_max + 1, dtype=float)
    aa, bb = np.meshgrid(a, a)
    w = aa + bb * tau
    mask = (aa != 0.0) | (bb != 0.0)
    return w[mask]


def zeta_lattice_sum(x: complex, tau: complex, n_max: int = 80) -> complex:
    """Eisenstein-summed lattice series for the Weierstrass zeta function:

    1/x + sum over 0 < max(|a|,|b|) <= n_max of [1/(x-w) + 1/w + x/w^2],
    w = a + b*tau, summed over the symmetric box.
    """
    w = _lattice_points(tau, n_max)
    terms = 1.0 / (x - w) + 1.0 / w + x / (w * w)
    return 1.0 / x + complex(np.sum(terms))


def wp_lattice_sum(x: complex, tau: complex, n_max: int = 80) -> complex:
    """Symmetric-box lattice series 1/x^2 + sum [1/(x-w)^2 - 1/w^2]."""
    w = _lattice_points(tau, n_max)
    terms = 1.0 / (x - w) ** 2 - 1.0 / (w * w)
    return 1.0 / (x * x) + complex(np.sum(terms))


def zeta_lattice_extrapolated(x: complex, tau: complex, n_max: int = 320) -> complex:
    """Lattice-series zeta with the box-truncation bias removed.

    The symmetric-box partial sums S(M) of the zeta series converge only
    conditionally: measured against doubled boxes the truncation error
    follows c2/M^2 + c3/M^3 very cleanly.  Fitting that model through the
    sums at M = n_max/4, n_max/2, n_max and reading off the limit brings the
    defining series down to ~1e-11 truncation error at the default size,
    which a raw M = n_max box cannot reach.
    """
    sizes = (n_max // 4, n_max // 2, n_max)
    rows = np.array([[1.0, 1.0 / s**2, 1.0 / s**3] for s in sizes], dtype=complex)
    sums = np.array([zeta_lattice_sum(x, tau, s) for s in sizes])
    return complex(np.linalg.solve(rows, sums)[0])


def eta1_lattice_sum(tau: complex, n_max: int = 320) -> complex:
    """eta1 = 2*zeta(1/2) via the extrapolated lattice series."""
    return 2.0 * zeta_lattice_extrapolated(0.5, tau, n_max)


def g2_lattice_sum(tau: complex, n_max: int = 200) -> complex:
    """g2 = 60 * sum' w^-4 over the symmetric box."""
    w = _lattice_points(tau, n_max)
    return 60.0 * complex(np.sum(w**-4.0))


def g3_lattice_sum(tau: complex, n_max: int = 200) -> complex:
    """g3 = 140 * sum' w^-6 over the symmetric box."""
    w = _lattice_points(tau, n_max)
    return 140.0 * complex(np.sum(w**-6.0))


# ---------------------------------------------------------------------------
# identities of the fast scalar functions, returned as residuals
# ---------------------------------------------------------------------------

def identity_zeta_distribution(d: int, x: complex, m: ModularParam) -> complex:
    """zeta(d*x, d*tau) - (1/d)*sum_i zeta_{i/d,0}(x, tau)
    - (x/d)*sum_{i != 0} wp(i/d, tau)."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    md = modular_param(d * m.tau)
    lhs = weierstrass_zeta(d * x, md)
    rhs = sum(
        zeta_char(Characteristic.of(Fraction(i, d), 0), x, m) for i in range(d)
    ) / d
    rhs += x / d * sum(weierstrass_p(i / d, m) for i in range(1, d))
    return lhs - rhs


def identity_zeta_distribution_char(d: int, j: int, x: complex, m: ModularParam) -> complex:
    """Characteristic version: zeta_{0,j/d}(d*x, d*tau) vs the same average
    with second characteristic j/d on every summand."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    md = modular_param(d * m.tau)
    lhs = zeta_char(Characteristic.of(0, Fraction(j, d)), d * x, md)
    rhs = sum(
        zeta_char(Characteristic.of(Fraction(i, d), Fraction(j, d)), x, m)
        for i in range(d)
    ) / d
    rhs += x / d * sum(weierstrass_p(i / d, m) for i in range(1, d))
    return lhs - rhs


def identity_p_distribution(d: int, x: complex, m: ModularParam) -> complex:
    """wp(d*x, d*tau) - (1/d^2)*sum_i wp(x + i/d, tau)
    + (1/d^2)*sum_{i != 0} wp(i/d, tau)."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    md = modular_param(d * m.tau)
    lhs = weierstrass_p(d * x, md)
    rhs = sum(weierstrass_p(x + i / d, m) for i in range(d)) / d**2
    rhs -= sum(weierstrass_p(i / d, m) for i in range(1, d)) / d**2
    return lhs - rhs


def identity_eta2_isogeny(d: int, m: ModularParam) -> complex:
    """eta2(d*tau) - eta2(tau) - (tau/d)*sum_{i != 0} wp(i/d, tau)."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    md = modular_param(d * m.tau)
    correction = m.tau / d * sum(weierstrass_p(i / d, m) for i in range(1, d))
    return md.eta2 - m.eta2 - correction


def identity_F_zeta(d: int, k: int, ell: int, x: complex, m: ModularParam) -> complex:
    """d*2*pi*i*F_{k/d, l/d}(0, d*x, d*tau) minus its zeta_char expansion.

    The expansion reads sum_j exp(-2*pi*i*k*j/d) * [zeta_{j/d, l/d}(x, tau)
    - zeta_{j/d, 0}(-k*tau/d, tau)] and requires k not divisible by d (the
    left side has a pole otherwise).  The factor d in front of F is pinned
    by the pole data: in x, the left side has residue exp(2*pi*i*k*m/d)/d
    at x = m/d - l*tau/d before scaling, while the expansion's zeta terms
    contribute residue exp(2*pi*i*k*m/d) there; without the factor the two
    sides differ by a non-constant doubly periodic function.
    """
    if d < 1:
        raise ValueError("d must be a positive integer")
    if k % d == 0:
        raise ValueError("k must not be divisible by d")
    md = modular_param(d * m.tau)
    char = Characteristic.of(Fraction(k, d), Fraction(ell, d))
    lhs = d * TWO_PI_I * kronecker_F_char(char, 0.0, d * x, md)
    rhs = 0.0 + 0.0j
    for jj in range(d):
        phase = cmath.exp(-TWO_PI_I * k * jj / d)
        term = zeta_char(Characteristic.of(Fraction(jj, d), Fraction(ell, d)), x, m)
        term -= zeta_char(Characteristic.of(Fraction(jj, d), 0), -k * m.tau / d, m)
        rhs += phase * term
    return lhs - rhs


def kronecker_weierstrass_limit(y: complex, m: ModularParam, x: complex = 1e-5) -> complex:
    """Residual of the small-x limit [2*pi*i*F(x, y) - 1/x] -> zeta(y) - y*eta1."""
    lhs = TWO_PI_I * kronecker_F(x, y, m) - 1.0 / x
    rhs = weierstrass_zeta(y, m) - y * m.eta1
    return lhs - rhs


def eval_elliptic_aybe_per_char(h: SolutionHandle, u: complex, v: complex) -> MatrixTensor2:
    """Base value of an ``elliptic_aybe`` handle (before rescale and gauge),
    one characteristic at a time through the scalar
    :func:`aybe.special.kronecker_F_char`: the reference assembly for the
    grid path of :mod:`aybe.solutions`."""
    # rank r reduces to the line-bundle case on the lattice with r*tau
    d, r = h.d, h.r
    m = modular_param(d * r * h.tau)
    bigu = d * r * u
    bigv = -d * v
    coeffs = np.zeros((d,) * 4, dtype=complex)
    for dj in range(d):
        for dq in range(d):
            ch = Characteristic.of(Fraction(dj, d), Fraction(dq, d))
            val = kronecker_F_char(ch, bigu, bigv, m)
            for i in range(d):
                j = (i + dj) % d
                ip = (j - dq) % d
                jp = (i - dq) % d
                coeffs[i, j, ip, jp] += val
    return MatrixTensor2(coeffs)


def eval_elliptic_cybe_per_char(h: SolutionHandle, v: complex) -> MatrixTensor2:
    """Base value of an ``elliptic_cybe`` handle, one characteristic at a
    time through the scalar :func:`aybe.special.kronecker_F_char` and
    :func:`aybe.special.zeta_char`: the reference assembly for the grid
    path of :mod:`aybe.solutions`."""
    d = h.d
    m = modular_param(d * h.r * h.tau)
    bigv = -d * v
    coeffs = np.zeros((d,) * 4, dtype=complex)
    for dj in range(1, d):
        for di in range(d):
            ch = Characteristic.of(Fraction(dj, d), Fraction((di + dj) % d, d))
            val = kronecker_F_char(ch, 0.0, bigv, m)
            for i in range(d):
                coeffs[i, (i + dj) % d, (i - di) % d, (i - di - dj) % d] += val
    zs = [
        zeta_char(Characteristic.of(0, Fraction(k, d)), bigv, m)
        for k in range(d)
    ]
    mean = sum(zs) / d
    for i in range(d):
        for ip in range(d):
            coeffs[i, i, ip, ip] += (zs[(i - ip) % d] - mean) / TWO_PI_I
    return MatrixTensor2(coeffs)


def _eval_elliptic_cybe_alt(d: int, r: int, tau: complex, v: complex) -> MatrixTensor2:
    """Same tensor as :func:`eval_elliptic_cybe_per_char`, assembled
    on the small lattice with characteristic sums instead of the isogeny
    lattice.

    The characteristic sum carries an overall 1/d: the sum of d zeta terms
    reproduces d times the isogeny-lattice F value (matching pole residues
    on both sides, see :func:`identity_F_zeta`).
    """
    m1 = modular_param(r * tau)
    x = -v
    tau1 = m1.tau
    coeffs = np.zeros((d,) * 4, dtype=complex)
    for dj in range(1, d):
        for di in range(d):
            total = 0.0 + 0.0j
            for aa in range(d):
                phase = cmath.exp(-TWO_PI_I * aa * dj / d)
                term = zeta_char(
                    Characteristic.of(Fraction(aa, d), Fraction((di + dj) % d, d)),
                    x,
                    m1,
                ) - zeta_char(
                    Characteristic.of(Fraction(aa, d), 0),
                    -Fraction(dj, d) * tau1,
                    m1,
                )
                total += phase * term
            val = total / (d * TWO_PI_I)
            for i in range(d):
                coeffs[i, (i + dj) % d, (i - di) % d, (i - di - dj) % d] += val
    col = [
        sum(
            zeta_char(Characteristic.of(Fraction(aa, d), Fraction(bb, d)), x, m1)
            for aa in range(d)
        )
        for bb in range(d)
    ]
    grand = sum(col)
    for i in range(d):
        for ip in range(d):
            val = (col[(i - ip) % d] / d - grand / d**2) / TWO_PI_I
            coeffs[i, i, ip, ip] += val
    return MatrixTensor2(coeffs)


def eval_cybe_alt(h: SolutionHandle, v: complex) -> MatrixTensor2:
    """Alternative assembly of the elliptic CYBE tensor (characteristic sums
    on the small lattice); must agree with :func:`aybe.solutions.eval_cybe`
    entrywise."""
    if h.family != "elliptic_cybe":
        raise DomainError("alternative form exists for the elliptic CYBE family only")
    c1, _, _, c4 = h.rescale
    val = _eval_elliptic_cybe_alt(h.d, h.r, h.tau, c4 * v) * c1
    if h.gauge is not None:
        if h.gauge.kind != "constant":
            raise DomainError("only constant gauges apply to CYBE families")
        val = val.conjugate_legs(h.gauge.matrix, h.gauge.matrix)
    return val


# ---------------------------------------------------------------------------
# nodal-curve composites, one basis section at a time
# ---------------------------------------------------------------------------

_E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def _s_matrix(lam: complex) -> np.ndarray:
    return np.array([[0.0, lam], [1.0, 0.0]], dtype=complex)


def _f_factor(lam: complex, y: complex, trivialization: str) -> complex:
    if trivialization == "constant":
        return 1.0
    if trivialization == "exp-sqrt":
        return cmath.exp((cmath.log(lam) - cmath.log(y)) / 2.0)
    raise DomainError(f"unknown trivialization {trivialization!r}")


def _frame(raw: np.ndarray, p: BundleParams, y: complex, trivialization: str) -> np.ndarray:
    """Conjugate a raw value into the chosen fiber frames at y."""
    framed = raw.copy()
    framed[0, 1] = raw[0, 1] / _f_factor(p.lambda1, y, trivialization)
    framed[1, 0] = raw[1, 0] * _f_factor(p.lambda2, y, trivialization)
    return framed


def _endpoint_values(k: int) -> tuple:
    """(a, b, c, d) of the k-th basis section and its values at 0 and at
    infinity: [[a, 0], [b*z0 + c*z1, d]] keeps b at 0 and c at infinity."""
    a, b, c, d = (1.0 if k == m else 0.0 for m in range(4))
    at_zero = np.array([[a, 0.0], [b, d]], dtype=complex)
    at_inf = np.array([[a, 0.0], [c, d]], dtype=complex)
    return (a, b, c, d), at_zero, at_inf


def _case1_columns(p: BundleParams) -> tuple:
    """Residue at y1 (S2^{-1} B_inf S1 - B_0) and evaluation at y2 of each
    basis section, case 1."""
    s1 = _s_matrix(p.lambda1)
    s2_inv = np.linalg.inv(_s_matrix(p.lambda2))
    w0 = p.y1 / (p.y1 - p.y2)
    w_inf = p.y2 / (p.y2 - p.y1)
    res, ev = [], []
    for k in range(4):
        _, b0, binf = _endpoint_values(k)
        glued = s2_inv @ binf @ s1
        res.append(glued - b0)
        ev.append(w0 * b0 + w_inf * glued)
    return res, ev


def _case2_columns(p: BundleParams, trivialization: str) -> tuple:
    """Residue at y1 and evaluation at y2 of each basis section, case 2.

    A section with a first-order pole at y1 decomposes as
    B'(z)/(z - y1) + z B''(z)/(z - y1) + t(z) e12 with B' constant, B'' =
    [[a'', 0], [b''*z0 + c''*z1, d'']] and t fixed by matching the endpoint
    values through the gluings: B'_0 + t e12 = -y1 S2^{-1} (B''_inf + t e12) S1.
    """
    y, y2 = p.y1, p.y2
    res, ev = [], []
    for k in range(4):
        (a2, b2, c2, d2), at_zero, at_inf = _endpoint_values(k)
        t = -y * p.lambda1 * c2
        b_prime = np.array(
            [[-y * d2, 0.0], [y * y * p.lam * c2, -y * p.lam * a2]], dtype=complex
        )
        at_y, at_y2 = at_zero.copy(), at_zero.copy()
        at_y[1, 0] = at_zero[1, 0] + at_inf[1, 0] * y
        at_y2[1, 0] = at_zero[1, 0] + at_inf[1, 0] * y2
        raw_res = b_prime / y + at_y + (t / y) * _E12
        raw_ev = (b_prime + y2 * at_y2 + t * _E12) / (y2 - y)
        res.append(_frame(raw_res, p, y, trivialization))
        ev.append(_frame(raw_ev, p, y2, trivialization))
    return res, ev


def composite_columns(p: BundleParams, trivialization: str = "exp-sqrt") -> np.ndarray:
    """ev_{y2} o Res_{y1}^{-1} of one sample as a 4x4 matrix, its maps built
    one basis section (column) at a time: the reference for
    :func:`aybe.curve.composite_stack`."""
    if p.case == 1:
        res, ev = _case1_columns(p)
    else:
        res, ev = _case2_columns(p, trivialization)
    res_m = np.stack([c.reshape(4) for c in res], axis=1)
    ev_m = np.stack([c.reshape(4) for c in ev], axis=1)
    return np.linalg.solve(res_m.T, ev_m.T).T


def in_domain_pointwise(h: SolutionHandle, u, v: complex, guard: float) -> bool:
    """The polar-locus test of :func:`aybe.solutions.in_domain` at one
    point, in Python's complex arithmetic with ``abs`` and the scalar
    :func:`aybe.special.lattice_distance`: the reference for the array
    tests of the family records."""
    _, _, c3, c4 = h.rescale
    vv = c4 * v
    uu = c3 * u if h.is_aybe else None
    points = (vv,) if uu is None else (uu, vv)
    if not all(cmath.isfinite(z) for z in points):
        return False
    if h.family == "elliptic_aybe":
        lat = h.r * h.tau
        x, y = h.d * h.r * uu, h.d * vv
        return all(lattice_distance(z, lat) > guard for z in (x, y, x - y))
    if h.family == "elliptic_cybe":
        return lattice_distance(h.d * vv, h.r * h.tau) > guard
    if h.family == "scalar_kronecker":
        return all(lattice_distance(z, h.tau) > guard for z in (uu, vv, uu + vv))
    if h.family == "scalar_rational":
        return abs(uu) > guard and abs(vv) > guard
    if h.family == "custom":
        return True
    # the trigonometric families: clear of 2*pi*i*Z in every variable
    return all(abs(z - complex(0.0, 2.0 * math.pi * round(z.imag / (2.0 * math.pi)))) > guard
               for z in points)


def _guarded_points(h: SolutionHandle, check: str, draw: tuple) -> tuple:
    """The (u, v) points, u None on a one-variable family, that a sampled
    check of :mod:`aybe.verify` guards for one candidate ``draw``."""
    if check in ("aybe", "commutator"):
        u, up, v, vp = draw
        return ((-up, v), (u + up, v + vp), (u + up, vp), (u, v), (u, v + vp), (up, vp))
    if check == "cybe":
        v, vp = draw
        return ((None, v), (None, vp), (None, v + vp))
    if check == "unitarity":
        u, v = (None,) + draw if h.is_cybe else draw
        return ((u, v), (None if u is None else -u, -v))
    if check == "rank":
        return ((None,) + draw if h.is_cybe else draw,)
    return ((None,) + draw,)  # limit: v on the CYBE partner


def check_samples_pointwise(h: SolutionHandle, check: str, config) -> tuple:
    """(points, skipped) of one sampled check of :mod:`aybe.verify` under
    the :class:`aybe.verify.SuiteConfig` ``config``: candidates drawn one at
    a time, one point after another (r = radius*sqrt(x), then phi =
    2*pi*x'), each guarded point by point with :func:`in_domain_pointwise`.
    The reference for the block sampling of :func:`aybe.verify._sample_all`;
    raises :class:`NonConvergenceError` once ``config.max_draws`` candidates
    hold too few accepted ones."""
    rng = np.random.default_rng(config.seed)
    radius = 0.4 if h.family in ("elliptic_aybe", "elliptic_cybe", "scalar_kronecker") else 1.0
    target, guard = h, config.guard
    if check == "limit":
        target, guard = paired_cybe_handle(h), max(config.guard, 1e-2)
    width = {"aybe": 4, "commutator": 4, "cybe": 2, "limit": 1}.get(check, 1 if h.is_cybe else 2)
    count = {
        "aybe": config.n_aybe, "commutator": config.n_aybe, "cybe": config.n_cybe,
        "unitarity": config.n_unitarity, "rank": config.n_rank, "limit": config.n_limit,
    }[check]
    points, skipped, draws = [], 0, 0
    while len(points) < count:
        if draws >= config.max_draws:
            raise NonConvergenceError(f"rejection sampling exhausted {config.max_draws} draws")
        draws += 1
        draw = []
        for _ in range(width):
            r = radius * math.sqrt(rng.uniform())
            phi = 2.0 * math.pi * rng.uniform()
            draw.append(complex(r * math.cos(phi), r * math.sin(phi)))
        draw = tuple(draw)
        if all(in_domain_pointwise(target, u, v, guard) for u, v in _guarded_points(h, check, draw)):
            points.append(draw)
        else:
            skipped += 1
    return points, skipped


def contour_coefficients_doubling(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    powers: Sequence[int],
    radius,
    tol: float = 1e-10,
    n_start: int = 8,
    n_max: int = 4096,
    guards: int = 0,
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Coefficients at the given powers of one function per row, by the
    trapezoid rule on the circle of radius ``radius[k]`` for row k, with the
    calling convention of ``aybe.series._contour_coefficients``.

    Every row starts at ``n_start`` nodes; each node count is one ``fn``
    call on the odd nodes of the rows that have not settled (the even nodes
    are the previous count's), and a row settles once two successive
    estimates of the powers after the first ``guards`` agree to ``tol`` in
    the sup metric on its circle."""
    radius = np.asarray(radius, dtype=float).reshape(-1)
    powers = np.asarray(powers)
    active = np.arange(radius.size)
    nodes = np.zeros(radius.size, dtype=int)
    coeffs = values = previous = None
    n = n_start
    while n <= n_max:
        theta = 2.0 * math.pi * np.arange(n) / n
        r = radius[active, None]
        if values is None:
            values = np.asarray(fn(active, r * np.exp(1j * theta)), dtype=complex)
            shape = values.shape[2:]
            coeffs = np.empty((radius.size, powers.size) + shape, dtype=complex)
        else:
            fresh = np.asarray(fn(active, r * np.exp(1j * theta[1::2])), dtype=complex)
            merged = np.empty((active.size, n) + shape, dtype=complex)
            merged[:, 0::2] = values
            merged[:, 1::2] = fresh
            values = merged
        flat = values.reshape(active.size, n, math.prod(shape))
        phase = theta[(-powers[:, None] * np.arange(n)) % n]
        weights = np.exp(1j * phase) * r[:, :, None] ** -powers[:, None]
        current = np.matmul(weights / n, flat)
        if previous is not None:
            scale = np.maximum(np.max(np.abs(flat), axis=(1, 2)), 1.0)
            drift = np.abs(current - previous)[:, guards:]
            gap = np.max(drift * (r ** powers[guards:])[:, :, None], axis=(1, 2))
            done = gap <= tol * scale
            coeffs[active[done]] = current[done].reshape((-1, powers.size) + shape)
            nodes[active[done]] = n
            keep = ~done
            active, values, current = active[keep], values[keep], current[keep]
            if not active.size:
                return [coeffs[:, i] for i in range(powers.size)], nodes
        previous = current
        n *= 2
    raise NonConvergenceError(f"contour quadrature did not settle below {tol} with {n_max} nodes")
