"""Elliptic and modular special functions on the lattice Z + Z*tau.

Everything in this module is built out of the odd Jacobi theta function

    theta11(u, tau) = sum_{n in Z} (-1)^n exp(pi*i*(n+1/2)^2*tau
                                              + 2*pi*i*(n+1/2)*u)

together with the Eisenstein q-series

    G_k(tau) = -B_k/(2k) + sum_{m,n>=1} m^(k-1) * q^(m*n),  q = exp(2*pi*i*tau).

The Kronecker function

    F(u, v) = theta11'(0) / (2*pi*i) * theta11(u+v) / (theta11(u)*theta11(v))

and its twists by a rational characteristic (p, q),

    F_pq(u, v) = exp(2*pi*i*(p*q*tau + p*v + q*u)) * F(u + p*tau, v + q*tau),

are the scalar building blocks of every solution family in this package.
The Weierstrass functions are evaluated through the logarithmic derivative
of theta11,

    zeta(x) = eta1*x + theta11'(x)/theta11(x),
    wp(x)   = -zeta'(x),
    eta1    = -theta11'''(0) / (3*theta11'(0)),     eta2 = eta1*tau - 2*pi*i,

which converges spectrally fast for any tau in the upper half plane.  Slow
defining-series implementations used to cross-check all of these paths live
in ``aybe.bruteforce``.

Inputs are reduced modulo the lattice before series evaluation (the exact
quasi-periodicity factors are restored afterwards), so accuracy is uniform
across the plane.  Evaluation within ``POLE_GUARD`` of a pole raises
:class:`~aybe.errors.PoleProximityError`.

The theta series is summed in one place, over an array of reduced points
at once, by powers: one exp(pi*i*u0) and one exp(-pi*i*u0) per point and a
recurrence whose factors have modulus < 1.  F and its twists take one path
for points and arrays (``_kronecker_twist_grid``); theta11, zeta, wp and
the lattice constants read the series at one point.  Three caches hold
constants, no per-point values: :func:`modular_param` and
:func:`_theta_grid_terms` per tau, and :func:`_pair_plan` per (d, first).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PoleProximityError

__all__ = [
    "Characteristic",
    "ModularParam",
    "eisenstein_G",
    "j_invariant",
    "kronecker_F",
    "kronecker_F_char",
    "modular_param",
    "theta11",
    "weierstrass_p",
    "weierstrass_zeta",
]

TWO_PI_I = 2j * math.pi
_EPS = float(np.finfo(float).eps)

#: minimum allowed (lattice-reduced) distance from a pole
POLE_GUARD = 1e-6

#: largest characteristic denominator accepted by :class:`Characteristic`
MAX_DENOMINATOR = 64

#: Bernoulli numbers used by the Eisenstein series, kept exact so the test
#: suite can confirm them against the defining recurrence.
BERNOULLI = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    3: Fraction(0),
    4: Fraction(-1, 30),
    5: Fraction(0),
    6: Fraction(1, 42),
}


# ---------------------------------------------------------------------------
# lattice bookkeeping


def split_lattice(x: complex, tau: complex) -> tuple[complex, int, int]:
    """Write ``x = x0 + a + b*tau`` with ``x0`` in the centred unit cell.

    Returns ``(x0, a, b)`` where ``a``, ``b`` are integers and the real
    coordinates of ``x0`` with respect to the basis ``(1, tau)`` both lie in
    ``[-1/2, 1/2]``.
    """
    beta = x.imag / tau.imag
    alpha = x.real - beta * tau.real
    a = round(alpha)
    b = round(beta)
    return x - a - b * tau, a, b


def _split_lattice_grid(x: np.ndarray, tau: complex) -> tuple:
    """:func:`split_lattice` on an array; ``a`` and ``b`` come back as
    integer-valued floats."""
    beta = x.imag / tau.imag
    alpha = x.real - beta * tau.real
    a = np.rint(alpha)
    b = np.rint(beta)
    return x - a - b * tau, a, b


def lattice_distance(x: complex, tau: complex) -> float:
    """Distance from ``x`` to the nearest point of Z + Z*tau."""
    x0, _, _ = split_lattice(x, tau)
    best = abs(x0)
    for da in (-1, 0, 1):
        for db in (-1, 0, 1):
            best = min(best, abs(x0 - da - db * tau))
    return best


def _check_finite(*values: complex) -> None:
    for z in values:
        if not (cmath.isfinite(complex(z))):
            raise ValueError(f"non-finite input {z!r}")


# da and db of the nine cell corners da + db*tau, da, db in {-1, 0, 1}
_CORNER_DA = np.repeat([-1.0, 0.0, 1.0], 3)
_CORNER_DB = np.tile([-1.0, 0.0, 1.0], 3)


def _reduced_distance_grid(x0: np.ndarray, tau: complex) -> np.ndarray:
    """:func:`lattice_distance` of the points whose reductions are ``x0``,
    bit for bit: the corners are subtracted in its order, (x0 - da) - db*tau,
    and the modulus is ``hypot``, as Python's ``abs`` forms it (numpy's
    complex ``abs`` can differ in the last bit)."""
    re = x0.real[..., None] - _CORNER_DA
    re -= _CORNER_DB * tau.real
    return np.minimum.reduce(np.hypot(re, x0.imag[..., None] - _CORNER_DB * tau.imag), axis=-1)


def _lattice_distance_grid(x: np.ndarray, tau: complex) -> np.ndarray:
    """:func:`lattice_distance` on an array of any shape, bit for bit."""
    return _reduced_distance_grid(_split_lattice_grid(x, tau)[0], tau)


def _reduced_guard_distance(x0: np.ndarray, tau: complex, guard: float) -> np.ndarray:
    """A stand-in for :func:`_reduced_distance_grid` in a comparison with
    ``guard``: equal to it where either is at most ``guard``, above ``guard``
    where it is.

    A reduced point has coordinates of modulus at most 1/2 in the basis
    (1, tau).  Any corner but 0 then lies at least Im(tau)/2 away in the
    imaginary part, or 1/2 - |beta Re(tau)| in the real part with |beta| below
    guard/Im(tau); so when guard < Im(tau)/4 and guard (1 + |Re tau|/Im tau)
    < 1/4 (a factor 2 spare for the rounding of the reduction) no other
    corner lies within ``guard``, and the modulus of x0, the corner-0 term
    bit for bit, decides alone.  Else all nine corners."""
    if guard < 0.25 * tau.imag and guard * (1.0 + abs(tau.real) / tau.imag) < 0.25:
        return np.hypot(x0.real, x0.imag)
    return _reduced_distance_grid(x0, tau)


def _lattice_guard_distance(x: np.ndarray, tau: complex, guard: float) -> np.ndarray:
    """:func:`_reduced_guard_distance` of the reductions of ``x``."""
    return _reduced_guard_distance(_split_lattice_grid(x, tau)[0], tau, guard)


def _pole_error(label: str, z: complex, guard: float, tau: complex) -> PoleProximityError:
    return PoleProximityError(
        f"{label} = {z!r} is within {guard} of the lattice for tau = {tau!r}"
    )


# ---------------------------------------------------------------------------
# theta series core


# exp(pi*i*u0) and exp(-pi*i*u0), the powers of the terms n >= 0 and of
# their mirrors -n-1, from one exp of u0 times these
_HALF_TURNS = np.array([[1j * math.pi], [-1j * math.pi]])


@lru_cache(maxsize=256)
def _theta_grid_terms(tau: complex) -> tuple:
    """The factors exp(pi*i*tau/4), then -exp(2*pi*i*tau*n), of the theta
    term recurrence and the weights 2*pi*i*(n+1/2), over the n >= 0 that
    leave a relative tail below ~1e-18 after lattice reduction (at least
    5 of them)."""
    c = (18.0 * math.log(10.0) + 4.0) / (math.pi * tau.imag)
    n = np.arange(int(math.ceil(0.5 * (1.0 + math.sqrt(1.0 + 4.0 * c)))) + 3, dtype=float)
    factors = -np.exp(TWO_PI_I * tau * n)
    factors[0] = cmath.exp(0.25j * math.pi * tau)
    return factors, TWO_PI_I * (n + 0.5)


def _sum_terms(terms: np.ndarray) -> np.ndarray:
    """The sum over the leading axis of ``terms`` (K, N), K >= 4, added in
    the order of numpy's sum of a contiguous axis of K complex numbers: up
    to 64 terms in four partial sums over n mod 4, combined as (s0 + s1) +
    (s2 + s3), then the K mod 4 tail; more in two halves split at a
    multiple of 4 terms."""
    count = len(terms)
    if count > 64:
        half = (count - count % 8) // 2
        return _sum_terms(terms[:half]) + _sum_terms(terms[half:])
    end = count - count % 4
    partial = terms[:4] + terms[4:8] if end > 4 else terms[:4]
    for n in range(8, end, 4):
        partial += terms[n:n + 4]
    total = (partial[0] + partial[1]) + (partial[2] + partial[3])
    for term in terms[end:]:
        total += term
    return total


def _theta_raw_grid(u0: np.ndarray, tau: complex, orders: tuple = (0,)) -> list:
    """Termwise u-derivatives of theta11 at lattice-reduced points ``u0``,
    one array per order, held as the term index n x halves x points (the
    points innermost) and summed over n in a fixed order
    (:func:`_sum_terms`), so a point's sums do not depend on the other
    points.  Term n >= 0 is c_n x^(2n+1), x = exp(pi*i*u0), and its mirror
    -n-1 is -c_n x^-(2n+1) (DLMF 20.2.1): each half starts from
    exp(pi*i*tau/4) x^(+-1) and multiplies by -exp(2*pi*i*tau*n) x^(+-2),
    of modulus < 1 on the reduced cell, and the sum pairs the halves."""
    factors, weight = _theta_grid_terms(tau)
    x = np.exp(u0.reshape(-1) * _HALF_TURNS)
    terms = x * factors[:, None, None]
    terms[1:] *= x
    np.multiply.accumulate(terms, axis=0, out=terms)
    sums = []
    for k in orders:
        # the pairs c_n (x^(2n+1) - (-1)^k x^-(2n+1)), weighted by w_n^k
        pairs = (np.add if k % 2 else np.subtract)(terms[:, 0], terms[:, 1])
        if k:
            pairs *= (weight**k)[:, None]
        total = _sum_terms(pairs)
        # numpy's sum starts from 0, which makes a sum of -0 entries +0
        total += 0.0
        sums.append(total.reshape(u0.shape))
    return sums


def _theta_at(u0: complex, tau: complex, orders: tuple) -> list:
    """:func:`_theta_raw_grid` at one lattice-reduced point, as complex numbers."""
    return [complex(t) for t in _theta_raw_grid(np.asarray(u0), tau, orders)]


def theta11(u: complex, m: "ModularParam") -> complex:
    """Odd Jacobi theta function theta11(u, tau)."""
    _check_finite(u)
    u0, a, b = split_lattice(u, m.tau)
    (val,) = _theta_at(u0, m.tau, (0,))
    # theta11(u0 + a + b*tau) = (-1)^(a+b) exp(-pi*i*b^2*tau - 2*pi*i*b*u0) theta11(u0)
    sign = -1.0 if (a + b) % 2 else 1.0
    return sign * cmath.exp(-1j * math.pi * b * b * m.tau - TWO_PI_I * b * u0) * val


# ---------------------------------------------------------------------------
# modular parameter bundle


@dataclass(frozen=True, eq=False)
class ModularParam:
    """Lattice constants for Z + Z*tau, precomputed once per tau.

    ``eta1`` is obtained from the theta route
    ``eta1 = -theta11'''(0)/(3*theta11'(0))`` and ``eta2`` from the Legendre
    relation ``eta1*tau - eta2 = 2*pi*i``.
    """

    tau: complex
    q: complex
    eta1: complex
    eta2: complex
    theta_prime0: complex

    @classmethod
    def from_tau(cls, tau: complex) -> "ModularParam":
        tau = complex(tau)
        _check_finite(tau)
        if tau.imag <= 0.0:
            raise ValueError(f"tau must lie in the upper half plane, got {tau!r}")
        q = cmath.exp(TWO_PI_I * tau)
        tp, tppp = _theta_at(0.0, tau, (1, 3))
        # at small Im tau the series loses theta11'(0), about
        # 2*pi*t^(-3/2)*exp(-pi/(4t)) for t = Im tau, to cancellation: it
        # sums to -7.1e-15 at tau = 0.01i and to 3.6e-15 at 0.015i (true 6e-20).
        # A sum that does not exceed the rounding bound of the series holds
        # no digit of it.  Its 2K terms w_n c_n (K pairs) each take at most
        # K + 1 rounded products from the factors, and the sum adds them:
        # 2K*eps times the sum of their moduli bounds the rounding.
        factors, weight = _theta_grid_terms(tau)
        noise = 4 * len(weight) * _EPS * float(np.abs(weight) @ np.multiply.accumulate(np.abs(factors)))
        if not noise < abs(tp) < math.inf:
            raise DomainError(
                f"theta11'(0) = {tp!r} is not a usable normalisation at tau = {tau!r}"
            )
        eta1 = -tppp / (3.0 * tp)
        eta2 = eta1 * tau - TWO_PI_I
        return cls(tau=tau, q=q, eta1=eta1, eta2=eta2, theta_prime0=tp)


@lru_cache(maxsize=512)
def modular_param(tau: complex) -> ModularParam:
    """Cached :meth:`ModularParam.from_tau`."""
    return ModularParam.from_tau(complex(tau))


def _eisenstein_series(k: int, q: complex) -> complex:
    b = float(BERNOULLI[k])
    total = complex(-b / (2 * k))
    aq = abs(q)
    if aq == 0.0:
        return total
    m_max = max(1, math.ceil(-18.0 * math.log(10.0) / math.log(aq)))
    for mm in range(1, m_max + 1):
        qm = q**mm
        coeff = mm ** (k - 1)
        acc = 0.0 + 0.0j
        power = 1.0 + 0.0j
        for _ in range(m_max // mm):
            power *= qm
            acc += power
        total += coeff * acc
    return total


def eisenstein_G(k: int, m: ModularParam) -> complex:
    """Eisenstein series G_k(tau) for k in {2, 4, 6}."""
    if k not in (2, 4, 6):
        raise ValueError(f"Eisenstein weight must be one of 2, 4, 6, got {k}")
    return _eisenstein_series(k, m.q)


def j_invariant(m: ModularParam) -> complex:
    """Classical j-invariant, normalised so that j(i) = 1728.

    Computed as j = 1728*g2^3 / Delta from g2 = 20*(2*pi)^4*G4 and Jacobi's
    product Delta = (2*pi)^12 * q * prod_{n>=1} (1 - q^n)^24, which, unlike
    g2^3 - 27*g3^2 (and 1728 + 46656*g3^2/Delta near tau = e^{2 pi i/3}),
    does not cancel.  Only a q that underflows to 0 leaves no Delta.
    """
    q = m.q
    if q == 0:
        raise ValueError(f"q = exp(2 pi i tau) underflows to 0 at tau = {m.tau!r}")
    g2 = 20.0 * (2.0 * math.pi) ** 4 * eisenstein_G(4, m)
    product, qn = 1.0 + 0.0j, q
    while abs(qn) > 1e-18:
        product *= 1.0 - qn
        qn *= q
    disc = (2.0 * math.pi) ** 12 * q * product**24
    return 1728.0 * g2**3 / disc


# ---------------------------------------------------------------------------
# rational characteristics


@dataclass(frozen=True)
class Characteristic:
    """A rational characteristic pair (p, q), stored in lowest terms."""

    p: Fraction
    q: Fraction

    def __post_init__(self) -> None:
        for r in (self.p, self.q):
            if not isinstance(r, Fraction):
                raise TypeError("characteristic entries must be Fractions")
            if r.denominator > MAX_DENOMINATOR:
                raise ValueError(
                    f"characteristic denominator {r.denominator} exceeds "
                    f"the supported bound {MAX_DENOMINATOR}"
                )

    @classmethod
    def of(cls, p, q) -> "Characteristic":
        return cls(Fraction(p), Fraction(q))

    def reduced(self) -> "Characteristic":
        """Representative with both entries in [0, 1)."""
        return Characteristic(self.p - (self.p // 1), self.q - (self.q // 1))


# ---------------------------------------------------------------------------
# Kronecker function and characteristic twists


def kronecker_F(u, v, m: ModularParam, *, guard: float = POLE_GUARD):
    """Kronecker's elliptic function F(u, v) on the lattice of ``m``.

    Raises :class:`PoleProximityError` when u, v or u+v falls within
    ``guard`` of a lattice point (u+v on the lattice is a zero rather than a
    pole, but is excluded too so callers always sit at regular, nonzero
    values).

    ``u`` and ``v`` may be numpy arrays (broadcast against each other).
    Points and arrays take one path, the d = 1 twist of
    :func:`_kronecker_twist_grid`: one theta call on the distinct arguments
    u, v and u+v, so an argument constant along an axis of the broadcast,
    as v along a contour row, is summed once.
    """
    table = _kronecker_twist_grid(u, v, 1, m, guard=guard)
    if isinstance(u, np.ndarray) or isinstance(v, np.ndarray):
        return table.reshape(np.broadcast(u, v).shape)
    return complex(table[0, 0, 0])


def kronecker_F_char(
    char: Characteristic,
    u: complex,
    v: complex,
    m: ModularParam,
    *,
    guard: float = POLE_GUARD,
) -> complex:
    """Characteristic twist F_pq(u, v); exactly 1-periodic in p and in q."""
    red = char.reduced()
    p = float(red.p)
    q = float(red.q)
    shift_u = u + p * m.tau
    shift_v = v + q * m.tau
    prefactor = cmath.exp(TWO_PI_I * (p * q * m.tau + p * v + q * u))
    return prefactor * kronecker_F(shift_u, shift_v, m, guard=guard)


class _PairPlan(NamedTuple):
    """The tau-free data of :func:`_kronecker_twist_grid`, per (d, first)."""

    # q = k/d for k < d; 2*pi*i times p = j/d (first <= j < d) as a column
    # and times q; and p*q
    q: np.ndarray
    p_2pi_i: np.ndarray
    q_2pi_i: np.ndarray
    pq: np.ndarray
    # the twists (j/d for the u's, then k/d for the v's and m/d for the sums)
    # that shift_frac*tau adds to the arguments
    shift_frac: np.ndarray
    # the sum argument of pair (j, k), m = (j + k) mod d; the carry j + k >= d
    # that adds tau to it, one unit of its lattice coefficient b; and the
    # sign (-1)^carry that this puts on theta11
    m: np.ndarray
    carry: np.ndarray
    carry_sign: np.ndarray


@lru_cache(maxsize=64)
def _pair_plan(d: int, first: int) -> _PairPlan:
    q = np.arange(d) / d
    p = (np.arange(first, d) / d)[:, None]
    jk = np.arange(first, d)[:, None] + np.arange(d)
    carry = (jk >= d).astype(float)
    return _PairPlan(
        q=q, p_2pi_i=TWO_PI_I * p, q_2pi_i=TWO_PI_I * q, pq=p * q,
        shift_frac=np.concatenate((q[first:], q, q)),
        m=jk % d, carry=carry, carry_sign=(1.0 - 2.0 * carry).astype(complex),
    )


def _twist_pole_error(z: np.ndarray, near: np.ndarray, pair_m: np.ndarray,
                      guard: float, tau: complex) -> PoleProximityError:
    """The error of the first point at which some pair's :func:`kronecker_F`
    raises, naming its first offending argument in the order u + (j/d)*tau,
    v + (k/d)*tau, then the pairs' sums; ``z`` and ``near`` are the
    (N, 3d - first) arguments of :func:`_kronecker_twist_grid` and their
    guard flags, ``pair_m`` the sum of each pair."""
    rows, d = pair_m.shape
    pair_near = near[:, rows + d:][:, pair_m].reshape(len(z), -1)
    near = np.concatenate((near[:, :rows + d], pair_near), axis=1)
    k, j = divmod(int(near.argmax()), near.shape[1])
    if j < rows:
        return _pole_error("u", complex(z[k, j]), guard, tau)
    if j < rows + d:
        return _pole_error("v", complex(z[k, j]), guard, tau)
    jj, kk = divmod(j - rows - d, d)
    return _pole_error("u+v", complex(z[k, jj] + z[k, rows + kk]), guard, tau)


def _kronecker_twist_grid(u, v, d: int, m: ModularParam, *, first: int = 0,
                          zeta: bool = False, guard: float = POLE_GUARD):
    """F_{j/d, k/d}(u[s], v[s]) for first <= j < d and 0 <= k < d, as an
    (N, d - first, d) array: :func:`kronecker_F_char` on every pair at each
    of the N points, from one theta grid.

    ``u`` and ``v`` are broadcast against each other, and the N points are
    those of the flattened broadcast.  Theta is reduced, guarded and summed
    only at the distinct twisted arguments: the d - first arguments
    u + (j/d)*tau at each point of u, the d arguments v + (k/d)*tau at each
    point of v and the d sums w + (m/d)*tau at each point of w = u + v, so
    3d - first arguments per point when u and v have one shape, and d per
    row of v when v is constant along the rows of u.  Pair (j, k) takes the
    sum with m = (j + k) mod d; when j + k >= d its argument is that sum
    plus tau, one more unit of the lattice coefficient b, which the
    quasi-periodicity exponent and the sign (-1)^(a+b) carry exactly.  With
    u a scalar zero, as the CYBE families pass it, the sums are the v
    arguments.  Each pair's quasi-periodicity exponent and its prefactor
    exp(2*pi*i*(p*q*tau + p*v + q*u)) are added before one exp.
    :class:`PoleProximityError` is raised where some pair's
    :func:`kronecker_F` would raise it, with the message of the first
    offending point, as a loop over the points would.

    With ``zeta``, also returns the (N, d) array zeta_{0, k/d}(v[s])
    (:func:`zeta_char`) for k < d, u a scalar: its arguments v + (k/d)*tau
    are the twisted v's, so theta' on the same grid serves it.
    """
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    shape = u.shape if u.shape == v.shape else np.broadcast(u, v).shape
    if 0 in shape:  # no point: no argument to reduce, guard or sum
        u, v = np.broadcast_arrays(u, v)
    zero_u = u.ndim == 0 and u == 0
    tau = m.tau
    pairs = _pair_plan(d, first)
    # the shifts of the arguments, as kronecker_F_char forms p*tau and q*tau
    shift = pairs.shift_frac * tau
    rows = d - first
    groups = [u[..., None] + shift[:rows], v[..., None] + shift[rows:rows + d]]
    if not zero_u:
        groups.append((u + v)[..., None] + shift[rows + d:])
    z = np.concatenate(groups, axis=None)
    nu, nv = u.size * rows, v.size * d

    def parts(x):
        # the u's as u.shape + (rows, 1), the v's as v.shape + (1, d) and
        # the sums as shape + (d,): with u a scalar zero, the v's
        xv = x[nu:nu + nv].reshape(v.shape + (1, d))
        xw = xv[..., 0, :] if zero_u else x[nu + nv:].reshape(shape + (d,))
        return x[:nu].reshape(u.shape + (rows, 1)), xv, xw
    if not np.isfinite(z).all():
        finite = np.isfinite(u) & np.isfinite(v)
        if not finite.all():
            k = int(finite.argmin())
            uk, vk = (np.broadcast_to(x, shape).reshape(-1)[k] for x in (u, v))
            raise ValueError(f"non-finite input {complex(vk if np.isfinite(uk) else uk)!r}")
    z0, a, b = _split_lattice_grid(z, tau)
    near = _reduced_guard_distance(z0, tau, guard) < guard
    if near.any():
        # the arguments and flags as (N, 3d - first) arrays, point by point
        z, near = (
            np.concatenate([np.broadcast_to(x, shape + x.shape[-1:]) for x in (xu[..., 0], xv[..., 0, :], xw)],
                           axis=-1).reshape(-1, 3 * d - first)
            for xu, xv, xw in (parts(z), parts(near))
        )
        raise _twist_pole_error(z, near, pairs.m, guard, tau)
    theta = _theta_raw_grid(z0, tau, (0, 1) if zeta else (0,))
    # the arithmetic of kronecker_F, with the sign (-1)^(a+b) on each theta.
    # The exponent of the quasi-periodicity factor of theta11(w) /
    # (theta11(u) theta11(v)) is combined before one exp, with the
    # prefactor's exponent added: each theta factor alone overflows once
    # |Im u| exceeds about 20*Im(tau), although their quotient is O(1).
    (u0, v0, w0), (bu, bv, bw), (tu, tv, tw) = (
        parts(x) for x in (z0, b, (1.0 - 2.0 * np.mod(a + b, 2.0)) * theta[0])
    )
    # each pair's sum: the sum argument m, and its carry
    w0, bw, tw = (x.take(pairs.m, axis=-1) for x in (w0, bw, tw))
    bw += pairs.carry
    exponent = -1j * math.pi * (bw * bw - bu * bu - bv * bv) * tau - TWO_PI_I * (
        bw * w0 - bu * u0 - bv * v0
    ) + (TWO_PI_I * (pairs.pq * tau) + pairs.p_2pi_i * v[..., None, None])
    if not zero_u:
        exponent += pairs.q_2pi_i * u[..., None, None]
    tuv = tw * pairs.carry_sign
    table = m.theta_prime0 / TWO_PI_I * tuv / (tu * tv) * np.exp(exponent)
    table = table.reshape((math.prod(shape), rows, d))
    if not zeta:
        return table
    x0, xa, xb, t0, t1 = (x[nu:nu + nv].reshape(-1, d) for x in (z0, a, b, *theta))
    return table, _zeta_reduced(m, x0, xa, xb, t0, t1) - pairs.q * m.eta2


# ---------------------------------------------------------------------------
# Weierstrass functions


def _zeta_reduced(m: ModularParam, x0, a, b, t0, t1):
    # zeta(x0 + a + b*tau) from theta11 and theta11' at the reduced point x0
    return m.eta1 * x0 + t1 / t0 + a * m.eta1 + b * m.eta2


def _guarded_theta_at(x: complex, m: ModularParam, guard: float, orders: tuple) -> tuple:
    """The reduction (x0, a, b) of ``x`` followed by the termwise theta11
    derivatives of ``orders`` at x0; raises within ``guard`` of the lattice."""
    _check_finite(x)
    if lattice_distance(x, m.tau) < guard:
        raise PoleProximityError(f"x = {x!r} is within {guard} of the lattice")
    x0, a, b = split_lattice(x, m.tau)
    return (x0, a, b, *_theta_at(x0, m.tau, orders))


def weierstrass_zeta(x: complex, m: ModularParam, *, guard: float = POLE_GUARD) -> complex:
    """Weierstrass zeta function for the lattice Z + Z*tau."""
    return _zeta_reduced(m, *_guarded_theta_at(x, m, guard, (0, 1)))


def weierstrass_p(x: complex, m: ModularParam, *, guard: float = POLE_GUARD) -> complex:
    """Weierstrass elliptic function wp(x) = -zeta'(x); doubly periodic."""
    _, _, _, t0, t1, t2 = _guarded_theta_at(x, m, guard, (0, 1, 2))
    ratio = t1 / t0
    return -m.eta1 - t2 / t0 + ratio * ratio


def zeta_char(char: Characteristic, x: complex, m: ModularParam, *, guard: float = POLE_GUARD) -> complex:
    """Characteristic-shifted zeta: zeta(x + r1 + r2*tau) - r1*eta1 - r2*eta2.

    Exactly 1-periodic in both characteristic entries.
    """
    red = char.reduced()
    r1 = float(red.p)
    r2 = float(red.q)
    return weierstrass_zeta(x + r1 + r2 * m.tau, m, guard=guard) - r1 * m.eta1 - r2 * m.eta2
