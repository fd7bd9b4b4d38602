"""Laurent/Taylor analysis of the solution families.

Coefficients of r(u, v) around u = 0 are extracted by trapezoidal contour
quadrature (spectrally accurate for analytic integrands), comparing 8 with
16 nodes and doubling until two successive node counts agree.  On a circle
that keeps clear of every other singularity the trapezoid rule converges
geometrically, at a rate fixed by the ratio of the distance to the nearest
one to the radius (Trefethen & Weideman, SIAM Review 2014): the u-circles
of the scalar families have radius R(v)/16, R(v) the family's distance from
u = 0 to the nearest other u-pole or zero, so 16 to 32 nodes settle them.

The extraction works on rows: one call integrates many functions, each on
its own circle.  The first evaluation of the integrand covers 16 nodes of
every row, whose even nodes give the 8-node estimate, and each later one
covers the odd nodes of the next count on every row that has not settled
(the even nodes are the previous count's).  A row needs two estimates to
settle, so none settles below 16 nodes, and a row that settles there
costs one evaluation.  Each row doubles and applies the agreement test on
its own and leaves the grid once it settles, so it ends at the node count
a lone extraction would, with the same nodes.  The roots of unity and the
weights e^(-i*m*theta)/n depend on n and the powers alone and are tabled
once per (n, powers).

Every u-expansion, scalar or matrix, is one such extraction with a row per
point v (:func:`_u_coeffs`): each row's values are the (n, n, n, n)
tensors of r at its nodes, evaluated for all rows at once through
``solutions.eval_aybe_array`` on whole arrays, 2048 / n^2 points at a
time.  Its circle is R(v)/16, or the fixed radius a public function takes.
The nested contours (r0' is a contour of r0, the v-series of r0 is
another) pass their whole outer x inner node grid down as rows of one
extraction, and the matrix relations (aux5, reconstruction) extract v,
v + v' and v' of all their pairs as rows of one extraction and form all
their products on the stacks with one batched matrix product
(:func:`aybe.verify._dense_products`, the dense product path of
:mod:`aybe.verify`).  On top of the extraction sit:

* the scalar normal form r0(v) = 1/v + c3*v^3 + c5*v^5 + ... and the
  classification invariant C = c5^2 / c3^3,
* the first-order relation r1 = (r0' + r0^2)/2 for scalar families,
* the scalar functional equation in r0 alone ("aux4" below),
* the tensor coefficient identity relating r0 and r1 ("aux5"),
* the degree-2 reconstruction relations that pin r2 in terms of r-1..r1.

The reconstruction relations come from expanding the two-variable identity
in powers of (u, u'); after clearing the denominators u*u'*(u+u') the
coefficient of each monomial must vanish.  With the pole coefficient
normalized to the identity, total degree 3 yields the r0/r1 identity and
total degree 4 yields two independent bilinear relations involving r2,
which is what check_reconstruction_chain verifies.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DomainError, NonConvergenceError, PoleProximityError
from .solutions import SolutionHandle, _u_circle_radii, eval_aybe_array
from .special import POLE_GUARD, _pole_error
from .tensors import MatrixTensor2, MatrixTensor3, _embed_array
from .verify import ResidualReport, _dense_products, _frobenius, _make_report, _max_abs, _product_forms

__all__ = [
    "INFINITY",
    "LaurentSeries",
    "ScalarClassification",
    "extract_u_series",
    "scalar_r0",
    "scalar_r0_series",
    "normalize_scalar_r0",
    "classify_scalar",
    "pole_normalized_handle",
    "check_r1_relation",
    "check_aux4",
    "check_aux5",
    "check_reconstruction_chain",
]

INFINITY = float("inf")

Coefficient = Union[complex, MatrixTensor2]


@dataclass(frozen=True)
class LaurentSeries:
    """Contour-extracted coefficients; index k holds the coefficient of
    (variable)^(leading_order + k)."""

    leading_order: int
    coeffs: tuple
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("extraction radius must be positive")

    def coefficient(self, power: int) -> Coefficient:
        idx = power - self.leading_order
        if idx < 0 or idx >= len(self.coeffs):
            raise IndexError(f"power {power} not extracted")
        return self.coeffs[idx]


@dataclass(frozen=True)
class ScalarClassification:
    """Normal-form data of a scalar family.

    ``C`` is c5^2/c3^3, the INFINITY marker when c3 vanishes but c5 does
    not, and None in the rational case where both vanish.
    """

    c3: complex
    c5: complex
    C: Optional[Union[complex, float]]
    family_verdict: str

    def to_dict(self) -> dict:
        if self.C is None:
            c_val = None
        elif self.C == INFINITY:
            c_val = "infinity"
        else:
            c_val = [complex(self.C).real, complex(self.C).imag]
        return {
            "c3": [self.c3.real, self.c3.imag],
            "c5": [self.c5.real, self.c5.imag],
            "C": c_val,
            "family_verdict": self.family_verdict,
        }


# ---------------------------------------------------------------------------
# contour extraction
# ---------------------------------------------------------------------------

_N_START = 8
_N_MAX = 4096
# relative agreement of two successive contour estimates
_CONTOUR_TOL = 1e-10
_TRIG_POINT = -20.0 / 49.0


@lru_cache(maxsize=None)
def _unit_nodes(n: int) -> np.ndarray:
    """The n-th roots of unity e^{2 pi i k/n}, k = 0..n-1 (read-only)."""
    nodes = np.exp(1j * (2.0 * math.pi * np.arange(n) / n))
    nodes.flags.writeable = False
    return nodes


@lru_cache(maxsize=64)
def _unit_weights(n: int, powers: Tuple[int, ...]) -> np.ndarray:
    """weights[power, node] = e^{-i m theta_k} / n on the unit circle.

    The phase m*theta_k is reduced mod 2*pi on the node index, exactly, so
    a high power does not magnify the rounding of theta; n is a power of
    two, so the division by n is exact."""
    theta = 2.0 * math.pi * np.arange(n) / n
    m = np.asarray(powers)
    weights = np.exp(1j * theta[(-m[:, None] * np.arange(n)) % n]) / n
    weights.flags.writeable = False
    return weights


def _contour_coefficients(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    powers: Sequence[int],
    radius,
    guards: int = 0,
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Coefficients at the given powers of one function per row.

    Row k is sampled on the circle of radius ``radius[k]`` about 0:
    ``fn(rows, z)`` gets the row indices and their nodes, shape
    (len(rows), m), and returns the values there, shape (len(rows), m, ...).
    Each row doubles its node count until two successive estimates agree to
    _CONTOUR_TOL (relative).  The first call evaluates 2*_N_START nodes, whose
    even nodes give the _N_START estimate, so a row that settles at the
    first comparison costs one call; when every row does, the estimates are
    returned as they are, and the per-row bookkeeping of the rows still
    active starts only once some row lags.  The first ``guards`` powers are
    estimated on the same nodes but left out of the agreement test: they
    guard coefficients that should vanish, and the test for that need not
    hold the other powers to more nodes.  Returns one array of shape
    (rows, ...) per power and the node count each row settled at.
    """
    radius = np.asarray(radius, dtype=float).reshape(-1)
    powers = tuple(int(m) for m in powers)
    m = np.asarray(powers)
    # radius^-m per (row, power, node) and radius^m per (row, tested power, entry)
    r_neg = (radius[:, None] ** -m)[:, :, None]
    r_pos = (radius[:, None] ** m[guards:])[:, :, None]

    n = 2 * _N_START
    values = np.asarray(fn(np.arange(radius.size), radius[:, None] * _unit_nodes(n)), dtype=complex)
    shape = values.shape[2:]
    width = math.prod(shape)  # the entries of a value, also for no rows

    def estimate(values: np.ndarray, n: int, r_neg: np.ndarray) -> np.ndarray:
        # weights[row, power, node] = e^{-i m theta} / n * radius^-m
        weights = r_neg * _unit_weights(n, powers)
        return np.matmul(weights, values.reshape(len(values), n, width))

    def settled(values, n, current, previous, r_pos) -> np.ndarray:
        # compare successive estimates in the sup metric on the circle
        # (weight c_m by radius^m) so the test is radius-independent
        scale = np.maximum(np.abs(values.reshape(len(values), n, width)).max(axis=(1, 2)), 1.0)
        drift = np.abs(current[:, guards:] - previous[:, guards:])
        return (drift * r_pos).max(axis=(1, 2)) <= _CONTOUR_TOL * scale

    # the even nodes of n are the nodes of n/2
    previous = estimate(np.ascontiguousarray(values[:, 0::2]), n // 2, r_neg)
    current = estimate(values, n, r_neg)
    done = settled(values, n, current, previous, r_pos)
    if done.all():
        coeffs = current.reshape((radius.size, m.size) + shape)
        return [coeffs[:, i] for i in range(m.size)], np.full(radius.size, n)

    coeffs = np.empty((radius.size, m.size) + shape, dtype=complex)
    nodes = np.zeros(radius.size, dtype=int)
    active = np.arange(radius.size)
    while True:
        coeffs[active[done]] = current[done].reshape((-1, m.size) + shape)
        nodes[active[done]] = n
        keep = ~done
        active, values, previous = active[keep], values[keep], current[keep]
        if not active.size:
            return [coeffs[:, i] for i in range(m.size)], nodes
        n *= 2
        if n > _N_MAX:
            raise NonConvergenceError(
                f"contour quadrature did not settle below {_CONTOUR_TOL} with {_N_MAX} nodes"
            )
        fresh = np.asarray(
            fn(active, radius[active, None] * _unit_nodes(n)[1::2]), dtype=complex
        )
        merged = np.empty((active.size, n) + shape, dtype=complex)
        merged[:, 0::2] = values
        merged[:, 1::2] = fresh
        values = merged
        current = estimate(values, n, r_neg[active])
        done = settled(values, n, current, previous, r_pos[active])


def _u_coeffs(
    h: SolutionHandle, v: np.ndarray, powers: Sequence[int], radius: Optional[float] = None
) -> List[np.ndarray]:
    """The u^m coefficients, m in ``powers``, at every point of the array
    ``v``, one row of a single extraction per point, each of shape
    v.shape + (n, n, n, n).

    With a ``radius`` every circle about u = 0 has that radius.  Without,
    the circle at v has radius R(v)/16, R(v) the distance to the nearest
    other u-pole or zero, so its first 8 nodes already carry the
    coefficient to about 16^-8; a family without pole data (custom,
    callable gauge) gets min(0.02, |v|/4).  An R(v) within the pole guard
    puts v itself on the lattice, and v is named as the pole."""
    flat = v.reshape(-1)
    shape = (h.n,) * 4
    if not flat.size:
        return [np.empty(v.shape + shape, dtype=complex) for _ in powers]
    if radius is not None:
        radius = np.full(flat.shape, radius, dtype=float)
    else:
        radius = _u_circle_radii(h, flat, 16.0)
        if radius is None:
            radius = np.where(flat != 0, np.minimum(0.02, np.abs(flat) / 4.0), 0.02)
        else:
            _, _, c3, c4 = h.rescale
            # a Python min: on the few to a hundred radii of a call it costs
            # a third of numpy's reduction, and classify calls this per contour
            if min(radius.tolist()) * (16.0 * abs(c3)) < POLE_GUARD:
                k = int((radius * (16.0 * abs(c3)) < POLE_GUARD).argmax())
                raise _pole_error("v", complex(c4 * flat[k]), POLE_GUARD, h.tau)

    # the n^4 entries of a value on one axis: the contour's arrays keep
    # three axes, which numpy walks faster than six
    def fn(rows: np.ndarray, z: np.ndarray) -> np.ndarray:
        return eval_aybe_array(h, z, flat[rows, None]).reshape(z.shape + (-1,))

    coeffs, _ = _contour_coefficients(fn, powers, radius)
    return [c.reshape(v.shape + shape) for c in coeffs]


def _u_series(h: SolutionHandle, v: np.ndarray, order: int, radius: float) -> List[np.ndarray]:
    """r_{-1}, r_0, ..., r_order at every point of the 1-d array ``v``, on
    circles of the given ``radius``, each (len(v), n, n, n, n).  A
    coefficient at u^(-2) guards against a higher-order pole or a stray
    pole inside a circle: it must vanish to 1e-9 of the point's largest
    coefficient."""
    if order < -1:
        raise ValueError("order must be at least -1")
    raw = _u_coeffs(h, v, range(-2, order + 1), radius)
    peak = np.abs(np.stack(raw)).reshape(len(raw), len(v), h.n**4).max(axis=2, initial=0.0)
    stray = peak[0] > 1e-9 * np.maximum(peak.max(axis=0), 1.0)
    if stray.any():
        raise PoleProximityError(
            "u-expansion is not a simple pole at 0 on this circle "
            f"(|c_-2| = {peak[0][stray.argmax()]:.3e})"
        )
    return raw[1:]


def extract_u_series(
    h: SolutionHandle, v: complex, order: int, radius: float = 0.05
) -> LaurentSeries:
    """Laurent coefficients r_{-1}, r_0(v), ..., r_order(v) of u -> r(u, v),
    read off the circle |u| = ``radius``; a preliminary coefficient at
    u^(-2) guards against a higher-order pole or a stray pole inside it."""
    coeffs = _u_series(h, np.array([v], dtype=complex), order, radius)
    wrap = MatrixTensor2 if h.n > 1 else (lambda c: complex(c.reshape(())))
    return LaurentSeries(
        leading_order=-1, coeffs=tuple(wrap(c[0]) for c in coeffs), radius=radius
    )


# ---------------------------------------------------------------------------
# scalar coefficient functions of v
# ---------------------------------------------------------------------------

def _require_scalar(h: SolutionHandle) -> None:
    if h.n != 1:
        raise DomainError(f"{h.family} is not a scalar family")


def _as_given(v, values: np.ndarray):
    """A scalar family's ``values`` at the points of ``v``, shape
    np.shape(v): a complex number when v is one."""
    values = values.reshape(np.shape(v))
    return values if np.ndim(v) else complex(values)


def scalar_r0(h: SolutionHandle, v):
    """The u^0 coefficient of a scalar family at fixed v (or at every point
    of an array v)."""
    _require_scalar(h)
    return _as_given(v, _u_coeffs(h, np.asarray(v, dtype=complex), [0])[0])


def scalar_r1(h: SolutionHandle, v):
    """The u^1 coefficient of a scalar family at fixed v (or at every point
    of an array v)."""
    _require_scalar(h)
    return _as_given(v, _u_coeffs(h, np.asarray(v, dtype=complex), [1])[0])


def scalar_r0_derivative(h: SolutionHandle, v):
    """d/dv of the u^0 coefficient, by a second contour around v (or around
    every point of an array v)."""
    _require_scalar(h)
    pts = np.asarray(v, dtype=complex)
    flat = pts.reshape(-1)

    def fn(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
        return _u_coeffs(h, flat[rows, None] + w, [0])[0].reshape(w.shape)

    (c,), _ = _contour_coefficients(fn, [1], np.minimum(0.02, np.abs(flat) / 3.0))
    return _as_given(v, c)


def scalar_r0_series(
    h: SolutionHandle, order: int, radius: float = 0.05
) -> LaurentSeries:
    """Laurent coefficients of v -> r0(v) around v = 0, powers -1..order.

    ``radius`` must be positive and finite.  The coefficients at v^-7 ..
    v^-2 must vanish, or the circle holds another pole of r0 and
    PoleProximityError is raised.  For the shipped families those poles
    come in orbits of the rotations of a lattice (+-p for scalar-trig, the
    order 2, 4 or 6 rotation group for scalar-kronecker), and an orbit
    cancels in c_-k unless the order divides k - 1: the pair +-p shows in
    c_-3, the square lattice (tau = i) in c_-5 and the hexagonal one in
    c_-7."""
    _require_scalar(h)
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"extraction radius must be positive and finite, not {radius}")

    def fn(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        return _u_coeffs(h, x, [0])[0].reshape(x.shape)

    # c_-7 .. c_-3 are only tested for vanishing, so they stay out of the
    # agreement test and cost no node
    powers = list(range(-7, order + 1))
    raw = [complex(c[0]) for c in _contour_coefficients(fn, powers, radius, guards=5)[0]]
    scale = max(max(abs(c) for c in raw), 1.0)
    stray = max(range(6), key=lambda k: abs(raw[k]))
    if abs(raw[stray]) > 1e-8 * scale:
        raise PoleProximityError(
            f"r0 does not have a simple pole at v = 0 alone on the circle of radius "
            f"{radius} (|c_{powers[stray]}| = {abs(raw[stray]):.3e}); it holds another pole"
        )
    return LaurentSeries(leading_order=-1, coeffs=tuple(raw[6:]), radius=radius)


def _u_pole(h: SolutionHandle) -> complex:
    """The u-pole coefficient, read off at one v."""
    return complex(_u_coeffs(h, np.asarray(0.31 + 0.07j), [-1])[0].reshape(()))


# ---------------------------------------------------------------------------
# scalar normal form and classification
# ---------------------------------------------------------------------------

def normalize_scalar_r0(
    h: SolutionHandle, order: int = 5, radius: float = 0.05
) -> Tuple[LaurentSeries, tuple]:
    """Normal form of r0: kill the v^1 coefficient and set the residue to 1.

    The group action r(u,v) -> c*exp(c2*u*v)*r(c*u, c4*v) sends
    r0(v) -> c*r0(c4*v) + rho*c2*v, where rho is the u-pole coefficient.
    We keep c4 = 1 (the invariant C is insensitive to that freedom) and
    return the transformed coefficients together with the rescale
    quadruple (c1, c2, c3, c4) realizing them on the handle.
    """
    series, rescale, _ = _normalize_r0(h, order, radius)
    return series, rescale


def _normalize_r0(
    h: SolutionHandle, order: int, radius: float
) -> Tuple[LaurentSeries, tuple, complex]:
    """:func:`normalize_scalar_r0`, and the u-pole coefficient rho of ``h``
    that it extracted."""
    _require_scalar(h)
    series = scalar_r0_series(h, order, radius)
    a = {k: series.coefficient(k) for k in range(-1, order + 1)}
    if abs(a[-1]) < 1e-12:
        raise DomainError("r0 has no simple pole at v = 0; cannot normalize")
    rho = _u_pole(h)
    if abs(rho) < 1e-14:
        raise DomainError("u-pole coefficient vanishes; cannot normalize")
    c = 1.0 / a[-1]
    c2 = -c * a[1] / rho
    normalized = []
    for k in range(-1, order + 1):
        value = c * a[k]
        if k == 1:
            value += rho * c2
        normalized.append(complex(value))
    c1, old_c2, c3, c4 = h.rescale
    # The transform is r(u,v) -> c*exp(c2*u*v)*r(c*u, v); pushing the u
    # rescale through an existing exp factor multiplies its exponent by c.
    rescale = (c1 * c, c * old_c2 + c2, c3 * c, c4)
    return (
        LaurentSeries(leading_order=-1, coeffs=tuple(normalized), radius=radius),
        rescale,
        rho,
    )


def classify_scalar(h: SolutionHandle, radius: float = 0.3) -> ScalarClassification:
    """Normal-form invariants (c3, c5) and the classification parameter C.

    The coefficients are read off a circle of the given ``radius``; an
    error e in r0 becomes about e/radius^5 in c5, which controls C.  The
    circle must hold no other pole of r0, or :func:`scalar_r0_series`
    raises PoleProximityError.  That pole is 2*pi*i for scalar-trig, and
    the shortest nonzero lattice vector min |m + n*tau| for
    scalar-kronecker: at least 1 for tau in the fundamental domain, but
    0.806 at tau = 0.1+0.8i.  The default 0.3 is not wide: for
    scalar-trig it gives C = -4.081632663461e-01+2.9e-9j, 3.1e-9 from
    -20/49 (the rounding of r0 on 16 nodes, over 0.3^5), while
    ``radius=1.5`` gives C within 1.1e-14 of it.  A c3, c5 or C that is
    not finite raises DomainError instead of a verdict.
    """
    series, _ = normalize_scalar_r0(h, order=5, radius=radius)
    c3 = series.coefficient(3)
    c5 = series.coefficient(5)
    # every comparison with NaN is false: no window decides on such a C
    if not (cmath.isfinite(c3) and cmath.isfinite(c5)):
        raise DomainError(f"c3 = {c3!r} and c5 = {c5!r} give no finite C")
    if abs(c3) < 1e-12:
        if abs(c5) > 1e-10:
            return ScalarClassification(c3, c5, INFINITY, "elliptic-like")
        return ScalarClassification(c3, c5, None, "rational-like")
    big_c = c5 * c5 / (c3 * c3 * c3)
    if not cmath.isfinite(big_c):
        raise DomainError(f"C = c5^2/c3^3 overflows at c3 = {c3!r}, c5 = {c5!r}")
    if abs(big_c - _TRIG_POINT) < 1e-8 * max(1.0, abs(big_c)):
        verdict = "trigonometric-like"
    else:
        verdict = "elliptic-like"
    return ScalarClassification(c3, c5, big_c, verdict)


# ---------------------------------------------------------------------------
# pole normalization for matrix families
# ---------------------------------------------------------------------------

def pole_normalized_handle(
    h: SolutionHandle, v_probe: complex = 0.31 + 0.07j, radius: float = 0.04
) -> SolutionHandle:
    """Rescale so the u-pole coefficient becomes exactly 1 (x) 1.

    The coefficient is extracted numerically (not read from a table) and
    required to be a scalar multiple of 1 (x) 1.
    """
    ((rm1,),) = _u_series(h, np.array([v_probe], dtype=complex), -1, radius)
    rho = complex(rm1[0, 0, 0, 0])
    eye = np.eye(h.n, dtype=complex)
    gap = np.max(np.abs(rm1 - np.einsum("ij,kl->ijkl", eye, eye) * rho))
    if gap > 1e-8 * max(1.0, abs(rho)):
        raise DomainError(
            f"u-pole coefficient is not proportional to 1 (x) 1 (gap {gap:.3e})"
        )
    if abs(rho) < 1e-14:
        raise DomainError("u-pole coefficient vanishes; nothing to normalize")
    c1, c2, c3, c4 = h.rescale
    return replace(h, rescale=(c1 / rho, c2, c3, c4))


def _normal_form_handle(h: SolutionHandle) -> SolutionHandle:
    """Scalar handle rescaled to 1/u + 1/v + c3*v^3 + c5*v^5 + ... form.

    Composes the r0 normalization (unit v-residue, no v^1 term) with a
    final u-rescale that makes the u-pole coefficient exactly 1.  The
    Laurent identities below hold in this normal form, not for arbitrary
    members of the rescale orbit: e.g. for raw r0(v) = coth(v/2)/2 the
    aux4 combination is identically 1/4, and the -v/12 correction from
    killing the v^1 term is exactly what cancels it.
    """
    _, rescale, rho = _normalize_r0(h, 5, 0.05)
    hn = replace(h, rescale=rescale)
    # the r0 rescale multiplies c1 and c3 by the same c, so the u-pole
    # coefficient c1*rho/c3 of hn is the rho of h
    c1, c2, c3, c4 = hn.rescale
    # u -> rho*u on the realized handle: both the base argument and the
    # exp(c2*u*v) exponent see the rescaled u, so c2 scales with c3.  This
    # leaves r0 untouched and divides the u-pole coefficient by rho.
    return replace(hn, rescale=(c1, c2 * rho, c3 * rho, c4))


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def check_r1_relation(
    h: SolutionHandle, pts: Sequence[complex]
) -> ResidualReport:
    """Residual of r1(v) = (r0'(v) + r0(v)^2) / 2 for scalar families.

    Evaluated in the normal form (see _normal_form_handle); the relation
    is not invariant under the exp(c2*u*v) part of the rescale group.
    """
    hn = _normal_form_handle(h)
    v_all = np.array(pts, dtype=complex)
    r0_all, r1_all = (c.reshape(v_all.shape) for c in _u_coeffs(hn, v_all, [0, 1]))
    expected = 0.5 * (scalar_r0_derivative(hn, v_all) + r0_all * r0_all)
    res = np.abs(r1_all - expected)
    scale = np.maximum(np.maximum(np.abs(r1_all), np.abs(expected)), 1.0)
    return _make_report("r1-relation", [(v,) for v in pts], res, res / scale, 1e-8, 0)


def check_aux4(h: SolutionHandle, v: complex, vp: complex) -> complex:
    """(r0(v)+r0(v')-r0(v+v'))^2 + r0'(v) + r0'(v') + r0'(v+v').

    Evaluated on the normal-form r0 (unit residue, no v^1 term) — the
    combination shifts by 3*kappa when r0 shifts by kappa*v, so it only
    vanishes in that gauge.
    """
    hn = _normal_form_handle(h)
    points = np.array([v, vp, v + vp], dtype=complex)
    r0 = [complex(x) for x in _u_coeffs(hn, points, [0])[0].reshape(-1)]
    r0p = [complex(x) for x in scalar_r0_derivative(hn, points)]
    return (r0[0] + r0[1] - r0[2]) ** 2 + r0p[0] + r0p[1] + r0p[2]


def _legged_coeffs(
    h: SolutionHandle, pairs: Sequence[Tuple[complex, complex]], order: int, radius: float
) -> List[np.ndarray]:
    """r_0 .. r_order at v, v+v' and v' of every (v, v') pair, the points of
    legs 12, 13 and 23, from one extraction: one (3, P, n, n, n, n) array
    per order."""
    pts = np.array([(v, v + vp, vp) for v, vp in pairs], dtype=complex).reshape(-1, 3).T
    coeffs = _u_series(h, pts.reshape(-1), order, radius)[1:]
    return [c.reshape(pts.shape + (h.n,) * 4) for c in coeffs]


# the left side of :func:`check_aux5` as a term table of
# :func:`aybe.verify._product_forms` on r0 at the points of legs 12, 13 and 23
_AUX5_TERMS = ((1, 0, "12", 1, "13"), (-1, 2, "23", 0, "12"), (1, 1, "13", 2, "23"))


def check_aux5(
    h: SolutionHandle, v: complex, vp: complex, radius: float = 0.04
) -> MatrixTensor3:
    """Residual of the degree-3 coefficient identity

        r0_12(v) r0_13(v+v') - r0_23(v') r0_12(v) + r0_13(v+v') r0_23(v')
            = r1_12(v) + r1_23(v') + r1_13(v+v')

    on the pole-normalized handle (for n = 1 this is the scalar identity
    with all leg embeddings trivial)."""
    hn = pole_normalized_handle(h)
    r0, (a1, b1, c1) = _legged_coeffs(hn, [(v, vp)], 1, radius)
    _, (lhs,) = _product_forms(r0, _AUX5_TERMS, ("aybe",), _dense_products)
    rhs = _embed_array(a1, "12") + _embed_array(c1, "23") + _embed_array(b1, "13")
    return MatrixTensor3((lhs.reshape(rhs.shape) - rhs)[0])


# the six products of :func:`_reconstruction_from_coeffs`, rows (x, legs_x,
# y, legs_y) of :func:`aybe.verify._dense_products` on A0, B0, C0, A1, B1
# and C1: A0 B1, A1 B0, C1 A0, C0 A1, B1 C0 and B0 C1
_RECONSTRUCTION_ROWS = (
    (0, "12", 4, "13"), (3, "12", 1, "13"), (5, "23", 0, "12"),
    (2, "23", 3, "12"), (4, "13", 2, "23"), (1, "13", 5, "23"),
)


def _reconstruction_from_coeffs(coeffs: List[np.ndarray]) -> Tuple[tuple, np.ndarray]:
    """The three degree-4 coefficient relations pinning r2, from the legged
    coefficients of :func:`_legged_coeffs` (order 2), and each pair's scale.

    Expanding the two-variable identity with the pole coefficient equal to
    the identity and clearing u*u'*(u+u'), the coefficients of u^3*u',
    u*u'^3 and u^2*u'^2 give (legs: A=12 at v, B=13 at v+v', C=23 at v'):

        2*B2 + C2 + A2 = A0*B1 - C1*A0 - C0*A1 + B1*C0
        A2 - B2 - 2*C2 = -(A0*B1 - A1*B0 - C1*A0 + B0*C1)
        3*B2 + 3*C2    = 2*A0*B1 - A1*B0 - 2*C1*A0 - C0*A1 + B1*C0 + B0*C1

    where the third is the sum of the first two.  All three residuals
    (LHS - RHS) are returned, each (P, n, n, n, n, n, n).
    """
    _, product = _dense_products(np.concatenate(coeffs[:2]), _RECONSTRUCTION_ROWS, 0)
    a2, b2, c2 = map(_embed_array, coeffs[2], ("12", "13", "23"))
    a0b1, a1b0, c1a0, c0a1, b1c0, b0c1 = (product(r).reshape(a2.shape) for r in range(6))

    lhs1 = b2 * 2.0 + c2 + a2
    rhs1 = a0b1 - c1a0 - c0a1 + b1c0
    lhs2 = a2 - b2 - c2 * 2.0
    rhs2 = -(a0b1 - a1b0 - c1a0 + b0c1)
    lhs3 = (b2 + c2) * 3.0
    rhs3 = a0b1 * 2.0 - a1b0 - c1a0 * 2.0 - c0a1 + b1c0 + b0c1
    scale = np.maximum(np.maximum(_frobenius(rhs1), _frobenius(rhs3)), _frobenius(a2))
    return (lhs1 - rhs1, lhs2 - rhs2, lhs3 - rhs3), np.maximum(scale, 1.0)


def check_reconstruction_chain(
    h: SolutionHandle,
    pts: Sequence[Tuple[complex, complex]],
    tolerance: float = 1e-6,
    radius: float = 0.04,
) -> ResidualReport:
    """Evaluate the degree-2 reconstruction relations at (v, v') pairs."""
    hn = pole_normalized_handle(h)
    samples = [(v, vp) for v, vp in pts]
    residuals, scale = _reconstruction_from_coeffs(_legged_coeffs(hn, samples, 2, radius))
    worst = np.maximum.reduce([_max_abs(res) for res in residuals])
    return _make_report("reconstruction", samples, worst, worst / scale, tolerance, 0)
