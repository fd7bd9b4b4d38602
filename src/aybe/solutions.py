"""Solution families of the associative and classical Yang-Baxter equations.

Every family is packaged as an immutable :class:`SolutionHandle` that can be
evaluated to a :class:`~aybe.tensors.MatrixTensor2`.  The elliptic families
are built from Kronecker theta quotients with rational characteristics, the
trigonometric families are explicit rational expressions in exp(u), exp(v),
and the scalar families are plain complex-valued functions.

Conventions
-----------
* Additive spectral variables throughout.  For the trigonometric families
  lam = exp(u), mu = exp(v), and every half-integer power is evaluated
  branch-free as exp of half the additive variable.
* Rescaling acts as  c1 * exp(c2*u*v) * r(c3*u, c4*v).
* A gauge phi(x, y) acts as the sandwich
  (phi(0,v) (x) phi(u,0)) . r(u,v) . (phi(u,v) (x) phi(0,0))^{-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainError
from .special import (
    TWO_PI_I,
    _kronecker_twist_grid,
    _lattice_distance_grid,
    _lattice_guard_distance,
    kronecker_F,
    modular_param,
)
from .tensors import MatrixTensor2, _graded_layout, _project_sl, _sandwich

__all__ = [
    "SolutionHandle",
    "GaugeSpec",
    "LimitResult",
    "elliptic_aybe",
    "elliptic_cybe",
    "trig_aybe",
    "trig_cybe",
    "scalar_kronecker",
    "scalar_trig",
    "scalar_rational",
    "custom_handle",
    "eval_aybe",
    "eval_aybe_array",
    "eval_cybe",
    "eval_cybe_array",
    "cybe_limit_of_aybe",
    "equivalence_transform",
    "paired_cybe_handle",
    "in_domain",
    "rho_theoretical",
    "handle_to_dict",
    "handle_from_dict",
]

_TWO_PI = 2.0 * math.pi

# an array evaluation calls a family's base on _CHUNK // n^2 points at a
# time (n x n matrices): bounds the temporaries of the Kronecker families,
# where an elliptic point forms its twist table on n^2 pairs
_CHUNK = 2048


@dataclass(frozen=True)
class GaugeSpec:
    """Descriptor of an equivalence transform phi(x, y).

    kind "constant": phi is a constant invertible matrix.
    kind "scalar_exp": phi(x, y) = exp(c*x*y) times the identity; the sandwich
    then reduces to the exact factor exp(-c*u*v).
    kind "callable": arbitrary phi(x, y) -> invertible (n, n) array.
    """

    kind: str
    matrix: Optional[np.ndarray] = None
    c: complex = 0.0
    fn: Optional[Callable[[complex, complex], np.ndarray]] = None

    def __post_init__(self):
        if self.kind not in ("constant", "scalar_exp", "callable"):
            raise ValueError(f"unknown gauge kind {self.kind!r}")
        if self.kind == "constant":
            if self.matrix is None:
                raise ValueError("constant gauge needs a matrix")
            object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))
        if self.kind == "callable" and self.fn is None:
            raise ValueError("callable gauge needs fn")


@dataclass(frozen=True)
class SolutionHandle:
    """Immutable description of one solution family plus transforms."""

    family: str
    d: int = 1
    r: int = 1
    tau: Optional[complex] = None
    a: complex = 1.0
    b: complex = 1.0
    rescale: tuple = (1.0 + 0j, 0.0 + 0j, 1.0 + 0j, 1.0 + 0j)
    gauge: Optional[GaugeSpec] = None
    eval_fn: Optional[Callable[[complex, complex], MatrixTensor2]] = None

    def __post_init__(self):
        spec = _FAMILIES.get(self.family)
        if spec is None:
            raise ValueError(f"unknown family {self.family!r}")
        if spec.elliptic and spec.n is None:  # the Mat(d) elliptic families
            if self.d < 1:
                raise ValueError("d must be >= 1")
            if math.gcd(self.r, self.d) != 1:
                raise ValueError("elliptic families require gcd(r, d) = 1")
        if spec.elliptic:
            if self.tau is None or complex(self.tau).imag <= 0:
                raise ValueError("elliptic families need tau with Im tau > 0")
        if spec.cli_name is None and self.eval_fn is None:
            raise ValueError("custom family needs eval_fn")
        c1, _, c3, c4 = self.rescale
        if c1 == 0 or c3 == 0 or c4 == 0:
            raise ValueError("rescale constants c1, c3, c4 must be nonzero")

    @property
    def n(self) -> int:
        n = _FAMILIES[self.family].n
        return self.d if n is None else n

    @property
    def is_aybe(self) -> bool:
        return _FAMILIES[self.family].two_variable

    @property
    def is_cybe(self) -> bool:
        return not _FAMILIES[self.family].two_variable


# ---------------------------------------------------------------------------
# factories
# ---------------------------------------------------------------------------

def elliptic_aybe(d: int, r: int, tau: complex) -> SolutionHandle:
    return SolutionHandle(family="elliptic_aybe", d=d, r=r, tau=tau)


def elliptic_cybe(d: int, r: int, tau: complex) -> SolutionHandle:
    return SolutionHandle(family="elliptic_cybe", d=d, r=r, tau=tau)


def trig_aybe(which: int) -> SolutionHandle:
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    return SolutionHandle(family=f"trig_aybe{which}", d=2)


def trig_cybe(which: int) -> SolutionHandle:
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    return SolutionHandle(family=f"trig_cybe{which}", d=2)


def scalar_kronecker(tau: complex) -> SolutionHandle:
    return SolutionHandle(family="scalar_kronecker", tau=tau)


def scalar_trig() -> SolutionHandle:
    return SolutionHandle(family="scalar_trig")


def scalar_rational(a: complex = 1.0, b: complex = 1.0) -> SolutionHandle:
    return SolutionHandle(family="scalar_rational", a=a, b=b)


def custom_handle(fn: Callable[[complex, complex], MatrixTensor2], n: int) -> SolutionHandle:
    """Wrap an arbitrary two-variable tensor function (used for controls)."""
    return SolutionHandle(family="custom", d=n, eval_fn=fn)


# ---------------------------------------------------------------------------
# base evaluations (before rescale and gauge), on arrays that broadcast
# against each other to N points; each returns the (N, n, n, n, n)
# coefficients in the order of the flattened broadcast, or for a Heisenberg
# family (_Family.heisenberg) the (N, d, d) twist tables
# ---------------------------------------------------------------------------

def _place_twists(table: np.ndarray, d: int) -> np.ndarray:
    """(N, d^4) coefficients with each point's (d, d) twist table in place:
    entry t of the flat table at every position of column t of
    :func:`aybe.tensors._graded_layout`."""
    coeffs = np.zeros((len(table), d**4), dtype=complex)
    coeffs[:, _graded_layout(d)] = table.reshape(len(table), 1, d * d)
    return coeffs


def _eval_elliptic_aybe(h: SolutionHandle, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # rank r reduces to the line-bundle case on the lattice with r*tau
    d = h.d
    return _kronecker_twist_grid(d * h.r * u, -d * v, d, modular_param(d * h.r * h.tau))


def _eval_elliptic_cybe(h: SolutionHandle, v: np.ndarray) -> np.ndarray:
    # the F twists with p = j/d != 0 at u = 0 in rows j >= 1, and in row 0
    # the zeta terms, which the layout puts on the diagonal blocks
    d = h.d
    m = modular_param(d * h.r * h.tau)
    table, zetas = _kronecker_twist_grid(0.0, -d * v, d, m, first=1, zeta=True)
    mean = np.add.reduce(zetas, axis=1)[:, None] / d
    return np.concatenate((((zetas - mean) / TWO_PI_I)[:, None], table), axis=1)


def _trig_coeffs_1(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    lam = np.exp(u)
    mu = np.exp(v)
    one_l = 1.0 - lam
    one_m = 1.0 - mu
    k = (mu - lam) / (one_l * one_m)
    c = np.zeros(k.shape + (2,) * 4, dtype=complex)
    c[..., 0, 0, 0, 0] = k
    c[..., 1, 1, 1, 1] = k
    c[..., 0, 0, 1, 1] = -lam / one_l
    c[..., 1, 1, 0, 0] = -1.0 / one_l
    c[..., 1, 0, 0, 1] = 1.0 / one_m
    c[..., 0, 1, 1, 0] = mu / one_m
    return c.reshape((-1,) + (2,) * 4)


def _trig_coeffs_2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    lam = np.exp(u)
    mu = np.exp(v)
    smu = np.exp(v / 2.0)
    slm = np.exp((u + v) / 2.0)
    one_l = 1.0 - lam
    one_m = 1.0 - mu
    k = (1.0 - lam * mu) / (one_l * one_m)
    c = np.zeros(k.shape + (2,) * 4, dtype=complex)
    c[..., 0, 0, 0, 0] = k
    c[..., 1, 1, 1, 1] = k
    c[..., 0, 0, 1, 1] = lam / one_l
    c[..., 1, 1, 0, 0] = 1.0 / one_l
    c[..., 1, 0, 0, 1] = smu / one_m
    c[..., 0, 1, 1, 0] = smu / one_m
    c[..., 1, 0, 1, 0] = slm - 1.0 / slm
    return c.reshape((-1,) + (2,) * 4)


def _trig_cybe_coeffs(which: int, v: np.ndarray) -> np.ndarray:
    mu = np.exp(v)
    one_m = 1.0 - mu
    hh = (1.0 + mu) / (4.0 * one_m)
    c = np.zeros(v.shape + (2,) * 4, dtype=complex)
    c[..., 0, 0, 0, 0] = hh
    c[..., 1, 1, 1, 1] = hh
    c[..., 0, 0, 1, 1] = -hh
    c[..., 1, 1, 0, 0] = -hh
    if which == 1:
        c[..., 1, 0, 0, 1] = 1.0 / one_m
        c[..., 0, 1, 1, 0] = mu / one_m
    else:
        smu = np.exp(v / 2.0)
        c[..., 1, 0, 0, 1] = smu / one_m
        c[..., 0, 1, 1, 0] = smu / one_m
        c[..., 1, 0, 1, 0] = smu - 1.0 / smu
    return c.reshape((-1,) + (2,) * 4)


def _scalar(formula: Callable) -> Callable:
    """Base of a scalar family from its value formula(h, u, v) on arrays."""
    return lambda h, u, v: formula(h, u, v).reshape(-1, 1, 1, 1, 1)


def _scalar_trig_value(h: SolutionHandle, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # symmetric in u <-> v, simple poles with residue +1 in each
    # variable: (exp(u+v) - 1) / ((exp(u) - 1) * (exp(v) - 1))
    return 1.0 / (np.exp(u) - 1.0) + 1.0 / (np.exp(v) - 1.0) + 1.0


def _custom_base(h: SolutionHandle, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    # an arbitrary Python callable: one call per point
    u, v = (x.reshape(-1) for x in np.broadcast_arrays(u, v))
    values = [h.eval_fn(complex(a), complex(b)).coeffs for a, b in zip(u, v)]
    return np.array(values, dtype=complex).reshape((len(u),) + (h.n,) * 4)


# ---------------------------------------------------------------------------
# polar loci (on the rescaled variables uu = c3*u, vv = c4*v), on complex
# arrays of any shape: each test returns the boolean array of the points that
# clear the loci by more than ``guard``.  Moduli are ``np.hypot`` of the real
# and imaginary parts, which is what Python's ``abs`` of a complex computes
# (numpy's complex ``abs`` can differ in the last bit), so that a point is
# accepted exactly when a scalar test with ``abs`` and
# :func:`aybe.special.lattice_distance` accepts it.
# ---------------------------------------------------------------------------

def _dist_to_two_pi_i(x: np.ndarray) -> np.ndarray:
    return np.hypot(x.real, x.imag - _TWO_PI * np.rint(x.imag / _TWO_PI))


def _clear_of_two_pi_i(
    h: SolutionHandle, uu: Optional[np.ndarray], vv: np.ndarray, guard: float
) -> np.ndarray:
    clear = _dist_to_two_pi_i(vv) > guard
    return clear if uu is None else (_dist_to_two_pi_i(uu) > guard) & clear


def _clear_of_lattice(tau: complex, guard: float, *points: np.ndarray) -> np.ndarray:
    """The points clear of Z + Z tau at every one of ``points``, from one
    lattice-distance test on their stack."""
    return (_lattice_guard_distance(np.array(points), tau, guard) > guard).all(axis=0)


def _clear_elliptic_aybe(h: SolutionHandle, uu: np.ndarray, vv: np.ndarray, guard: float) -> np.ndarray:
    x, y = h.d * h.r * uu, h.d * vv
    return _clear_of_lattice(h.r * h.tau, guard, x, y, x - y)


def _clear_kronecker(h: SolutionHandle, uu: np.ndarray, vv: np.ndarray, guard: float) -> np.ndarray:
    return _clear_of_lattice(h.tau, guard, uu, vv, uu + vv)


def _clear_of_zero(h: SolutionHandle, uu: np.ndarray, vv: np.ndarray, guard: float) -> np.ndarray:
    return (np.hypot(uu.real, uu.imag) > guard) & (np.hypot(vv.real, vv.imag) > guard)


# ---------------------------------------------------------------------------
# the family registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Family:
    """Everything the package knows about one value of ``SolutionHandle.family``."""

    # (h, u, v), or (h, v) for a one-variable family, on arrays that
    # broadcast to N points -> the (N, n, n, n, n) values before rescale
    # and gauge; the (N, d, d) twist tables of a Heisenberg family
    base: Callable[..., np.ndarray]
    # (h, uu, vv, guard) on complex arrays of one shape (uu None for a
    # one-variable family) -> the boolean array of the rescaled points that
    # clear the polar loci
    domain: Callable[[SolutionHandle, Optional[np.ndarray], np.ndarray, float], np.ndarray]
    rho: Optional[Callable[[SolutionHandle], complex]] = None  # u-pole coefficient
    # the CYBE handle of the u -> 0 limit
    partner: Optional[Callable[[SolutionHandle], SolutionHandle]] = None
    # (h, vv) -> distance from uu = 0 to the nearest other pole of uu -> r at
    # each rescaled vv of a 1-d array (or one number for all), or zero that
    # ``domain`` rejects; None: no pole data, so neither the u -> 0 limit nor
    # a pole-free u-circle of the series module
    u_pole_gap: Optional[Callable[[SolutionHandle, np.ndarray], np.ndarray]] = None
    n: Optional[int] = None  # matrix size; None: h.d
    two_variable: bool = True
    elliptic: bool = False
    # r is zero off the charge-0 entries (tensors._graded_layout), and each
    # entry depends only on the differences of its indices: the (Z/d)^2
    # Heisenberg symmetry of the theta functions with characteristics, so
    # ``base`` returns the twist tables.  Rescales and scalar_exp gauges
    # keep it (see _graded), constant and callable gauges do not.
    heisenberg: bool = False
    # None for custom: a Python callable can be neither named on the command
    # line nor serialized
    cli_name: Optional[str] = None
    # handle fields the command line supplies; only a and b are optional
    cli_args: Tuple[str, ...] = ()


# Insertion order is the order of the command line's family choices.
_FAMILIES = {
    "elliptic_aybe": _Family(
        base=_eval_elliptic_aybe,
        domain=_clear_elliptic_aybe,
        rho=lambda h: 1.0 / (TWO_PI_I * h.d * h.r),
        partner=lambda h: elliptic_cybe(h.d, h.r, h.tau),
        # the poles uu in (Z + Z r tau) / (d r) and (d vv + Z + Z r tau) / (d r)
        u_pole_gap=lambda h, vv: np.minimum(
            min(1.0, h.r * h.tau.imag), _lattice_distance_grid(h.d * vv, h.r * h.tau)
        ) / (h.d * h.r),
        elliptic=True, heisenberg=True, cli_name="elliptic", cli_args=("d", "r", "tau"),
    ),
    "elliptic_cybe": _Family(
        base=_eval_elliptic_cybe,
        domain=lambda h, uu, vv, guard: _lattice_guard_distance(h.d * vv, h.r * h.tau, guard) > guard,
        two_variable=False, elliptic=True, heisenberg=True,
        cli_name="elliptic-cybe", cli_args=("d", "r", "tau"),
    ),
    "trig_aybe1": _Family(
        base=lambda h, u, v: _trig_coeffs_1(u, v),
        domain=_clear_of_two_pi_i, rho=lambda h: 1.0,
        partner=lambda h: trig_cybe(1), u_pole_gap=lambda h, vv: _TWO_PI,
        n=2, cli_name="trig1",
    ),
    "trig_aybe2": _Family(
        base=lambda h, u, v: _trig_coeffs_2(u, v),
        domain=_clear_of_two_pi_i, rho=lambda h: -1.0,
        partner=lambda h: trig_cybe(2), u_pole_gap=lambda h, vv: _TWO_PI,
        n=2, cli_name="trig2",
    ),
    "trig_cybe1": _Family(
        base=lambda h, v: _trig_cybe_coeffs(1, v),
        domain=_clear_of_two_pi_i, n=2, two_variable=False, cli_name="trig-cybe1",
    ),
    "trig_cybe2": _Family(
        base=lambda h, v: _trig_cybe_coeffs(2, v),
        domain=_clear_of_two_pi_i, n=2, two_variable=False, cli_name="trig-cybe2",
    ),
    "scalar_kronecker": _Family(
        base=_scalar(lambda h, u, v: kronecker_F(u, v, modular_param(h.tau))),
        domain=_clear_kronecker, rho=lambda h: 1.0 / TWO_PI_I,
        # the poles uu in Z + Z tau and the zeros uu in -vv + Z + Z tau: the
        # elliptic gap at d = r = 1
        u_pole_gap=lambda h, vv: np.minimum(min(1.0, h.tau.imag), _lattice_distance_grid(vv, h.tau)),
        n=1,
        elliptic=True, cli_name="scalar-kronecker", cli_args=("tau",),
    ),
    "scalar_trig": _Family(
        base=_scalar(_scalar_trig_value),
        domain=_clear_of_two_pi_i, rho=lambda h: 1.0, u_pole_gap=lambda h, vv: _TWO_PI,
        n=1, cli_name="scalar-trig",
    ),
    "scalar_rational": _Family(
        base=_scalar(lambda h, u, v: h.a / u + h.b / v),
        domain=_clear_of_zero,
        # no other pole: any finite gap will do
        rho=lambda h: h.a, u_pole_gap=lambda h, vv: 1.0,
        n=1, cli_name="scalar-rational", cli_args=("a", "b"),
    ),
    "custom": _Family(
        base=_custom_base, domain=lambda h, uu, vv, guard: np.ones(vv.shape, dtype=bool),
    ),
}


# ---------------------------------------------------------------------------
# public evaluation API
# ---------------------------------------------------------------------------

def _raise_float_error(kind: str, flag: int) -> None:
    # numpy's error flags: 1 divide by zero, 2 overflow, 8 invalid value
    error = OverflowError if flag & 2 else ZeroDivisionError
    raise error(f"{kind} in a family evaluation")


# A float overflow in an evaluation raises OverflowError and a division by
# zero ZeroDivisionError, as Python's complex arithmetic does, instead of
# leaving an inf or nan in the values.
_FLOAT_ERRORS = dict(divide="call", over="call", invalid="call", call=_raise_float_error)


def _evaluate(h: SolutionHandle, *args: np.ndarray) -> np.ndarray:
    """The family's base values at the rescaled points ``args``, arrays that
    broadcast, ``_CHUNK // n^2`` points per call: whole rows of the leading
    axis (a v column stays one value per row), else flattened points."""
    n = h.n
    spec = _FAMILIES[h.family]
    shape = np.broadcast(*args).shape
    size = math.prod(shape)
    step = max(1, _CHUNK // (n * n))
    if size <= step:
        return spec.base(h, *args)
    if size > step * shape[0] or any(a.ndim < len(shape) for a in args):
        args, shape = [a.reshape(-1) for a in np.broadcast_arrays(*args)], (size,)
    rows, per = step * shape[0] // size, size // shape[0]
    out = np.empty((size,) + (n,) * (2 if spec.heisenberg else 4), dtype=complex)
    for s in range(0, shape[0], rows):
        out[s * per:(s + rows) * per] = spec.base(h, *(a[s:s + rows] if len(a) > 1 else a for a in args))
    return out


def _graded(h: SolutionHandle) -> bool:
    """True when every value of ``h`` is fixed by its (d, d) twist table: a
    Heisenberg family (``_Family.heisenberg``) with no gauge or a scalar_exp
    one."""
    g = h.gauge
    return _FAMILIES[h.family].heisenberg and (g is None or g.kind == "scalar_exp")


def _per_point(factor: np.ndarray, val: np.ndarray) -> np.ndarray:
    """A factor per point, shaped to scale the (N, ...) values ``val``."""
    return factor.reshape((-1,) + (1,) * (val.ndim - 1))


@np.errstate(**_FLOAT_ERRORS)
def _values(h: SolutionHandle, u: Optional[np.ndarray], v: np.ndarray) -> np.ndarray:
    """The values at the points (u[k], v[k]), complex arrays that broadcast
    (u None on a one-variable handle), with the rescale and a scalar_exp
    gauge: the (N, d, d) twist tables of a Heisenberg family, else
    (N, n, n, n, n).  A constant or callable gauge is left to
    :func:`_apply_gauge`.  A float overflow raises OverflowError and a
    division by zero ZeroDivisionError (see _FLOAT_ERRORS); a gauge other
    than a constant one on a CYBE family raises DomainError before any
    evaluation."""
    c1, c2, c3, c4 = h.rescale
    g = h.gauge
    if u is None and g is not None and g.kind != "constant":
        raise DomainError("only constant gauges apply to CYBE families")
    val = _evaluate(h, c4 * v) if u is None else _evaluate(h, c3 * u, c4 * v)
    # with c2 = 0 (or no u) the factor is c1 exactly, and the exp is skipped
    val *= c1 if c2 == 0 or u is None else _per_point(c1 * np.exp(c2 * u * v), val)
    if g is not None and g.kind == "scalar_exp":
        val = val * _per_point(np.exp(-g.c * u * v), val)
    return val


def _apply_gauge(h: SolutionHandle, val: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The dense values of :func:`_values` under a constant or callable gauge."""
    g = h.gauge
    if g is None or g.kind == "scalar_exp":
        return val
    if g.kind == "constant":
        return _sandwich(g.matrix, g.matrix, val, g.matrix, g.matrix)

    def at(x, y):
        return np.array([g.fn(complex(a), complex(b)) for a, b in zip(x, y)],
                        dtype=complex).reshape(len(x), h.n, h.n)

    u, v = (x.reshape(-1) for x in np.broadcast_arrays(u, v))
    zero = np.zeros_like(u)
    return _sandwich(at(zero, v), at(u, zero), val, at(u, v), at(zero, zero))


@np.errstate(**_FLOAT_ERRORS)
def _dense_values(h: SolutionHandle, u: Optional[np.ndarray], v: np.ndarray) -> np.ndarray:
    """:func:`_values` as (N, n, n, n, n) coefficients, with every gauge: a
    twist table is placed (:func:`_place_twists`) only here."""
    val = _values(h, u, v)
    if _FAMILIES[h.family].heisenberg:
        val = _place_twists(val, h.d).reshape((-1,) + (h.d,) * 4)
    return _apply_gauge(h, val, u, v)


def eval_aybe_array(h: SolutionHandle, u, v) -> np.ndarray:
    """Values of the two-variable solution at the points (u[k], v[k]).

    ``u`` and ``v`` are broadcast against each other and flattened to N
    points; the result has shape (N, n, n, n, n), in C order.  Every family
    evaluates its formula, the rescale and the gauge on whole arrays, up to
    2048 / n^2 points at a time, and a v column against rows of u once per
    row (a custom family and a callable gauge call their Python callable
    once per point).  A pole raises the error of the first offending point,
    as a loop over the points would; a float overflow raises OverflowError
    and a division by zero ZeroDivisionError, as Python's complex
    arithmetic does, instead of leaving an inf or nan.
    """
    if not h.is_aybe:
        raise DomainError(f"{h.family} is not a two-variable (AYBE) family")
    u, v = (np.array(x, dtype=complex, ndmin=1) for x in (u, v))
    return _dense_values(h, u, v)


def eval_aybe(h: SolutionHandle, u: complex, v: complex) -> MatrixTensor2:
    """Value of the two-variable solution at (u, v), with transforms: the
    one-point :func:`eval_aybe_array`."""
    return MatrixTensor2(eval_aybe_array(h, u, v)[0])


def eval_cybe_array(h: SolutionHandle, v) -> np.ndarray:
    """Values of the one-variable (CYBE) solution at the N points of the
    flattened ``v``, shape (N, n, n, n, n); the array counterpart of
    :func:`eval_aybe_array`."""
    if not h.is_cybe:
        raise DomainError(f"{h.family} is not a CYBE family")
    return _dense_values(h, None, np.asarray(v, dtype=complex).reshape(-1))


def eval_cybe(h: SolutionHandle, v: complex) -> MatrixTensor2:
    """Value of the one-variable (CYBE) solution at v; traceless legs.  The
    one-point :func:`eval_cybe_array`."""
    return MatrixTensor2(eval_cybe_array(h, v)[0])


def _scaled(c: complex, z: np.ndarray) -> np.ndarray:
    """c*z on a complex array, rounded as Python's complex product rounds it:
    numpy's complex multiply can differ in the last bit."""
    if c == 1:
        return z
    out = np.empty(z.shape, dtype=complex)
    out.real = c.real * z.real - c.imag * z.imag
    out.imag = c.real * z.imag + c.imag * z.real
    return out


@np.errstate(invalid="ignore", over="ignore")
def _domain_mask(h: SolutionHandle, u, v, guard: float) -> np.ndarray:
    """The boolean array of the points (u, v), complex arrays of one shape,
    that keep clear of every pole/branch locus by more than ``guard`` (u is
    ignored for a one-variable family).  A point that is not finite is not
    clear."""
    _, _, c3, c4 = h.rescale
    spec = _FAMILIES[h.family]
    uu = _scaled(c3, np.asarray(u, dtype=complex)) if spec.two_variable else None
    vv = _scaled(c4, np.asarray(v, dtype=complex))
    finite = np.isfinite(vv) if uu is None else np.isfinite(uu) & np.isfinite(vv)
    return spec.domain(h, uu, vv, guard) & finite


def in_domain(h: SolutionHandle, u: Optional[complex], v: complex, guard: float = 1e-3) -> bool:
    """True when the evaluation point keeps clear of every pole/branch locus:
    the one-point :func:`_domain_mask`."""
    return bool(_domain_mask(h, u, v, guard))


def paired_cybe_handle(h: SolutionHandle) -> SolutionHandle:
    """The CYBE family obtained from an AYBE family by the u -> 0 projection.

    The projected limit of c1*exp(c2*u*v)*r(c3*u, c4*v) is c1*r0(c4*v), r0
    the limit of r: exp(c2*u*v) and c3 only add multiples of 1 (x) 1, which
    the projection removes.  So the partner carries the rescale
    (c1, 0, 1, c4).
    """
    partner = _FAMILIES[h.family].partner
    if partner is None:
        raise DomainError(f"no CYBE partner for family {h.family}")
    c1, _, _, c4 = h.rescale
    # project_sl commutes with (g (x) g)-conjugation, so a constant gauge g
    # carries over to the limit
    gauge = h.gauge if h.gauge is not None and h.gauge.kind == "constant" else None
    return replace(partner(h), rescale=(c1, 0j, 1 + 0j, c4), gauge=gauge)


def rho_theoretical(h: SolutionHandle) -> complex:
    """Coefficient rho of the u-pole, r(u, v) = rho*(1 (x) 1)/u + O(1)."""
    if h.gauge is not None and h.gauge.kind == "callable":
        raise DomainError("pole coefficient undefined for callable gauges")
    rho = _FAMILIES[h.family].rho
    if rho is None:
        raise DomainError(f"no pole data for family {h.family}")
    c1, _, c3, _ = h.rescale
    return c1 * rho(h) / c3


# ---------------------------------------------------------------------------
# u -> 0 limit
# ---------------------------------------------------------------------------

# 8 equally spaced points of the unit circle: for a radius inside the disc
# where project_sl(r(u, v)) is analytic, its mean at radius * _LIMIT_NODES is
# its u^0 coefficient up to the u^8, u^16, ... terms
_LIMIT_NODES = np.exp(2j * np.pi * np.arange(8) / 8)


@dataclass(frozen=True)
class LimitResult:
    """The u -> 0 limit of project_sl(r(u, v)) at one v, read off the circle
    |u| = ``radius``; ``gap`` is its relative distance to the mean over the 4
    even nodes."""

    value: MatrixTensor2
    radius: float
    gap: float


def _u_circle_radii(h: SolutionHandle, v: np.ndarray, share: float) -> Optional[np.ndarray]:
    """R(v) / share at the points of the 1-d array ``v``, R(v) the distance
    from u = 0 to the nearest other u-pole (or zero) of u -> r(u, v) on the
    handle; None for a family without u-pole data and for a callable gauge.

    A circle |u| = R(v)/share holds no singularity but u = 0, so the
    trapezoid rule on it converges like share^-nodes.
    """
    gap = _FAMILIES[h.family].u_pole_gap
    if gap is None or (h.gauge is not None and h.gauge.kind == "callable"):
        return None
    _, _, c3, c4 = h.rescale
    radii = np.empty(v.shape)
    radii[...] = gap(h, _scaled(c4, v))
    radii /= share * abs(c3)
    return radii


def _limit_nodes(h: SolutionHandle, v: np.ndarray) -> tuple:
    """(u, v) of the nodes on the circle |u| = R(v)/50 at each of the N points
    of the 1-d array ``v``, each (N, 8), and the radii (N,).  A family
    without u-pole data or without a CYBE partner and a callable gauge raise
    DomainError; v is not guarded."""
    radii = _u_circle_radii(h, v, 50.0)
    if radii is None or _FAMILIES[h.family].partner is None:
        raise DomainError(f"no u-pole data or CYBE partner for family {h.family}")
    return radii[:, None] * _LIMIT_NODES, np.repeat(v[:, None], len(_LIMIT_NODES), axis=1), radii


def _limit_means(values: np.ndarray, nodes: slice = slice(None)) -> np.ndarray:
    """project_sl of the mean over ``nodes`` of the (N, 8, n, n, n, n) values
    at the points of :func:`_limit_nodes`: the u -> 0 limits (N, n, n, n, n)."""
    return _project_sl(values[:, nodes].mean(axis=1))


def cybe_limit_of_aybe(h: SolutionHandle, v: complex) -> LimitResult:
    """The u -> 0 limit of the doubly-traceless projection of r(u, v).

    It is the trapezoid mean of project_sl(r) over 8 equally spaced nodes of
    the circle |u| = R(v)/50, R(v) the distance from u = 0 to the nearest
    other u-pole.  project_sl(r) is analytic on |u| < R(v), so the mean
    misses the u^0 coefficient by about 50^-8 = 2.6e-14 relative (Trefethen &
    Weideman, SIAM Review 2014).  A family without u-pole data or without a
    CYBE partner, a callable gauge and a v on the polar locus of the CYBE
    partner raise DomainError.
    """
    v = np.array([complex(v)])
    u_nodes, v_nodes, radii = _limit_nodes(h, v)
    # the circle keeps clear of the u-poles, so this tests the v-locus
    if not _domain_mask(h, radii, v, guard=1e-9)[0]:
        raise DomainError(f"v={v[0]} lies on the polar locus of the CYBE partner")
    values = eval_aybe_array(h, u_nodes, v_nodes).reshape(u_nodes.shape + (h.n,) * 4)
    limits = _limit_means(values)
    # the gap: the relative distance to the mean over the 4 even nodes
    even = _limit_means(values, slice(None, None, 2))
    gap = np.linalg.norm(limits - even) / max(np.linalg.norm(limits), 1e-300)
    return LimitResult(value=MatrixTensor2(limits[0]), radius=float(radii[0]), gap=float(gap))


# ---------------------------------------------------------------------------
# equivalence transforms and serialization
# ---------------------------------------------------------------------------

def equivalence_transform(h: SolutionHandle, phi) -> SolutionHandle:
    """Attach a gauge phi to the handle (constant matrix or GaugeSpec)."""
    if h.gauge is not None:
        raise ValueError("handle already carries a gauge")
    if isinstance(phi, GaugeSpec):
        spec = phi
    else:
        spec = GaugeSpec(kind="constant", matrix=np.asarray(phi, dtype=complex))
    if spec.kind == "constant":
        mat = spec.matrix
        if mat.shape != (h.n, h.n):
            raise ValueError(f"gauge matrix must be {h.n} x {h.n}")
        if abs(np.linalg.det(mat)) < 1e-12:
            raise ValueError("gauge matrix is singular")
    return replace(h, gauge=spec)


def _c2pair(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def handle_to_dict(h: SolutionHandle) -> dict:
    if _FAMILIES[h.family].cli_name is None:
        raise ValueError("custom handles are not serializable")
    gauge = None
    if h.gauge is not None:
        if h.gauge.kind == "constant":
            gauge = {
                "kind": "constant",
                "matrix": [[_c2pair(z) for z in row] for row in h.gauge.matrix],
            }
        elif h.gauge.kind == "scalar_exp":
            gauge = {"kind": "scalar_exp", "c": _c2pair(h.gauge.c)}
        else:
            raise ValueError("callable gauges are not serializable")
    return {
        "family": h.family,
        "d": h.d,
        "r": h.r,
        "tau": None if h.tau is None else _c2pair(h.tau),
        "a": _c2pair(h.a),
        "b": _c2pair(h.b),
        "rescale": [_c2pair(c) for c in h.rescale],
        "gauge": gauge,
    }


def handle_from_dict(data: dict) -> SolutionHandle:
    """The handle of a :func:`handle_to_dict` record.  A gauge gets the
    checks of :func:`equivalence_transform`, and a scalar_exp gauge on a
    CYBE family, which no evaluation accepts, is refused: each raises
    ValueError."""
    gauge = None
    graw = data.get("gauge")
    if graw is not None:
        if graw["kind"] == "constant":
            mat = np.array(
                [[complex(re, im) for re, im in row] for row in graw["matrix"]]
            )
            gauge = GaugeSpec(kind="constant", matrix=mat)
        elif graw["kind"] == "scalar_exp":
            gauge = GaugeSpec(kind="scalar_exp", c=complex(*graw["c"]))
        else:
            raise ValueError(f"unknown gauge kind {graw['kind']!r}")
    tau = data.get("tau")
    h = SolutionHandle(
        family=data["family"],
        d=int(data.get("d", 1)),
        r=int(data.get("r", 1)),
        tau=None if tau is None else complex(*tau),
        a=complex(*data.get("a", [1.0, 0.0])),
        b=complex(*data.get("b", [1.0, 0.0])),
        rescale=tuple(complex(*c) for c in data.get("rescale", [[1, 0], [0, 0], [1, 0], [1, 0]])),
    )
    if gauge is None:
        return h
    if gauge.kind == "scalar_exp" and h.is_cybe:
        raise ValueError(f"a scalar_exp gauge does not apply to the CYBE family {h.family}")
    return equivalence_transform(h, gauge)
