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

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, NonConvergenceError
from .special import (
    TWO_PI_I,
    Characteristic,
    ModularParam,
    kronecker_F,
    kronecker_F_char,
    lattice_distance,
    modular_param,
    zeta_char,
)
from .tensors import MatrixTensor2

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
    "eval_cybe",
    "eval_cybe_alt",
    "cybe_limit_of_aybe",
    "equivalence_transform",
    "paired_cybe_handle",
    "in_domain",
    "rho_theoretical",
    "handle_to_dict",
    "handle_from_dict",
]

AYBE_FAMILIES = frozenset(
    {"elliptic_aybe", "trig_aybe1", "trig_aybe2",
     "scalar_kronecker", "scalar_trig", "scalar_rational"}
)
CYBE_FAMILIES = frozenset({"elliptic_cybe", "trig_cybe1", "trig_cybe2"})
ELLIPTIC_FAMILIES = frozenset({"elliptic_aybe", "elliptic_cybe", "scalar_kronecker"})

_TWO_PI = 2.0 * math.pi


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
        known = AYBE_FAMILIES | CYBE_FAMILIES | {"custom"}
        if self.family not in known:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family in ("elliptic_aybe", "elliptic_cybe"):
            if self.d < 1:
                raise ValueError("d must be >= 1")
            if math.gcd(self.r, self.d) != 1:
                raise ValueError("elliptic families require gcd(r, d) = 1")
        if self.family in ELLIPTIC_FAMILIES:
            if self.tau is None or complex(self.tau).imag <= 0:
                raise ValueError("elliptic families need tau with Im tau > 0")
        if self.family == "custom" and self.eval_fn is None:
            raise ValueError("custom family needs eval_fn")
        c1, _, c3, c4 = self.rescale
        if c1 == 0 or c3 == 0 or c4 == 0:
            raise ValueError("rescale constants c1, c3, c4 must be nonzero")

    @property
    def n(self) -> int:
        if self.family in ("elliptic_aybe", "elliptic_cybe", "custom"):
            return self.d
        if self.family.startswith("trig"):
            return 2
        return 1

    @property
    def is_aybe(self) -> bool:
        return self.family in AYBE_FAMILIES or self.family == "custom"

    @property
    def is_cybe(self) -> bool:
        return self.family in CYBE_FAMILIES


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
# base evaluations (before rescale and gauge)
# ---------------------------------------------------------------------------

def _scalar_tensor(value: complex) -> MatrixTensor2:
    return MatrixTensor2(np.array(value, dtype=complex).reshape(1, 1, 1, 1))


def _eval_elliptic_aybe(d: int, r: int, tau: complex, u: complex, v: complex) -> MatrixTensor2:
    # rank r reduces to the line-bundle case on the lattice with r*tau
    m = modular_param(d * r * tau)
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


def _eval_elliptic_cybe(d: int, r: int, tau: complex, v: complex) -> MatrixTensor2:
    m = modular_param(d * r * tau)
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
    """Same tensor as :func:`_eval_elliptic_cybe`, assembled on the small
    lattice with characteristic sums instead of the isogeny lattice.

    The characteristic sum carries an overall 1/d: the sum of d zeta terms
    reproduces d times the isogeny-lattice F value (matching pole residues
    on both sides, see :func:`aybe.special.identity_F_zeta`).
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


def _trig_coeffs_1(u: complex, v: complex) -> np.ndarray:
    lam = cmath.exp(u)
    mu = cmath.exp(v)
    one_l = 1.0 - lam
    one_m = 1.0 - mu
    k = (mu - lam) / (one_l * one_m)
    c = np.zeros((2,) * 4, dtype=complex)
    c[0, 0, 0, 0] = k
    c[1, 1, 1, 1] = k
    c[0, 0, 1, 1] = -lam / one_l
    c[1, 1, 0, 0] = -1.0 / one_l
    c[1, 0, 0, 1] = 1.0 / one_m
    c[0, 1, 1, 0] = mu / one_m
    return c


def _trig_coeffs_2(u: complex, v: complex) -> np.ndarray:
    lam = cmath.exp(u)
    mu = cmath.exp(v)
    smu = cmath.exp(v / 2.0)
    slm = cmath.exp((u + v) / 2.0)
    one_l = 1.0 - lam
    one_m = 1.0 - mu
    k = (1.0 - lam * mu) / (one_l * one_m)
    c = np.zeros((2,) * 4, dtype=complex)
    c[0, 0, 0, 0] = k
    c[1, 1, 1, 1] = k
    c[0, 0, 1, 1] = lam / one_l
    c[1, 1, 0, 0] = 1.0 / one_l
    c[1, 0, 0, 1] = smu / one_m
    c[0, 1, 1, 0] = smu / one_m
    c[1, 0, 1, 0] = slm - 1.0 / slm
    return c


def _trig_cybe_coeffs(which: int, v: complex) -> np.ndarray:
    mu = cmath.exp(v)
    one_m = 1.0 - mu
    hh = (1.0 + mu) / (4.0 * one_m)
    c = np.zeros((2,) * 4, dtype=complex)
    c[0, 0, 0, 0] = hh
    c[1, 1, 1, 1] = hh
    c[0, 0, 1, 1] = -hh
    c[1, 1, 0, 0] = -hh
    if which == 1:
        c[1, 0, 0, 1] = 1.0 / one_m
        c[0, 1, 1, 0] = mu / one_m
    else:
        smu = cmath.exp(v / 2.0)
        c[1, 0, 0, 1] = smu / one_m
        c[0, 1, 1, 0] = smu / one_m
        c[1, 0, 1, 0] = smu - 1.0 / smu
    return c


def _base_eval_aybe(h: SolutionHandle, u: complex, v: complex) -> MatrixTensor2:
    fam = h.family
    if fam == "elliptic_aybe":
        return _eval_elliptic_aybe(h.d, h.r, h.tau, u, v)
    if fam == "trig_aybe1":
        return MatrixTensor2(_trig_coeffs_1(u, v))
    if fam == "trig_aybe2":
        return MatrixTensor2(_trig_coeffs_2(u, v))
    if fam == "scalar_kronecker":
        return _scalar_tensor(kronecker_F(u, v, modular_param(h.tau)))
    if fam == "scalar_trig":
        # symmetric in u <-> v, simple poles with residue +1 in each
        # variable: (exp(u+v) - 1) / ((exp(u) - 1) * (exp(v) - 1))
        eu = cmath.exp(u)
        ev = cmath.exp(v)
        return _scalar_tensor(1.0 / (eu - 1.0) + 1.0 / (ev - 1.0) + 1.0)
    if fam == "scalar_rational":
        return _scalar_tensor(h.a / u + h.b / v)
    if fam == "custom":
        return h.eval_fn(u, v)
    raise DomainError(f"{fam} is not an AYBE family")


# ---------------------------------------------------------------------------
# public evaluation API
# ---------------------------------------------------------------------------

def _apply_gauge(h: SolutionHandle, val: MatrixTensor2, u: complex, v: complex) -> MatrixTensor2:
    g = h.gauge
    if g is None:
        return val
    if g.kind == "constant":
        return val.conjugate_legs(g.matrix, g.matrix)
    if g.kind == "scalar_exp":
        return val * cmath.exp(-g.c * u * v)
    left1 = g.fn(0.0, v)
    left2 = g.fn(u, 0.0)
    right1 = g.fn(u, v)
    right2 = g.fn(0.0, 0.0)
    return val.sandwich(left1, left2, right1, right2)


def eval_aybe(h: SolutionHandle, u: complex, v: complex) -> MatrixTensor2:
    """Value of the two-variable solution at (u, v), with transforms."""
    if not h.is_aybe:
        raise DomainError(f"{h.family} is not a two-variable (AYBE) family")
    c1, c2, c3, c4 = h.rescale
    base = _base_eval_aybe(h, c3 * u, c4 * v)
    val = base * (c1 * cmath.exp(c2 * u * v))
    return _apply_gauge(h, val, u, v)


def eval_cybe(h: SolutionHandle, v: complex) -> MatrixTensor2:
    """Value of the one-variable (CYBE) solution at v; traceless legs."""
    if not h.is_cybe:
        raise DomainError(f"{h.family} is not a CYBE family")
    c1, _, _, c4 = h.rescale
    vv = c4 * v
    if h.family == "elliptic_cybe":
        base = _eval_elliptic_cybe(h.d, h.r, h.tau, vv)
    else:
        which = int(h.family[-1])
        base = MatrixTensor2(_trig_cybe_coeffs(which, vv))
    val = base * c1
    if h.gauge is not None:
        if h.gauge.kind != "constant":
            raise DomainError("only constant gauges apply to CYBE families")
        val = val.conjugate_legs(h.gauge.matrix, h.gauge.matrix)
    return val


def eval_cybe_alt(h: SolutionHandle, v: complex) -> MatrixTensor2:
    """Alternative assembly of the elliptic CYBE tensor (characteristic sums
    on the small lattice); must agree with :func:`eval_cybe` entrywise."""
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
# domain predicates
# ---------------------------------------------------------------------------

def _dist_to_two_pi_i(x: complex) -> float:
    k = round(x.imag / _TWO_PI)
    return abs(x - complex(0.0, _TWO_PI * k))


def in_domain(h: SolutionHandle, u: Optional[complex], v: complex, guard: float = 1e-3) -> bool:
    """True when the evaluation point keeps clear of every pole/branch locus."""
    _, _, c3, c4 = h.rescale
    fam = h.family
    vv = c4 * v
    if fam in ("elliptic_cybe",):
        return lattice_distance(h.d * vv, h.r * h.tau) > guard
    if fam in ("trig_cybe1", "trig_cybe2"):
        return _dist_to_two_pi_i(vv) > guard
    uu = c3 * u
    if fam == "elliptic_aybe":
        lat = h.r * h.tau
        return (
            lattice_distance(h.d * h.r * uu, lat) > guard
            and lattice_distance(h.d * vv, lat) > guard
            and lattice_distance(h.d * h.r * uu - h.d * vv, lat) > guard
        )
    if fam in ("trig_aybe1", "trig_aybe2"):
        return _dist_to_two_pi_i(uu) > guard and _dist_to_two_pi_i(vv) > guard
    if fam == "scalar_kronecker":
        t = h.tau
        return (
            lattice_distance(uu, t) > guard
            and lattice_distance(vv, t) > guard
            and lattice_distance(uu + vv, t) > guard
        )
    if fam == "scalar_trig":
        return _dist_to_two_pi_i(uu) > guard and _dist_to_two_pi_i(vv) > guard
    if fam == "scalar_rational":
        return abs(uu) > guard and abs(vv) > guard
    return True


def paired_cybe_handle(h: SolutionHandle) -> SolutionHandle:
    """The CYBE family obtained from an AYBE family by the u -> 0 projection."""
    if h.family == "elliptic_aybe":
        return elliptic_cybe(h.d, h.r, h.tau)
    if h.family == "trig_aybe1":
        return trig_cybe(1)
    if h.family == "trig_aybe2":
        return trig_cybe(2)
    raise DomainError(f"no CYBE partner for family {h.family}")


def rho_theoretical(h: SolutionHandle) -> complex:
    """Coefficient rho of the u-pole, r(u, v) = rho*(1 (x) 1)/u + O(1)."""
    if h.gauge is not None and h.gauge.kind == "callable":
        raise DomainError("pole coefficient undefined for callable gauges")
    c1, _, c3, _ = h.rescale
    fam = h.family
    if fam == "elliptic_aybe":
        rho = 1.0 / (TWO_PI_I * h.d * h.r)
    elif fam == "trig_aybe1":
        rho = 1.0
    elif fam == "trig_aybe2":
        rho = -1.0
    elif fam == "scalar_kronecker":
        rho = 1.0 / TWO_PI_I
    elif fam == "scalar_trig":
        rho = 1.0
    elif fam == "scalar_rational":
        rho = h.a
    else:
        raise DomainError(f"no pole data for family {fam}")
    return c1 * rho / c3


# ---------------------------------------------------------------------------
# u -> 0 limit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitResult:
    value: MatrixTensor2
    order: float
    deviation: float
    u_seq: tuple


def cybe_limit_of_aybe(
    h: SolutionHandle,
    v: complex,
    u_seq: Optional[Sequence[complex]] = None,
    rtol: float = 1e-4,
) -> LimitResult:
    """Richardson limit of the doubly-traceless projection as u -> 0.

    Three evaluations at u, u/2, u/4 feed two linear extrapolants whose
    second-level combination (4*L2 - L1)/3 cancels the O(u) and O(u^2)
    error terms.  The observed convergence order and the gap between the
    two linear extrapolants are reported alongside the limit.
    """
    if not h.is_aybe:
        raise DomainError("limit applies to two-variable families")
    if u_seq is None:
        s = 1e-2 * max(abs(v), 1e-2)
        u_seq = (s, s / 2.0, s / 4.0)
    u_seq = tuple(u_seq)
    if len(u_seq) != 3:
        raise ValueError("u_seq must contain exactly three points")
    samples = []
    for uk in u_seq:
        if not in_domain(h, uk, v, guard=1e-9):
            raise DomainError(f"limit sample point u={uk} hits a pole")
        samples.append(eval_aybe(h, uk, v).project_sl())
    p0, p1, p2 = samples
    d1 = (p1 - p0).frobenius()
    d2 = (p2 - p1).frobenius()
    scale = max(p.frobenius() for p in samples)
    if max(d1, d2) <= 1e-13 * max(scale, 1.0):
        return LimitResult(value=p2, order=math.inf, deviation=0.0, u_seq=u_seq)
    l1 = 2.0 * p1 - p0
    l2 = 2.0 * p2 - p1
    value = (1.0 / 3.0) * (4.0 * l2 - l1)
    deviation = (l2 - l1).frobenius() / max(1.0, l2.frobenius())
    if deviation > rtol:
        raise NonConvergenceError(
            f"extrapolants disagree by {deviation:.3e} (> {rtol:.1e}); no finite limit"
        )
    order = math.log2(d1 / d2) if d1 > 0 and d2 > 0 else math.inf
    return LimitResult(value=value, order=order, deviation=deviation, u_seq=u_seq)


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
    if h.family == "custom":
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
    return SolutionHandle(
        family=data["family"],
        d=int(data.get("d", 1)),
        r=int(data.get("r", 1)),
        tau=None if tau is None else complex(*tau),
        a=complex(*data.get("a", [1.0, 0.0])),
        b=complex(*data.get("b", [1.0, 0.0])),
        rescale=tuple(complex(*c) for c in data.get("rescale", [[1, 0], [0, 0], [1, 0], [1, 0]])),
        gauge=gauge,
    )
