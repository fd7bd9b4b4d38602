"""Residue/evaluation linear algebra for rank-2 bundles on a nodal curve.

The curve has two rational components glued at 0 and at infinity.  A
rank-2 bundle V^lambda is trivial on the first component, O + O(1) on the
second, glued by the identity at 0 and by S_lambda = [[0, lambda], [1, 0]]
at infinity.  A morphism V^{lambda1} -> V^{lambda2}(y) is encoded by four
coefficients of a matrix-valued section.  :func:`composite_stack` takes N
parameter sets at once: it builds the residue maps Res_{y1} and the
evaluation maps ev_{y2} on that coefficient space as (N, 4, 4) stacks with
array arithmetic, and forms the composites ev_{y2} o Res_{y1}^{-1} by one
batched linear solve (never from a transcribed closed form of the
composite).  :func:`tensors_from_maps` turns composites into tensors via
the trace pairing, one index permutation.  The per-sample functions
(``residue_map_case1``, ``composite_map``, ...) are its one-sample views.

Conventions
-----------
* Flat basis order for Mat(2) is (e11, e12, e21, e22); a LinearMap4
  matrix column ``flat(i, j)`` holds the image of e_{ij} (for residue and
  evaluation maps the input space is the section-coefficient space, in
  the documented order (a, b, c, d)).
* The point at infinity is never evaluated numerically: a section's
  value there is read off from the coefficient of the degree-1 part of
  its parametrization.
* The local trivialization of the dualizing sheaf is dz/z; residues and
  golden values depend on this choice.
* Square roots in the "exp-sqrt" trivialization come from principal
  logarithms (f = exp((log(lambda) - log(y)) / 2)), never from raw
  square roots.  Composites depend only on (lambda1/lambda2, y1/y2)
  provided the parameters stay clear of the negative real axis so the
  principal logs do not wrap.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import DomainError
from .solutions import SolutionHandle, custom_handle
from .tensors import MatrixTensor2

__all__ = [
    "BundleParams",
    "LinearMap4",
    "TRIVIALIZATIONS",
    "residue_map_case1",
    "ev_map_case1",
    "composite_case1",
    "residue_map_case2",
    "ev_map_case2",
    "composite_case2",
    "composite_map",
    "composite_stack",
    "tensors_from_maps",
    "tensor_from_linear_map",
    "linear_map_from_tensor",
    "aybe_handle_from_curve",
]

FLAT_BASIS = ("e11", "e12", "e21", "e22")
TRIVIALIZATIONS = ("exp-sqrt", "constant")

_PARAM_NAMES = ("lambda1", "lambda2", "y1", "y2")


@dataclass(frozen=True)
class BundleParams:
    """Gluing constants and marked points for a pair of rank-2 bundles.

    ``case`` records which component the marked points y1, y2 lie on
    (1: the component where both bundles are trivial; 2: the component
    carrying the degree-1 summand).
    """

    lambda1: complex
    lambda2: complex
    y1: complex
    y2: complex
    case: int

    def __post_init__(self) -> None:
        if self.case not in (1, 2):
            raise DomainError(f"case must be 1 or 2, got {self.case!r}")
        failure = _param_failure(_param_arrays(*_one_sample(self)))
        if failure is not None:
            raise DomainError(failure[1])

    @property
    def lam(self) -> complex:
        """The gluing ratio lambda1/lambda2."""
        return complex(self.lambda1) / complex(self.lambda2)

    @property
    def mu(self) -> complex:
        """The point ratio y1/y2."""
        return complex(self.y1) / complex(self.y2)


@dataclass(frozen=True)
class LinearMap4:
    """A linear map on a 4-dimensional coefficient space, as a 4x4 matrix."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise DomainError(f"expected a 4x4 matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise DomainError("matrix entries must be finite")
        object.__setattr__(self, "matrix", m)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply to a 2x2 matrix (or flat 4-vector); returns a 2x2 matrix."""
        vec = np.asarray(x, dtype=complex).reshape(4)
        return (self.matrix @ vec).reshape(2, 2)

    def rank(self, tol: float = 1e-9) -> int:
        return int(np.linalg.matrix_rank(self.matrix, tol=tol))

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.matrix)))

    def __sub__(self, other: "LinearMap4") -> "LinearMap4":
        return LinearMap4(self.matrix - other.matrix)


def _param_failure(params) -> Optional[Tuple[int, str]]:
    """(sample, message) of the first sample, in order, whose (lambda1,
    lambda2, y1, y2) break a :class:`BundleParams` rule, with the first
    rule it breaks; None when every sample passes."""
    rules = []
    for name, x in zip(_PARAM_NAMES, params):
        rules.append((x == 0, f"{name} must be nonzero"))
        rules.append((~np.isfinite(x), f"{name} must be finite"))
    rules.append((params[2] == params[3], "y1 and y2 must be distinct"))
    broken = np.array([mask for mask, _ in rules])
    if not broken.any():
        return None
    k = int(broken.any(axis=0).argmax())
    return k, rules[int(broken[:, k].argmax())][1]


def _check_trivialization(trivialization: str) -> None:
    if trivialization not in TRIVIALIZATIONS:
        raise DomainError(
            f"unknown trivialization {trivialization!r}; expected one of {TRIVIALIZATIONS}"
        )


def _f_factors(lam: np.ndarray, y: np.ndarray, trivialization: str):
    """Trivialization factors of the degree-1 summand at the points y."""
    if trivialization == "constant":
        return 1.0
    return np.exp((np.log(lam) - np.log(y)) / 2.0)


# The (row, column) of every entry a residue or evaluation map may have
# (rows in FLAT_BASIS order, columns the section coefficients (a, b, c, d));
# the other nine entries vanish in both cases.
_ENTRIES = ((0, 0), (3, 0), (2, 1), (1, 2), (2, 2), (0, 3), (3, 3))


def _stack(n: int, values) -> np.ndarray:
    """(n, 4, 4) maps with ``values`` (scalars or (n,) arrays) at _ENTRIES."""
    m = np.zeros((n, 4, 4), dtype=complex)
    for (row, col), value in zip(_ENTRIES, values):
        m[:, row, col] = value
    return m


def _map_stacks(l1, l2, y1, y2, case: int, trivialization: str) -> Tuple[np.ndarray, np.ndarray]:
    """(Res_{y1}, ev_{y2}) on the section coefficients of every sample, each
    (N, 4, 4), from the 1-d parameter arrays; lam = lambda1/lambda2.

    Case 1: the section is [[a, 0], [b*z0 + c*z1, d]] on the trivial
    component, with value B_0 at 0 (b kept) and B_inf at infinity (c kept).
    Res = S2^{-1} B_inf S1 - B_0 with S = [[0, lambda], [1, 0]] (dz/z
    trivialization; independent of y1), and ev_{y2} = w0 B_0 + w_inf
    S2^{-1} B_inf S1 with the interpolation weights w0 = y1/(y1 - y2) and
    w_inf = y2/(y2 - y1).

    Case 2: a section with a first-order pole at y1 decomposes as
    B'(z)/(z - y1) + z B''(z)/(z - y1) + t(z) e12 with B' constant (its
    value at infinity is forced diagonal), B'' = [[a'', 0], [b''*z0 +
    c''*z1, d'']], and the scalar t fixed by matching the endpoint values
    through the gluings: B'_0 + t e12 = -y1 S2^{-1} (B''_inf + t e12) S1.
    That gives t = -y1 lambda1 c'' and B' = [[-y1 d'', 0], [y1^2 lam c'',
    -y1 lam a'']].  The values at y are conjugated into the chosen fiber
    frames: the e12 entry divided by f(lambda1, y), the e21 entry
    multiplied by f(lambda2, y).  Case 1 has no such factor, but an unknown
    trivialization name raises DomainError in both cases.
    """
    _check_trivialization(trivialization)
    n = len(l1)
    lam = l1 / l2
    if case == 1:
        w0 = y1 / (y1 - y2)
        w_inf = y2 / (y2 - y1)
        res = _stack(n, (-1.0, lam, -1.0, l1, 0.0, 1.0, -1.0))
        ev = _stack(n, (w0, w_inf * lam, w0, w_inf * l1, 0.0, w_inf, w0))
        return res, ev
    f1, f2 = (_f_factors(x, y1, trivialization) for x in (l1, l2))
    g1, g2 = (_f_factors(x, y2, trivialization) for x in (l1, l2))
    delta = y2 - y1
    res = _stack(n, (1.0, -lam, f2, -l1 / f1, y1 * (lam + 1.0) * f2, -1.0, 1.0))
    ev = _stack(n, (
        y2 / delta, -y1 * lam / delta, g2 * y2 / delta, -y1 * l1 / (delta * g1),
        (y1 * y1 * lam + y2 * y2) * g2 / delta, -y1 / delta, y2 / delta,
    ))
    return res, ev


def _param_arrays(lambda1, lambda2, y1, y2) -> list:
    return np.broadcast_arrays(
        *(np.asarray(x, dtype=complex).reshape(-1) for x in (lambda1, lambda2, y1, y2))
    )


def composite_stack(
    lambda1, lambda2, y1, y2, case: int, trivialization: str = "exp-sqrt"
) -> np.ndarray:
    """ev_{y2} o Res_{y1}^{-1} of every sample, as an (N, 4, 4) stack.

    The parameters are 1-d arrays (broadcast against each other), one entry
    per sample.  The residue and evaluation maps of all samples are formed
    with array arithmetic, and one batched solve of Res^T M^T = ev^T gives
    M = ev Res^{-1}.  Each sample is validated as :class:`BundleParams`
    would, then against a unit gluing ratio (where Res is singular), and
    the result against non-finite entries; a :class:`DomainError` names the
    first offending sample.  ``trivialization`` matters in case 2 only, but
    must be one of TRIVIALIZATIONS in both.
    """
    if case not in (1, 2):
        raise DomainError(f"case must be 1 or 2, got {case!r}")
    params = _param_arrays(lambda1, lambda2, y1, y2)
    failure = _param_failure(params)
    if failure is not None:
        raise DomainError(f"sample {failure[0]}: {failure[1]}")
    unit = np.abs(params[0] / params[1] - 1.0) < 1e-12
    if unit.any():
        raise DomainError(
            f"sample {int(unit.argmax())}: residue map is singular when "
            "lambda1/lambda2 = 1; cannot invert"
        )
    res, ev = _map_stacks(*params, case, trivialization)
    m = np.linalg.solve(res.transpose(0, 2, 1), ev.transpose(0, 2, 1)).transpose(0, 2, 1)
    finite = np.isfinite(m).all(axis=(1, 2))
    if not finite.all():
        raise DomainError(f"sample {int(finite.argmin())}: matrix entries must be finite")
    return m


# ---------------------------------------------------------------------------
# one-sample views
# ---------------------------------------------------------------------------

def _one_sample(p: BundleParams) -> tuple:
    return p.lambda1, p.lambda2, p.y1, p.y2


def _maps_of(p: BundleParams, case: int, trivialization: str = "exp-sqrt") -> tuple:
    res, ev = _map_stacks(*_param_arrays(*_one_sample(p)), case, trivialization)
    return LinearMap4(res[0]), LinearMap4(ev[0])


def residue_map_case1(p: BundleParams) -> LinearMap4:
    """Residue at y1 on the (a, b, c, d) coefficient space, case 1:
    S2^{-1} B_inf S1 - B_0, independent of y1 itself."""
    return _maps_of(p, 1)[0]


def ev_map_case1(p: BundleParams) -> LinearMap4:
    """Evaluation at y2 of the section with a first-order pole at y1."""
    return _maps_of(p, 1)[1]


def residue_map_case2(p: BundleParams, trivialization: str = "exp-sqrt") -> LinearMap4:
    """Residue at y1 on the (a'', b'', c'', d'') coefficient space, case 2."""
    return _maps_of(p, 2, trivialization)[0]


def ev_map_case2(p: BundleParams, trivialization: str = "exp-sqrt") -> LinearMap4:
    """Evaluation at y2 of the case-2 section with a pole at y1."""
    return _maps_of(p, 2, trivialization)[1]


def composite_case1(p: BundleParams) -> LinearMap4:
    """ev_{y2} o Res_{y1}^{-1} on Mat(2), case 1 (numeric inverse)."""
    return LinearMap4(composite_stack(*_one_sample(p), 1)[0])


def composite_case2(p: BundleParams, trivialization: str = "exp-sqrt") -> LinearMap4:
    """ev_{y2} o Res_{y1}^{-1} on Mat(2), case 2 (numeric inverse)."""
    return LinearMap4(composite_stack(*_one_sample(p), 2, trivialization)[0])


def composite_map(p: BundleParams, trivialization: str = "exp-sqrt") -> LinearMap4:
    """Case-dispatching composite ev_{y2} o Res_{y1}^{-1}."""
    return LinearMap4(composite_stack(*_one_sample(p), p.case, trivialization)[0])


# ---------------------------------------------------------------------------
# trace-pairing dictionary between End(Mat(2)) and Mat(2) (x) Mat(2)
# ---------------------------------------------------------------------------

def tensors_from_maps(maps: np.ndarray) -> np.ndarray:
    """The (N, 2, 2, 2, 2) coefficients of the tensors r with
    M(X) = sum over legs of tr(A_k X) B_k, for an (N, 4, 4) stack of M.

    For r = sum A_k (x) B_k the matrix element reads
    coeffs[i, j, k, l] = matrix[flat(k, l), flat(j, i)], one index
    permutation.
    """
    return maps.reshape(-1, 2, 2, 2, 2).transpose(0, 4, 3, 1, 2)


def tensor_from_linear_map(m: LinearMap4) -> MatrixTensor2:
    """The tensor of one linear map: :func:`tensors_from_maps` of one."""
    return MatrixTensor2(tensors_from_maps(m.matrix)[0])


def linear_map_from_tensor(t: MatrixTensor2) -> LinearMap4:
    """Inverse of :func:`tensor_from_linear_map` (2x2 legs only)."""
    coeffs = t.coeffs
    if coeffs.shape != (2, 2, 2, 2):
        raise DomainError(f"expected 2x2 tensor legs, got shape {coeffs.shape}")
    return LinearMap4(coeffs.transpose(2, 3, 1, 0).reshape(4, 4))


# ---------------------------------------------------------------------------
# two-variable assembly
# ---------------------------------------------------------------------------

def aybe_handle_from_curve(case: int, trivialization: str = "exp-sqrt") -> SolutionHandle:
    """Wrap the composite as a two-variable solution candidate.

    The multiplicative parameters are exponentials of the additive
    variables: lambda = exp(u) (gluing ratio) and mu = exp(v) (point
    ratio), realized with lambda2 = y2 = 1 so the principal logs agree
    with (u, v) for |Im u|, |Im v| < pi.
    """
    if case not in (1, 2):
        raise DomainError(f"case must be 1 or 2, got {case!r}")
    _check_trivialization(trivialization)

    def fn(u: complex, v: complex) -> MatrixTensor2:
        m = composite_stack(cmath.exp(u), 1.0, cmath.exp(v), 1.0, case, trivialization)
        return MatrixTensor2(tensors_from_maps(m)[0])

    return custom_handle(fn, 2)
