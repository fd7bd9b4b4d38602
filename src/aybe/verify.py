"""Residual checks for the functional equations the solution families satisfy.

Four checks are implemented on top of :mod:`aybe.solutions`:

* the two-variable associative identity (three product terms),
* the one-variable classical identity (three commutators),
* unitarity (leg swap at the negated point),
* non-degeneracy (full rank of the tensor viewed as a map).

Each identity is a term table of signed one-leg products r_ab r_cd of the
values of its points (:data:`_AYBE_TERMS`, :data:`_CYBE_TERMS`), and one
loop forms every table's residuals (:func:`_product_forms`).  A sampled
residual first scales each sample's values by a power of two
(:func:`_unit_scaled`), so no norm overflows and no relative residual
changes.

Each check comes in a pointwise flavour returning the raw residual tensor
and a sampled flavour returning a :class:`ResidualReport`.  Sampling is
seeded and deterministic; points that fall inside a pole guard are redrawn
and counted in the report's ``skipped`` field.

Each sampled check is one record of the table :data:`_CHECKS`
(:class:`_Check`): the tags it reports, its points and their width, its
:class:`SuiteConfig` count and tolerance, the handles :func:`run_suite`
runs it on, and one function from the values of its points to residuals
per sample.  The ``aybe`` and ``commutator`` forms are one record that
reports the tags asked for, and the ``limit`` record draws on the CYBE
partner.  One draw, one finish and one report builder serve every record
(:func:`_run`).

Each check declares its points once (:func:`_aybe_points` and its kin):
its draw guards them (:func:`_sample_all`), it evaluates them
(:func:`_request`), and the pointwise residuals and
:func:`nondegeneracy_check` guard them at 1e-9 (:func:`_guarded_values`).
Only the limit's circle nodes are not drawn.  Points without u need a
CYBE family and points with u a two-variable one: the draw and the
evaluation both reject a handle of the other arity (:func:`_points_of`).

A sampled check runs in three steps, draw, evaluation and finish, and
each step is one loop over the checks of a run (:func:`_run`).  Every
check reads the uniform stream of ``default_rng(seed)`` from its start,
so a run draws that stream once and gives each check a cursor into it
(:class:`_Stream`).  Each round of the draw reads the next candidate
block of every check still short, and guards the blocks on one handle
with one domain test (:func:`_sample_all`).  The points of all checks on
one handle are then packed whole, in order, into runs of at most
``_BLOCK`` entries (one run unless the checks are large), and a run is
one array call per ``_BLOCK`` entries, plus one run on the CYBE partner
for the limit check's targets (:func:`_evaluate_requests`).  A check finishes as soon as the
run holding its last point is evaluated, and drops its values then.
Each public ``check_*`` is the same path with one check.

One choice, :func:`_path`, sets how every check holds and combines the
values of a handle, and a run makes it once per handle.  An elliptic
handle with no gauge or a scalar one is evaluated to the d x d twist
table of each value; its products form only the d^4 entries whose first
index is 0, one multiplication each, its ranks come from a d x d DFT of
the table and its u -> 0 limits from the table's row 0.  Any other
handle is evaluated to its dense values, forms each product of a block
of samples as one batched BLAS matrix product, and takes one SVD per
rank of a finite value; a value that is not finite has rank 0 on both
paths.  The pointwise residuals and :func:`nondegeneracy_check` are dense
for every handle.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, NonConvergenceError
from .solutions import (
    _FAMILIES,
    _LIMIT_NODES,
    SolutionHandle,
    _dense_values,
    _domain_mask,
    _graded,
    _limit_nodes,
    _values,
    paired_cybe_handle,
)
from .tensors import (
    MatrixTensor2,
    MatrixTensor3,
    _graded_plan,
    _graded_swap,
    _project_sl,
    _ranks_as_maps,
    _twist_project_sl,
    _twist_ranks,
    leg_product_array,
)

# entries per array of the sampled checks: about 2 MB.  A run of points
# is evaluated into one array (n^4 entries per point; d^2 on the graded
# path), and the products of a block of samples are formed at once (n^6
# entries per sample, one sample per block at n = 7; d^4 on the graded
# path)
_BLOCK = 1 << 17

__all__ = [
    "CHECK_NAMES",
    "ResidualReport",
    "SuiteConfig",
    "aybe_residual",
    "aybe_commutator_residual",
    "cybe_residual",
    "unitarity_residual",
    "nondegeneracy_check",
    "check_aybe",
    "check_aybe_commutator",
    "check_cybe",
    "check_unitarity",
    "check_rank",
    "check_limit_consistency",
    "run_suite",
]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one sampled check.

    ``passed`` is defined as ``max_rel_residual < tolerance``; ``skipped``
    counts draws rejected by the domain guard before ``len(points)``
    accepted samples were found.
    """

    tag: str
    points: tuple
    max_abs_residual: float
    max_rel_residual: float
    tolerance: float
    passed: bool
    skipped: int = 0

    def __post_init__(self):
        if self.max_abs_residual < 0 or self.max_rel_residual < 0:
            raise ValueError("residuals must be non-negative")
        if self.passed != (self.max_rel_residual < self.tolerance):
            raise ValueError("pass flag inconsistent with residual/tolerance")

    def summary_line(self) -> str:
        word = "PASS" if self.passed else "FAIL"
        return (
            f"{word} {self.tag}: max_abs={self.max_abs_residual:.3e} "
            f"max_rel={self.max_rel_residual:.3e} tol={self.tolerance:.1e} "
            f"points={len(self.points)} skipped={self.skipped}"
        )

    def to_dict(self) -> dict:
        def _pt(p) -> list:
            return [[complex(z).real, complex(z).imag] for z in p]

        return {
            "tag": self.tag,
            "points": [_pt(p) for p in self.points],
            "max_abs_residual": self.max_abs_residual,
            "max_rel_residual": self.max_rel_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "skipped": self.skipped,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResidualReport":
        points = tuple(
            tuple(complex(re, im) for re, im in pt) for pt in data["points"]
        )
        return cls(
            tag=data["tag"],
            points=points,
            max_abs_residual=data["max_abs_residual"],
            max_rel_residual=data["max_rel_residual"],
            tolerance=data["tolerance"],
            passed=data["passed"],
            skipped=data.get("skipped", 0),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _make_report(
    tag: str,
    samples: Sequence[tuple],
    abs_residuals: np.ndarray,
    rel_residuals: np.ndarray,
    tolerance: float,
    skipped: int,
) -> ResidualReport:
    # numpy's max, unlike Python's, carries a NaN at any place through, so
    # a NaN residual fails
    max_abs = np.asarray(abs_residuals).max(initial=0.0)
    max_rel = np.asarray(rel_residuals).max(initial=0.0)
    return ResidualReport(
        tag=tag,
        points=tuple(samples),
        max_abs_residual=float(max_abs),
        max_rel_residual=float(max_rel),
        tolerance=float(tolerance),
        passed=bool(max_rel < tolerance),
        skipped=skipped,
    )


# ---------------------------------------------------------------------------
# pointwise residuals
# ---------------------------------------------------------------------------

def aybe_residual(
    h: SolutionHandle, u: complex, up: complex, v: complex, vp: complex
) -> MatrixTensor3:
    """Residual tensor ``T1 - T2 + T3`` of the two-variable identity (zero
    for genuine solutions), with::

        T1 = r12(-u', v)      r13(u+u', v+v')
        T2 = r23(u+u', v')    r12(u, v)
        T3 = r13(u, v+v')     r23(u', v')
    """
    return _form_at(h, _aybe_points, _AYBE_TERMS, (u, up, v, vp), "aybe")


def aybe_commutator_residual(
    h: SolutionHandle, u: complex, up: complex, v: complex, vp: complex
) -> MatrixTensor3:
    """Commutator form of the two-variable identity.

    For unitary solutions the identity also holds with every product
    replaced by a commutator,

        [r12(-u',v), r13(u+u',v+v')] - [r23(u+u',v'), r12(u,v)]
            + [r13(u,v+v'), r23(u',v')],

    which is the mechanical step behind the classical limit.
    """
    return _form_at(h, _aybe_points, _AYBE_TERMS, (u, up, v, vp), "commutator")


def cybe_residual(h: SolutionHandle, v: complex, vp: complex) -> MatrixTensor3:
    """Residual [r12(v), r13(v+v')] + [r12(v), r23(v')] + [r13(v+v'), r23(v')]."""
    return _form_at(h, _cybe_points, _CYBE_TERMS, (v, vp), "cybe")


def _unitarity_residuals(h: SolutionHandle, pairs: Sequence[tuple]) -> np.ndarray:
    """swap_legs(r(-u, -v)) + r(u, v) at every (u, v) pair, (N, n, n, n, n),
    guarded (u is ignored for one-variable families)."""
    samples = [(v,) if h.is_cybe else (u, v) for u, v in pairs]
    direct, negated = _guarded_values(h, _unitarity_points, samples)
    return _swap_dense(negated) + direct


def unitarity_residual(h: SolutionHandle, u: complex, v: complex) -> MatrixTensor2:
    """swap_legs(r(-u, -v)) + r(u, v); for one-variable families u is ignored
    and the check is swap_legs(r(-v)) + r(v)."""
    return MatrixTensor2(_unitarity_residuals(h, [(u, v)])[0])


def _guarded_values(h: SolutionHandle, points: Callable, samples: Sequence[tuple]) -> np.ndarray:
    """The dense values (k, len(samples), n, n, n, n) of the k points of
    each of the ``samples``, once all of them keep clear of the poles by
    1e-9; else DomainError names the first offending point, sample by
    sample, from the caller's own values."""
    request = _request(h, points, samples)
    clear = _domain_mask(h, request.u, request.v, 1e-9)
    if not clear.all():
        clear = clear.reshape(-1, len(samples))
        s = int(clear.all(axis=0).argmin())
        k = int(clear[:, s].argmin())
        u, v = points(*samples[s])
        if u is None:
            raise DomainError(f"point {v[k]} is outside the domain of {h.family}")
        raise DomainError(f"evaluation point ({u[k]}, {v[k]}) hits a pole of {h.family}")
    k = len(request.v) // max(len(samples), 1)
    return _dense_values(h, request.u, request.v).reshape((k, len(samples)) + (h.n,) * 4)


# ---------------------------------------------------------------------------
# the points of each sample of a check: (u, v), each a tuple of the k
# points' coordinates (u None on a one-variable handle), of the sample's
# columns (u, u', ...) as Python numbers or as arrays of many samples
# ---------------------------------------------------------------------------

def _aybe_points(u, up, v, vp) -> tuple:
    """r12 and r13 of T1, r23 and r12 of T2, r13 and r23 of T3 (see
    :func:`aybe_residual`)."""
    return (-up, u + up, u + up, u, u, up), (v, v + vp, vp, v, v + vp, vp)


def _cybe_points(v, vp) -> tuple:
    """r12, r13 and r23 of :func:`cybe_residual`."""
    return None, (v, v + vp, vp)


# the identities as term tables for :func:`_product_forms`: rows (sign, x,
# legs_x, y, legs_y), x and y indexing the values of the points above
_AYBE_TERMS = ((1, 0, "12", 1, "13"), (-1, 2, "23", 3, "12"), (1, 4, "13", 5, "23"))
_CYBE_TERMS = ((1, 0, "12", 1, "13"), (1, 0, "12", 2, "23"), (1, 1, "13", 2, "23"))


def _unitarity_points(*sample) -> tuple:
    """The (v,) or (u, v) sample, and its negative."""
    v = sample[-1]
    return (None if len(sample) == 1 else (sample[0], -sample[0])), (v, -v)


def _rank_points(*sample) -> tuple:
    """The (v,) or (u, v) sample itself."""
    return (None if len(sample) == 1 else sample[:1]), sample[-1:]


# ---------------------------------------------------------------------------
# the points a check evaluates, and their evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _Request:
    """The points (u[k], v[k]) at which a check needs the values of one
    handle, 1-d arrays (u None on a one-variable handle)."""

    handle: SolutionHandle
    u: Optional[np.ndarray]
    v: np.ndarray


def _evaluate_requests(
    requests: Sequence[_Request], paths: dict, store: Callable[[int, np.ndarray], None]
) -> None:
    """Calls ``store(k, values)`` with the values of request k, (P, entries
    of one value on the handle's :func:`_path`, ``paths[id(handle)]``), as
    soon as they are evaluated.

    The requests on one handle are packed whole, in order, into runs of at
    most _BLOCK entries; a larger request is a run of its own.  A run is
    evaluated into an array of its own, with one call of the path's
    evaluation per _BLOCK entries (one call but for a larger request), and
    each of its requests gets its slice of that array.  So the values alive
    are those of the runs whose requests are not all taken up, and no
    call's output outlives its copy into the run."""
    for key in dict.fromkeys(id(r.handle) for r in requests):
        path = paths[key]
        size = math.prod(path.shape)
        step = max(1, _BLOCK // size)
        runs: List[list] = []
        for k, r in enumerate(requests):
            if id(r.handle) == key:
                if not runs or sum(len(requests[j].v) for j in runs[-1]) + len(r.v) > step:
                    runs.append([])
                runs[-1].append(k)
        for run in runs:
            v = np.concatenate([requests[k].v for k in run])
            u = None if requests[run[0]].u is None else np.concatenate([requests[k].u for k in run])
            values = np.empty((len(v), size), dtype=complex)
            for s in range(0, len(v), step):
                values[s:s + step] = path.values(
                    None if u is None else u[s:s + step], v[s:s + step]
                ).reshape(-1, size)
            end = 0
            for k in run:
                start, end = end, end + len(requests[k].v)
                store(k, values[start:end])
            del values  # alive now only through the slices not yet freed


def _request(h: SolutionHandle, points: Callable, samples: Sequence[tuple]) -> _Request:
    """The points of every sample, point-major: value k*N + s is point k of
    sample s."""
    if not samples:
        empty = np.empty(0, dtype=complex)
        return _Request(h, None if h.is_cybe else empty, empty)
    u, v = _points_of(h, points, *np.array(samples, dtype=complex).T)
    return _Request(h, None if u is None else np.concatenate(u), np.concatenate(v))


def _points_of(h: SolutionHandle, points: Callable, *columns) -> tuple:
    """``points(*columns)``, once ``h`` takes them: points without u need a
    CYBE family and points with u a two-variable one; else DomainError with
    the message of :func:`aybe.solutions.eval_cybe_array` or
    :func:`aybe.solutions.eval_aybe_array`."""
    u, v = points(*columns)
    if (u is None) != h.is_cybe:
        kind = "a CYBE" if u is None else "a two-variable (AYBE)"
        raise DomainError(f"{h.family} is not {kind} family")
    return u, v


def _unit_scaled(values: Sequence[np.ndarray], axis: int = 1) -> tuple:
    """(e, scaled values) of the N samples along ``axis`` of each array of
    ``values``.  e is, per sample, np.frexp's exponent of the largest value
    modulus over all of them (at least -1023, so that 2^-e is finite), and
    each array is scaled by 2^-e.  The scaled moduli are below 1, so no
    product or norm of them overflows, and a power of two changes no bit of
    a relative residual unless a value underflows."""
    top = functools.reduce(np.maximum, [
        np.abs(x).max(axis=tuple(k for k in range(x.ndim) if k != axis), initial=0.0) for x in values
    ])
    e = np.maximum(np.frexp(top)[1], -1023)
    factor = np.ldexp(1.0, -e)
    return e, [x * factor.reshape((-1,) + (1,) * (x.ndim - axis - 1)) for x in values]


@np.errstate(over="ignore")
def _norms(scale: np.ndarray, residuals: np.ndarray, e: np.ndarray) -> tuple:
    """(max_abs, rel) of each form and sample of ``residuals`` (forms, N,
    ...), formed from values scaled by 2^-e (:func:`_unit_scaled`): the
    max_abs scaled back by 2^e, and inf past the float range."""
    # a function of its own, so that a block's residuals are freed before
    # the next block's products are formed; every form's norms in one pass
    flat = residuals.reshape((-1,) + residuals.shape[2:])
    shape = residuals.shape[:2]
    return np.ldexp(_max_abs(flat).reshape(shape), e), _frobenius(flat).reshape(shape) / scale


def _product_forms(values: np.ndarray, terms: tuple, tags: Tuple[str, ...], product: Callable) -> tuple:
    """(scale, residuals) for the samples of ``values`` (k, N, ...), the
    values of the points of an identity with term table ``terms`` (rows
    (sign, x, legs_x, y, legs_y), x and y indexing ``values``), and the leg
    product ``product`` of :func:`_path`.  ``residuals[i]`` is the form
    ``tags[i]``: ``aybe`` sums sign * x y, and ``commutator`` or ``cybe``
    (after ``aybe``) sums sign * [x, y].  A sample's scale is the largest
    Frobenius norm of the products x y, and for ``cybe`` of the reversed
    products y x too.  Each product is copied or added into its forms as
    soon as it is formed, so besides the residuals at most two three-leg
    arrays per sample are alive at a time, three for ``cybe``, which keeps
    its reversed product for the scale."""
    scale = np.full(values.shape[1], 1e-300)
    for k, (sign, i, legs_x, j, legs_y) in enumerate(terms):
        term = product(values[i], legs_x, values[j], legs_y)
        scale = np.maximum(scale, _frobenius(term))
        if k == 0:
            forms = np.empty((len(tags),) + term.shape, dtype=complex)
        for form, tag in zip(forms, tags):
            if tag == "cybe":
                backward = product(values[j], legs_y, values[i], legs_x)
                scale = np.maximum(scale, _frobenius(backward))
                term -= backward
            elif tag == "commutator":
                term -= product(values[j], legs_y, values[i], legs_x)
            if k == 0:
                form[...] = term
            elif sign > 0:
                form += term
            else:
                form -= term
    return scale, forms


def _form_at(h: SolutionHandle, points: Callable, terms: tuple, sample: tuple, tag: str) -> MatrixTensor3:
    """The form ``tag`` of :func:`_product_forms` at one guarded sample."""
    _, forms = _product_forms(_guarded_values(h, points, [sample]), terms, (tag,), leg_product_array)
    return MatrixTensor3(forms[0, 0])


def _swap_dense(values: np.ndarray) -> np.ndarray:
    """swap_legs of every value of an (N, n, n, n, n) stack."""
    return values.transpose(0, 3, 4, 1, 2)


class _Path(NamedTuple):
    """How the sampled checks hold and combine the values of one handle
    (see :func:`_path`); each callable takes or returns stacks (N, ...) of
    values of ``shape``."""

    # (u, v) -> the values at the points (u None on a one-variable handle)
    values: Callable
    shape: tuple
    # (x, legs_x, y, legs_y) -> the leg product x_{legs_x} y_{legs_y}
    product: Callable
    # the entries of one sample's product
    entries: int
    # swap_legs, the rank deficit n^2 - rank as a map and project_sl of
    # each value
    swap: Callable
    deficits: Callable
    project: Callable


def _path(h: SolutionHandle) -> _Path:
    """The one choice between the graded and the dense path of the sampled
    checks of ``h``.

    A graded handle (:func:`aybe.solutions._graded`: a Heisenberg family
    with no gauge or a scalar one) is evaluated to the flat d x d twist
    table of each value (:func:`aybe.solutions._values`), row 0 of
    :func:`aybe.tensors._graded_layout`.  Each of its products forms, one
    multiplication per entry, only the d^4 charge-0 entries with first
    index 0 (:func:`aybe.tensors._graded_plan`).  Its entries depend only
    on index differences, so every product and residual is invariant under
    shifting all six indices at once, and those entries are a copy of every
    other shift of the first index: the max modulus is the same, and every
    Frobenius norm is 1/sqrt(d) of the full one, which the relative
    residual cancels.  The same holds for a table against its dense value.
    The swap permutes the table, a rank comes from its DFT
    (:func:`aybe.tensors._twist_ranks`) and project_sl shifts its row 0
    (:func:`aybe.tensors._twist_project_sl`).  Any other handle is
    evaluated dense, forms n^6 entries per product as one BLAS matrix
    product and takes one SVD per rank of a finite value
    (:func:`aybe.tensors._ranks_as_maps`).  Both products serve the term
    tables of :func:`_product_forms`."""
    if not _graded(h):
        return _Path(
            lambda u, v: _dense_values(h, u, v), (h.n,) * 4, leg_product_array, h.n**6,
            _swap_dense, lambda x: h.n * h.n - _ranks_as_maps(x), _project_sl,
        )
    d = h.n

    def product(x: np.ndarray, legs_x: str, y: np.ndarray, legs_y: str) -> np.ndarray:
        # take, not x[:, px]: the fancy index returns an array that is
        # not C-contiguous, which _frobenius cannot view as floats
        px, py = _graded_plan(d, legs_x, legs_y)
        return x.take(px, axis=1) * y.take(py, axis=1)

    return _Path(
        lambda u, v: _values(h, u, v), (d * d,), product, d**4,
        lambda x: x.take(_graded_swap(d), axis=1),
        lambda x: d * d - _twist_ranks(x.reshape(-1, d, d)),
        lambda x: _twist_project_sl(x.reshape(-1, d, d)).reshape(-1, d * d),
    )


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each x[k].  The entries are read in memory order, so
    the permuted view a leg product returns costs no copy."""
    if not x.flags.c_contiguous:
        x = x.transpose([0] + sorted(range(1, x.ndim), key=lambda k: -x.strides[k]))
    flat = x.reshape(len(x), math.prod(x.shape[1:])).view(float)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


def _max_abs(x: np.ndarray) -> np.ndarray:
    """Largest entry modulus of each x[k]."""
    return np.abs(x).reshape(len(x), math.prod(x.shape[1:])).max(axis=1, initial=0.0)


# ---------------------------------------------------------------------------
# seeded sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteConfig:
    """Sampling plan for :func:`run_suite`; the seed fixes every draw."""

    seed: int = 0
    n_aybe: int = 25
    n_cybe: int = 25
    n_unitarity: int = 20
    n_rank: int = 5
    n_limit: int = 5
    tol_aybe: float = 1e-8
    tol_cybe: Optional[float] = None  # default: 1e-10 trig, 1e-8 elliptic
    tol_unitarity: float = 1e-10
    tol_limit: float = 1e-7
    guard: float = 1e-3
    max_draws: int = 10_000
    checks: Optional[Tuple[str, ...]] = None  # subset of CHECK_NAMES


_TWO_PI_J = 2j * math.pi


class _Stream:
    """The disc points of the uniform draws of ``default_rng(seed)``: point
    i takes draws 2i and 2i + 1, r = radius*sqrt(x) and phi = 2*pi*x', and
    a check of ``width`` points reads its candidates as consecutive groups
    of ``width`` of them.  Every check reads the points from the start, so
    a run draws them once, ``size`` at first and more as a check reads past
    them, and each check keeps its own cursor.  A run draws at one radius:
    the CYBE partner's is the handle's."""

    def __init__(self, seed: int, radius: float, size: int):
        self._rng = np.random.default_rng(seed)
        self._radius = radius
        self._drawn = self._rng.uniform(size=2 * size)
        self._points = np.empty(0, dtype=complex)  # the points of all draws so far

    def candidates(self, start: int, m: int, width: int) -> np.ndarray:
        """Candidates start .. start + m of a check of ``width`` points, (m, width)."""
        lo, hi = width * start, width * (start + m)
        if 2 * hi > len(self._drawn):
            more = self._rng.uniform(size=2 * hi - len(self._drawn))
            self._drawn = np.concatenate((self._drawn, more))
        if len(self._points) < hi:
            x = self._drawn.reshape(-1, 2)
            # r*exp(i*phi) is (r*cos(phi), r*sin(phi)) bit for bit: exp of an
            # imaginary number is (cos, sin), and the products with the real
            # r add exact zeros
            self._points = np.exp(x[:, 1] * _TWO_PI_J)
            self._points *= self._radius * np.sqrt(x[:, 0])
        return self._points[lo:hi].reshape(m, width)


def _sample_all(samplings: Sequence[tuple], radius: float, max_draws: int, seed: int) -> list:
    """(samples, rejects) of each of the ``samplings``, (handle, points,
    count, width, guard): ``count`` samples of ``width`` points of the disc
    of ``radius`` whose ``points`` (:func:`_aybe_points` and its kin) all
    keep clear of the poles of ``handle`` by ``guard``.  They come from one
    stream of ``default_rng(seed)`` (:class:`_Stream`); a handle of the
    wrong arity raises before the first draw.

    The draw is one loop of rounds.  Round i reads the next block of
    candidates of every sampling still short, ``count`` << i of them, and
    guards the blocks that share a handle and guard with one
    :func:`_domain_mask` call.  Candidates are accepted in draw order, and
    the rejects are counted up to the last accepted one.  Reading past it
    changes no result, because each sampling reads the stream from its own
    cursor.  NonConvergenceError is raised once ``max_draws`` candidates of
    a sampling hold fewer than ``count`` accepted ones."""
    for h, points, _, width, _ in samplings:
        _points_of(h, points, *(0j,) * width)
    stream = _Stream(seed, radius, max(
        (width * min(count, max_draws) for _, _, count, width, _ in samplings), default=0
    ))
    samples: List[list] = [[] for _ in samplings]
    skipped = [0] * len(samplings)
    draws = [0] * len(samplings)
    for i in itertools.count():
        groups: dict = {}  # (handle, guard) -> (k, candidates, their points)
        for k, (h, points, count, width, guard) in enumerate(samplings):
            if len(samples[k]) < count:
                if draws[k] >= max_draws:
                    raise NonConvergenceError(f"rejection sampling exhausted {max_draws} draws")
                m = min(count << i, max_draws - draws[k])
                candidates = stream.candidates(draws[k], m, width)
                draws[k] += m
                group = groups.setdefault((id(h), guard), (h, guard, []))[2]
                group.append((k, candidates, points(*candidates.T)))
        if not groups:
            return list(zip(samples, skipped))
        for h, guard, group in groups.values():
            # the points of every block, point-major, one after another
            u = None if h.is_cybe else np.concatenate([x for _, _, (pu, _) in group for x in pu])
            clear = _domain_mask(h, u, np.concatenate([x for _, _, (_, pv) in group for x in pv]), guard)
            end = 0
            for k, candidates, (_, v) in group:
                start, end = end, end + len(v) * len(candidates)
                cleared = clear[start:end].reshape(len(v), -1).all(axis=0)
                count = samplings[k][2]
                taken = cleared.nonzero()[0][:count - len(samples[k])]
                samples[k] += map(tuple, candidates[taken].tolist())
                # the candidates this block used: up to the last accepted
                # one when it completes the samples
                used = int(taken[-1]) + 1 if len(samples[k]) == count else len(candidates)
                skipped[k] += used - len(taken)


# ---------------------------------------------------------------------------
# the sampled checks: one record each
# ---------------------------------------------------------------------------

def _product_residuals(
    terms: tuple, path: _Path, tags: Tuple[str, ...], count: int, values: np.ndarray
) -> list:
    """The forms ``tags`` of :func:`_product_forms` of the identity
    ``terms``, which share the values, the products and the relative scale.
    A block of _BLOCK // ``path.entries`` samples is formed at a time (an
    empty one for no samples), so only one block's three-leg arrays are
    alive at a time.  Each sample's values are scaled by 2^-e
    (:func:`_unit_scaled`) before its products, and the max_abs of its
    forms, of degree 2 in the values, by 2^2e after."""
    width = 1 + max(max(i, j) for _, i, _, j, _ in terms)
    values = values.reshape((width, count) + path.shape)
    step = max(1, _BLOCK // path.entries)
    norms = []
    for s in range(0, max(count, 1), step):
        e, (block,) = _unit_scaled([values[:, s:s + step]])
        norms.append(_norms(*_product_forms(block, terms, tags, path.product), 2 * e))
    return list(zip(*(np.concatenate(x, axis=1) for x in zip(*norms))))


def _swap_residuals(path: _Path, tags: Tuple[str, ...], count: int, values: np.ndarray) -> list:
    """Unitarity, relative to the operand norms, on the values scaled by
    2^-e per sample (:func:`_unit_scaled`)."""
    e, ((direct, negated),) = _unit_scaled([values.reshape((2, count) + path.shape)])
    swapped = path.swap(negated)
    res = swapped + direct
    scale = np.maximum(np.maximum(_frobenius(direct), _frobenius(swapped)), 1e-300)
    return list(zip(*_norms(scale, res[None], e)))


def _rank_residuals(path: _Path, tags: Tuple[str, ...], count: int, values: np.ndarray) -> list:
    """The rank deficit n^2 - rank, as both residuals."""
    deficits = path.deficits(values.reshape((count,) + path.shape))
    return [(deficits, deficits)]


def _limit_residuals(
    path: _Path, tags: Tuple[str, ...], count: int, nodes: np.ndarray, targets: np.ndarray
) -> list:
    """The u -> 0 limits, project_sl of the means over the circle nodes of
    each target, against the partner's values there (the partner of a
    graded handle is graded, and of a dense one dense).  A sample's nodes
    and target are scaled by 2^-e (:func:`_unit_scaled`)."""
    nodes = nodes.reshape((count, len(_LIMIT_NODES)) + path.shape)
    e, (nodes, targets) = _unit_scaled([nodes, targets.reshape((count,) + path.shape)], axis=0)
    res = path.project(nodes.mean(axis=1)) - targets
    scale = np.maximum(_frobenius(targets), 1e-300)
    return list(zip(*_norms(scale, res[None], e)))


class _Check(NamedTuple):
    """One sampled check: the samples it draws, whose ``points`` keep clear
    of the poles by the config's guard, and ``residuals(path, tags, N,
    *values)``, the (abs, rel) residuals per sample of each tag it reports
    from the run's :func:`_path` of the handle and the values of each of
    its requests."""

    tags: Tuple[str, ...]
    points: Callable
    # the points per sample on a one- and on a two-variable handle
    widths: Tuple[int, int]
    # the SuiteConfig field of its sample count
    count: str
    tolerance: Callable[[SolutionHandle, SuiteConfig], float]
    # whether run_suite runs it on a handle
    applies: Callable[[SolutionHandle], bool]
    residuals: Callable
    # draws on the CYBE partner at a guard of at least 1e-2, and requests
    # the handle's values at the u-circle nodes of each target before the
    # partner's values at the targets
    partner: bool = False


def _cybe_tolerance(h: SolutionHandle, config: SuiteConfig) -> float:
    if config.tol_cybe is not None:
        return config.tol_cybe
    return 1e-8 if _FAMILIES[h.family].elliptic else 1e-10


# the limit's guard keeps v off the partner's poles: its circle shrinks with
# the distance R(v) from u = 0 to the nearest other u-pole, and the guard
# keeps R(v) >= min(1e-2, r Im tau) / (d r) for the elliptic family, and
# the circle at least 0.98 * 1e-2 / 50 clear of every pole, so its nodes
# need no guard of their own.  The partner's sample radius is the
# handle's: both are elliptic or not
_CHECKS = (
    _Check(("aybe", "commutator"), _aybe_points, (4, 4), "n_aybe", lambda h, config: config.tol_aybe,
           lambda h: not h.is_cybe, functools.partial(_product_residuals, _AYBE_TERMS)),
    _Check(("cybe",), _cybe_points, (2, 2), "n_cybe", _cybe_tolerance,
           lambda h: h.is_cybe, functools.partial(_product_residuals, _CYBE_TERMS)),
    _Check(("unitarity",), _unitarity_points, (1, 2), "n_unitarity",
           lambda h, config: config.tol_unitarity, lambda h: True, _swap_residuals),
    _Check(("rank",), _rank_points, (1, 2), "n_rank",
           lambda h, config: 0.5, lambda h: not h.is_cybe, _rank_residuals),
    _Check(("limit",), _rank_points, (1, 1), "n_limit", lambda h, config: config.tol_limit,
           lambda h: not h.is_cybe and _FAMILIES[h.family].partner is not None and h.n > 1,
           _limit_residuals, partner=True),
)

CHECK_NAMES = tuple(tag for check in _CHECKS for tag in check.tags)


def _applicable_checks(h: SolutionHandle) -> Tuple[str, ...]:
    return tuple(tag for check in _CHECKS if check.applies(h) for tag in check.tags)


def _finish(drawn: tuple, path: _Path, values: list) -> List[ResidualReport]:
    """The reports of a drawn check, (check, tags, samples, rejects,
    tolerance), from the values of its requests."""
    check, tags, samples, skipped, tolerance = drawn
    residuals = check.residuals(path, tags, len(samples), *values)
    return [
        _make_report(tag, samples, abs_res, rel_res, tolerance, skipped)
        for tag, (abs_res, rel_res) in zip(tags, residuals)
    ]


def _run(h: SolutionHandle, config: SuiteConfig, tags: Sequence[str]) -> List[ResidualReport]:
    """The reports of the checks of :data:`_CHECKS` that report ``tags``,
    in table order, on one :func:`_path` per handle (see the module
    docstring): one draw of all checks (:func:`_sample_all`), one pass of
    evaluation runs (:func:`_evaluate_requests`) and one finish per check
    (:func:`_finish`) as soon as its values are in.  While a check
    finishes, the values alive are those of its run, of the runs that hold
    the limit check's node values if they wait for its partner's, and no
    call's output."""
    checks, partner = [], None  # (check, its tags, the handle it draws on)
    for c in _CHECKS:
        t = [tag for tag in c.tags if tag in tags]
        if t:
            if c.partner:
                partner = paired_cybe_handle(h)
            checks.append((c, t, partner if c.partner else h))
    drawn = _sample_all([
        (target, c.points, getattr(config, c.count), c.widths[not target.is_cybe],
         max(config.guard, 1e-2) if c.partner else config.guard)
        for c, _, target in checks
    ], 0.4 if _FAMILIES[h.family].elliptic else 1.0, config.max_draws, config.seed)
    requests, index, finishes = [], [], []
    for i, ((c, t, target), (samples, skipped)) in enumerate(zip(checks, drawn)):
        request = _request(target, c.points, samples)
        if c.partner:
            u_nodes, v_nodes, _ = _limit_nodes(h, request.v)
            requests.append(_Request(h, u_nodes.reshape(-1), v_nodes.reshape(-1)))
        requests.append(request)
        index += [(i, j) for j in range(1 + c.partner)]
        finishes.append((c, t, samples, skipped, c.tolerance(h, config)))
    paths = {id(x): _path(x) for x in (h, partner) if x is not None}
    values: list = [[None] * (1 + c.partner) for c, _, _ in checks]
    reports: List[List[ResidualReport]] = [[] for _ in checks]

    def store(k: int, vals: np.ndarray) -> None:
        i, j = index[k]
        values[i][j] = vals
        if all(x is not None for x in values[i]):
            reports[i] = _finish(finishes[i], paths[id(h)], values[i])
            values[i] = None

    _evaluate_requests(requests, paths, store)
    return [rep for reps in reports for rep in reps]


def check_aybe(h: SolutionHandle, config: SuiteConfig = SuiteConfig()) -> ResidualReport:
    """Sampled two-variable identity residual, relative to the product terms."""
    return _run(h, config, ("aybe",))[0]


def check_aybe_commutator(
    h: SolutionHandle, config: SuiteConfig = SuiteConfig()
) -> ResidualReport:
    """Sampled commutator form of the two-variable identity."""
    return _run(h, config, ("commutator",))[0]


def check_cybe(h: SolutionHandle, config: SuiteConfig = SuiteConfig()) -> ResidualReport:
    """Sampled one-variable identity residual, relative to the commutator
    operands (the six products making up the three commutators)."""
    return _run(h, config, ("cybe",))[0]


def check_unitarity(
    h: SolutionHandle, config: SuiteConfig = SuiteConfig()
) -> ResidualReport:
    """Sampled unitarity residual, relative to the operand norms."""
    return _run(h, config, ("unitarity",))[0]


def nondegeneracy_check(
    h: SolutionHandle,
    pts: Iterable,
    tolerance: float = 0.5,
) -> ResidualReport:
    """Full-rank check of the tensor as a map at the given points.

    ``pts`` holds (u, v) pairs for two-variable families or bare v values
    for one-variable families.  The recorded residual is the rank deficit
    n^2 - rank, so a report passes exactly when every point has full rank.
    The points are guarded at 1e-9 and ranked dense, as the pointwise
    residuals are (:func:`_guarded_values`).
    """
    pairs = [p if isinstance(p, tuple) else (None, p) for p in pts]
    if not h.is_cybe and any(u is None for u, _ in pairs):
        raise DomainError("two-variable families need (u, v) points")
    samples = [(v,) if h.is_cybe else (u, v) for u, v in pairs]
    values = _guarded_values(h, _rank_points, samples)
    deficits = h.n * h.n - _ranks_as_maps(values.reshape((-1,) + (h.n,) * 4))
    return _make_report("rank", samples, deficits, deficits, tolerance, 0)


def check_rank(h: SolutionHandle, config: SuiteConfig = SuiteConfig()) -> ResidualReport:
    """Seeded :func:`nondegeneracy_check`."""
    return _run(h, config, ("rank",))[0]


def check_limit_consistency(
    h: SolutionHandle, config: SuiteConfig = SuiteConfig()
) -> ResidualReport:
    """Sampled comparison of the u -> 0 limit against the paired family."""
    return _run(h, config, ("limit",))[0]


def run_suite(h: SolutionHandle, config: SuiteConfig = SuiteConfig()) -> List[ResidualReport]:
    """Run every applicable check; deterministic given (handle, config).

    All checks share one draw, one evaluation pass and one finish
    (:func:`_run`), and the reports equal those of the separate check
    functions."""
    names = _applicable_checks(h)
    if config.checks is not None:
        unknown = set(config.checks) - set(CHECK_NAMES)
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(sorted(unknown))}")
        names = tuple(c for c in names if c in config.checks)
    return _run(h, config, names)
