"""Residual checks for the functional equations the solution families satisfy.

Four checks are implemented on top of :mod:`aybe.solutions`:

* the two-variable associative identity (three product terms),
* the one-variable classical identity (three commutators),
* unitarity (leg swap at the negated point),
* non-degeneracy (full rank of the tensor viewed as a map).

Each check comes in a pointwise flavour returning the raw residual tensor
and a sampled flavour returning a :class:`ResidualReport`.  Sampling is
seeded and deterministic; points that fall inside a pole guard are redrawn
and counted in the report's ``skipped`` field.

Each check declares its points once (:func:`_aybe_points` and its kin):
its draw guards them (:func:`_sample`), it evaluates them
(:func:`_request`), and the pointwise residuals guard them at 1e-9
(:func:`_guarded_values`).  Only the limit's circle nodes are not drawn.
Points without u need a CYBE family and points with u a two-variable
one: the draw and the evaluation both reject a handle of the other arity
(:func:`_points_of`).

A sampled check runs in three steps: it draws its samples from its own
generator (:func:`_sample`), its points are evaluated, and it finishes
its reports from their values.  :func:`run_suite` draws every check
first, then evaluates the points of all of them with one array call on
the handle per block of at most ``_BLOCK`` entries (one call unless
the checks are large), plus one on the CYBE partner for the limit check's
targets.  A check finishes as soon as the block holding its last point is
stored, and drops its values then, so no check's values outlive its
finish.  Each public ``check_*`` is the same path with one check.

One choice, :func:`_path`, sets how every check holds and combines the
values of a handle.  An elliptic handle with no gauge or a scalar one is
evaluated to the d x d twist table of each value; its products form only
the d^4 entries whose first index is 0, one multiplication each, its
ranks come from a d x d DFT of the table and its u -> 0 limits from the
table's row 0.  Any other handle is evaluated to its dense values, forms
each product of a block of samples as one batched BLAS matrix product,
and takes one SVD per rank.  The pointwise residuals are dense for every
handle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, NonConvergenceError
from .solutions import (
    _FAMILIES,
    SolutionHandle,
    _domain_mask,
    _graded,
    _limit_nodes,
    _values,
    eval_aybe_array,
    eval_cybe_array,
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

# entries per block of the sampled checks: about 2 MB per array.  A block
# of points is evaluated at once (n^4 entries per point; d^2 on the graded
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
    abs_residuals: Sequence[float],
    rel_residuals: Sequence[float],
    tolerance: float,
    skipped: int,
) -> ResidualReport:
    max_abs = max(abs_residuals) if len(abs_residuals) else 0.0
    max_rel = max(rel_residuals) if len(rel_residuals) else 0.0
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
    return _aybe_form_at(h, (u, up, v, vp), "aybe")


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
    return _aybe_form_at(h, (u, up, v, vp), "commutator")


def cybe_residual(h: SolutionHandle, v: complex, vp: complex) -> MatrixTensor3:
    """Residual [r12(v), r13(v+v')] + [r12(v), r23(v')] + [r13(v+v'), r23(v')]."""
    _, forms = _cybe_forms(_guarded_values(h, _cybe_points, [(v, vp)]), leg_product_array)
    return MatrixTensor3(forms["cybe"][0])


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
    return _eval_array(h, request.u, request.v).reshape((-1, len(samples)) + (h.n,) * 4)


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
    handle, 1-d arrays (u None or ignored on a one-variable handle)."""

    handle: SolutionHandle
    u: Optional[np.ndarray]
    v: np.ndarray


@dataclass(frozen=True, eq=False)
class _Drawn:
    """A sampled check between its draws and its finish: the requests whose
    values it needs, and ``finish``, which takes one (P, entries) array of
    values per request and returns the check's reports."""

    requests: Tuple[_Request, ...]
    finish: Callable[..., List[ResidualReport]]


def _evaluate_requests(
    requests: Sequence[_Request], store: Callable[[int, np.ndarray], None]
) -> None:
    """Calls ``store(k, values)`` with the values of request k, (P, entries
    of one value on the handle's :func:`_path`), as soon as they are
    complete.

    The points of all requests on one handle are evaluated together, with
    one call of the path's evaluation per block of at most _BLOCK entries
    (one call unless the checks are large), and each block is stored into
    its requests at once.  A request that spans several
    blocks ends its last one.  A request's array is allocated at its first
    block and handed to ``store`` at its last, after the block is freed if
    the request ends it; so when ``store`` frees what it is done with,
    the values alive are those of the requests not yet taken up, besides
    a block that holds the points of a later request."""
    handles = {id(r.handle): r.handle for r in requests}
    for key, h in handles.items():
        group = [k for k, r in enumerate(requests) if id(r.handle) == key]
        path = _path(h)
        size = math.prod(path.shape)

        def empty(r: _Request) -> np.ndarray:
            return np.empty((len(r.v), size), dtype=complex)

        for k in group:
            if not len(requests[k].v):
                store(k, empty(requests[k]))
        v = np.concatenate([requests[k].v for k in group])
        u = None if h.is_cybe else np.concatenate([requests[k].u for k in group])
        ends = np.cumsum([len(requests[k].v) for k in group]).tolist()
        step = max(1, _BLOCK // size)
        # the calls [s, e): at most step points, and a request that spans
        # several calls ends its last one
        bounds, s = [], 0
        for k, end in zip(group, ends):
            while end - s > step:
                bounds.append((s, s + step))
                s += step
            if end - len(requests[k].v) < s < end:
                bounds.append((s, end))
                s = end
        if s < len(v):
            bounds.append((s, len(v)))
        filling = {}
        for s, e in bounds:
            block = path.values(None if u is None else u[s:e], v[s:e]).reshape(e - s, size)
            for k, end in zip(group, ends):
                r = requests[k]
                start = end - len(r.v)
                lo, hi = max(start, s), min(end, e)
                if lo < hi:
                    if k not in filling:
                        filling[k] = empty(r)
                    filling[k][lo - start:hi - start] = block[lo - s:hi - s]
                    if hi == end:
                        if end == e:
                            # no later request has points in this block
                            del block
                        # taken up before the next request's array is made
                        store(k, filling.pop(k))


def _run(checks: Sequence[_Drawn]) -> List[ResidualReport]:
    """The reports of the drawn ``checks``, in order, from one
    :func:`_evaluate_requests` of all their requests.  A check finishes as
    soon as the values of its last request are stored, and drops them then,
    so no check's values outlive its finish: while a check finishes, the
    values alive are its own, the limit check's node values if they wait
    for its partner's, and at most one block that holds later points."""
    index = [(i, j) for i, c in enumerate(checks) for j in range(len(c.requests))]
    values: list = [[None] * len(c.requests) for c in checks]
    reports: List[List[ResidualReport]] = [[] for _ in checks]

    def store(k: int, vals: np.ndarray) -> None:
        i, j = index[k]
        values[i][j] = vals
        if all(x is not None for x in values[i]):
            reports[i] = checks[i].finish(*values[i])
            values[i] = None

    _evaluate_requests([r for c in checks for r in c.requests], store)
    return [rep for reps in reports for rep in reps]


def _request(h: SolutionHandle, points: Callable, samples: Sequence[tuple]) -> _Request:
    """The points of every sample, point-major: value k*N + s is point k of
    sample s."""
    if not samples:
        return _Request(h, np.empty(0, dtype=complex), np.empty(0, dtype=complex))
    u, v = _points_of(h, points, *np.array(samples, dtype=complex).T)
    return _Request(h, None if u is None else np.ravel(u), np.ravel(v))


def _points_of(h: SolutionHandle, points: Callable, *columns) -> tuple:
    """``points(*columns)``, once ``h`` takes them: points without u need a
    CYBE family and points with u a two-variable one; else DomainError with
    the message of :func:`eval_cybe_array` or :func:`eval_aybe_array`."""
    u, v = points(*columns)
    if (u is None) != h.is_cybe:
        kind = "a CYBE" if u is None else "a two-variable (AYBE)"
        raise DomainError(f"{h.family} is not {kind} family")
    return u, v


def _block_norms(values: np.ndarray, forms: Callable, entries: int) -> dict:
    """{tag: (max_abs list, relative Frobenius list)} over the samples of
    ``values`` (k, N, ...), where ``forms(block)`` gives (scale,
    {tag: residual}) for a block of samples.  A block holds _BLOCK //
    ``entries`` samples, ``entries`` the size of one sample's product, and
    only one block's three-leg arrays are alive at a time."""
    step = max(1, _BLOCK // entries)
    norms: dict = {}
    for s in range(0, values.shape[1], step):
        _extend_norms(norms, *forms(values[:, s:s + step]))
    return norms


def _extend_norms(norms: dict, scale: np.ndarray, residuals: dict) -> None:
    # a function of its own, so that a block's residuals are freed before
    # the next block's products are formed
    for tag, res in residuals.items():
        abs_res, rel_res = norms.setdefault(tag, ([], []))
        abs_res.extend(_max_abs(res))
        rel_res.extend(_frobenius(res) / scale)


def _aybe_forms(values: np.ndarray, tags: Tuple[str, ...], product: Callable) -> tuple:
    """(scale, {tag: residual}) for the samples of the six values of
    :func:`_aybe_points`, with ``product(x, legs_x, y, legs_y)`` the leg
    product on them (see :func:`_path`).  Each sample's scale is the
    largest Frobenius norm of T1..T3.  The forms are ``aybe``,
    T1 - T2 + T3, and ``commutator``, the same with every product replaced
    by a commutator.  Each product is added into its residual as soon as it
    is formed, so besides the two residuals at most two three-leg arrays per
    sample are alive at a time."""
    a, b, c, d, e, f = values
    res = com = None
    scale = np.full(len(a), 1e-300)
    for sign, x, lx, y, ly in (
        (1, a, "12", b, "13"), (-1, c, "23", d, "12"), (1, e, "13", f, "23")
    ):
        term = product(x, lx, y, ly)
        scale = np.maximum(scale, _frobenius(term))
        res = _accumulate(res, sign, term)
        if "commutator" in tags:
            term -= product(y, ly, x, lx)
            com = _accumulate(com, sign, term)
    forms = {"aybe": res, "commutator": com}
    return scale, {tag: forms[tag] for tag in tags}


def _cybe_forms(values: np.ndarray, product: Callable) -> tuple:
    """(scale, {"cybe": residual}) for the samples of the three values of
    :func:`_cybe_points`, with the leg product ``product`` as in
    :func:`_aybe_forms`: the residual is the sum of the three commutators,
    the scale the largest Frobenius norm of their six products."""
    r12, r13, r23 = values
    res = None
    scale = np.full(len(r12), 1e-300)
    for x, lx, y, ly in ((r12, "12", r13, "13"), (r12, "12", r23, "23"), (r13, "13", r23, "23")):
        forward = product(x, lx, y, ly)
        backward = product(y, ly, x, lx)
        scale = np.maximum(scale, np.maximum(_frobenius(forward), _frobenius(backward)))
        forward -= backward
        res = _accumulate(res, 1, forward)
    return scale, {"cybe": res}


def _accumulate(total: Optional[np.ndarray], sign: int, term: np.ndarray) -> np.ndarray:
    """total + sign * term, in place; a C-contiguous copy of ``term`` when
    ``total`` is None (the first term of a sum, with sign +1)."""
    if total is None:
        return term.copy()
    if sign > 0:
        total += term
    else:
        total -= term
    return total


def _aybe_form_at(h: SolutionHandle, sample: tuple, tag: str) -> MatrixTensor3:
    """One form of :func:`_aybe_forms` at one guarded sample."""
    _, forms = _aybe_forms(_guarded_values(h, _aybe_points, [sample]), (tag,), leg_product_array)
    return MatrixTensor3(forms[tag][0])


def _eval_array(h: SolutionHandle, u: Optional[np.ndarray], v: np.ndarray) -> np.ndarray:
    """eval_cybe_array (u None) or eval_aybe_array at the points."""
    return eval_cybe_array(h, v) if u is None else eval_aybe_array(h, u, v)


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
    # swap_legs, the rank as a map and project_sl of each value
    swap: Callable
    ranks: Callable
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
    product and takes one SVD per rank."""
    if not _graded(h):
        return _Path(
            lambda u, v: _eval_array(h, u, v), (h.n,) * 4, leg_product_array, h.n**6,
            _swap_dense, _ranks_as_maps, _project_sl,
        )
    d = h.n

    def product(x: np.ndarray, legs_x: str, y: np.ndarray, legs_y: str) -> np.ndarray:
        # np.take, not x[:, px]: the fancy index returns an array that is
        # not C-contiguous, which _frobenius cannot view as floats
        px, py = _graded_plan(d, legs_x, legs_y)
        return np.take(x, px, axis=1) * np.take(y, py, axis=1)

    return _Path(
        lambda u, v: _values(h, u, v), (d * d,), product, d**4,
        lambda x: np.take(x, _graded_swap(d), axis=1),
        lambda x: _twist_ranks(x.reshape(-1, d, d)),
        lambda x: _twist_project_sl(x.reshape(-1, d, d)).reshape(-1, d * d),
    )


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each x[k].  The entries are read in memory order, so
    the permuted view a leg product returns costs no copy."""
    axes = sorted(range(1, x.ndim), key=lambda k: -x.strides[k])
    flat = x.transpose([0] + axes).reshape(len(x), math.prod(x.shape[1:])).view(float)
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


CHECK_NAMES = ("aybe", "commutator", "cybe", "unitarity", "rank", "limit")


_TWO_PI_J = 2j * math.pi


def _sample_radius(h: SolutionHandle) -> float:
    return 0.4 if _FAMILIES[h.family].elliptic else 1.0


def _accept(
    rng: np.random.Generator,
    radius: float,
    count: int,
    width: int,
    clear: Callable[..., np.ndarray],
    max_draws: int,
) -> Tuple[List[tuple], int]:
    """Draw `count` tuples of `width` disc points that `clear` accepts, and
    count the rejects before the last accepted one.

    Candidates are drawn in blocks, ``count`` first and then twice the last
    block, with one ``rng.uniform`` call per block: each point takes two
    draws, r = radius*sqrt(x) and phi = 2*pi*x', in that order.
    ``clear(*columns)`` gets the block's `width` columns of points, (m,)
    arrays, and returns its (m,) boolean array; candidates are accepted in
    draw order.  Drawing past the last accepted candidate changes no result,
    because each check owns its generator.  NonConvergenceError is raised
    once `max_draws` candidates hold fewer than `count` accepted ones."""
    samples: List[tuple] = []
    skipped = draws = 0
    block = count
    while len(samples) < count:
        if draws >= max_draws:
            raise NonConvergenceError(
                f"rejection sampling exhausted {max_draws} draws"
            )
        m = min(block, max_draws - draws)
        x = rng.uniform(size=(m, width, 2))
        # r*exp(i*phi) is (r*cos(phi), r*sin(phi)) bit for bit: exp of an
        # imaginary number is (cos, sin), and the products with the real r
        # add exact zeros
        points = np.exp(x[..., 1] * _TWO_PI_J)
        points *= radius * np.sqrt(x[..., 0])
        taken = clear(*points.T).nonzero()[0][:count - len(samples)]
        samples += map(tuple, points[taken].tolist())
        # the candidates this block used: up to the last accepted one when
        # it completes the samples
        used = int(taken[-1]) + 1 if len(samples) == count else m
        skipped += used - len(taken)
        draws += m
        block = 2 * m
    return samples, skipped


def _sample(
    h: SolutionHandle, points: Callable, count: int, width: int, guard: float, config: SuiteConfig
) -> Tuple[List[tuple], int]:
    """:func:`_accept` on the check's own generator: `count` samples of
    `width` points whose ``points`` all keep clear of the poles of ``h`` by
    ``guard``, and the rejects; a handle of the wrong arity raises before
    the first draw."""
    _points_of(h, points, *(0j,) * width)

    def clear(*columns):
        return _domain_mask(h, *points(*columns), guard).all(axis=0)

    rng = np.random.default_rng(config.seed)
    return _accept(rng, _sample_radius(h), count, width, clear, config.max_draws)


def _draw_aybe(h: SolutionHandle, config: SuiteConfig, tags: Tuple[str, ...]) -> _Drawn:
    """One seeded sampling pass of the two-variable identity with one report
    per form in ``tags``; the forms share the 6*N values, T1..T3 and the
    relative scale."""
    samples, skipped = _sample(h, _aybe_points, config.n_aybe, 4, config.guard, config)
    path = _path(h)

    def finish(values):
        norms = _block_norms(
            values.reshape((6, len(samples)) + path.shape),
            lambda block: _aybe_forms(block, tags, path.product), path.entries,
        )
        return [
            _make_report(tag, samples, *norms.get(tag, ([], [])), config.tol_aybe, skipped)
            for tag in tags
        ]

    return _Drawn((_request(h, _aybe_points, samples),), finish)


def _draw_cybe(h: SolutionHandle, config: SuiteConfig) -> _Drawn:
    tol = config.tol_cybe
    if tol is None:
        tol = 1e-8 if _FAMILIES[h.family].elliptic else 1e-10
    samples, skipped = _sample(h, _cybe_points, config.n_cybe, 2, config.guard, config)
    path = _path(h)

    def finish(values):
        norms = _block_norms(
            values.reshape((3, len(samples)) + path.shape),
            lambda block: _cybe_forms(block, path.product), path.entries,
        )
        return [_make_report("cybe", samples, *norms.get("cybe", ([], [])), tol, skipped)]

    return _Drawn((_request(h, _cybe_points, samples),), finish)


def _draw_unitarity(h: SolutionHandle, config: SuiteConfig) -> _Drawn:
    width = 1 if h.is_cybe else 2
    samples, skipped = _sample(h, _unitarity_points, config.n_unitarity, width, config.guard, config)
    path = _path(h)

    def finish(values):
        direct, negated = values.reshape((2, len(samples)) + path.shape)
        swapped = path.swap(negated)
        res = swapped + direct
        scale = np.maximum(np.maximum(_frobenius(direct), _frobenius(swapped)), 1e-300)
        return [_make_report(
            "unitarity", samples, _max_abs(res), _frobenius(res) / scale,
            config.tol_unitarity, skipped,
        )]

    return _Drawn((_request(h, _unitarity_points, samples),), finish)


def _rank_at_samples(h: SolutionHandle, samples: List[tuple], tolerance: float) -> _Drawn:
    """The full-rank check at the (v,) or (u, v) ``samples``: the recorded
    residual is the rank deficit n^2 - rank."""
    path = _path(h)

    def finish(values):
        ranks = path.ranks(values.reshape((len(samples),) + path.shape))
        deficits = [float(h.n * h.n - rank) for rank in ranks]
        return [_make_report("rank", samples, deficits, deficits, tolerance, 0)]

    return _Drawn((_request(h, _rank_points, samples),), finish)


def _draw_rank(h: SolutionHandle, config: SuiteConfig) -> _Drawn:
    width = 1 if h.is_cybe else 2
    samples, _ = _sample(h, _rank_points, config.n_rank, width, config.guard, config)
    return _rank_at_samples(h, samples, 0.5)


def _draw_limit(h: SolutionHandle, config: SuiteConfig) -> _Drawn:
    paired = paired_cybe_handle(h)
    # keep v off the partner's poles: the limit's circle shrinks with the
    # distance R(v) from u = 0 to the nearest other u-pole, and this guard
    # keeps R(v) >= min(1e-2, r Im tau) / (d r) for the elliptic family.
    # The partner's sample radius is the handle's: both are elliptic or not
    guard = max(config.guard, 1e-2)
    samples, skipped = _sample(paired, _rank_points, config.n_limit, 1, guard, config)
    targets = _request(paired, _rank_points, samples)
    u_nodes, v_nodes, _ = _limit_nodes(h, targets.v)
    # the partner of a graded handle is graded, and of a dense one dense
    path = _path(h)

    def finish(node_values, target_values):
        target_values = target_values.reshape((len(samples),) + path.shape)
        # the u -> 0 limits: project_sl of the means over the nodes
        limits = path.project(node_values.reshape(u_nodes.shape + path.shape).mean(axis=1))
        res = limits - target_values
        scale = np.maximum(_frobenius(target_values), 1e-300)
        return [_make_report(
            "limit", samples, _max_abs(res), _frobenius(res) / scale, config.tol_limit, skipped
        )]

    return _Drawn((_Request(h, u_nodes.reshape(-1), v_nodes.reshape(-1)), targets), finish)


def check_aybe(h: SolutionHandle, config: SuiteConfig = SuiteConfig()) -> ResidualReport:
    """Sampled two-variable identity residual, relative to the product terms."""
    return _run([_draw_aybe(h, config, ("aybe",))])[0]


def check_aybe_commutator(
    h: SolutionHandle, config: SuiteConfig = SuiteConfig()
) -> ResidualReport:
    """Sampled commutator form of the two-variable identity."""
    return _run([_draw_aybe(h, config, ("commutator",))])[0]


def check_cybe(h: SolutionHandle, config: SuiteConfig = SuiteConfig()) -> ResidualReport:
    """Sampled one-variable identity residual, relative to the commutator
    operands (the six products making up the three commutators)."""
    return _run([_draw_cybe(h, config)])[0]


def check_unitarity(
    h: SolutionHandle, config: SuiteConfig = SuiteConfig()
) -> ResidualReport:
    """Sampled unitarity residual, relative to the operand norms."""
    return _run([_draw_unitarity(h, config)])[0]


def nondegeneracy_check(
    h: SolutionHandle,
    pts: Iterable,
    tolerance: float = 0.5,
) -> ResidualReport:
    """Full-rank check of the tensor as a map at the given points.

    ``pts`` holds (u, v) pairs for two-variable families or bare v values
    for one-variable families.  The recorded residual is the rank deficit
    n^2 - rank, so a report passes exactly when every point has full rank.
    """
    pairs = [p if isinstance(p, tuple) else (None, p) for p in pts]
    if not h.is_cybe and any(u is None for u, _ in pairs):
        raise DomainError("two-variable families need (u, v) points")
    samples = [(v,) if h.is_cybe else (u, v) for u, v in pairs]
    return _run([_rank_at_samples(h, samples, tolerance)])[0]


def check_rank(h: SolutionHandle, config: SuiteConfig = SuiteConfig()) -> ResidualReport:
    """Seeded :func:`nondegeneracy_check`."""
    return _run([_draw_rank(h, config)])[0]


def check_limit_consistency(
    h: SolutionHandle, config: SuiteConfig = SuiteConfig()
) -> ResidualReport:
    """Sampled comparison of the u -> 0 limit against the paired family."""
    return _run([_draw_limit(h, config)])[0]


_DRAWS = {
    "aybe": lambda h, config: _draw_aybe(h, config, ("aybe",)),
    "commutator": lambda h, config: _draw_aybe(h, config, ("commutator",)),
    "cybe": _draw_cybe,
    "unitarity": _draw_unitarity,
    "rank": _draw_rank,
    "limit": _draw_limit,
}


def _applicable_checks(h: SolutionHandle) -> Tuple[str, ...]:
    if h.is_cybe:
        return ("cybe", "unitarity")
    checks = ("aybe", "commutator", "unitarity", "rank")
    if _FAMILIES[h.family].partner is not None and h.n > 1:
        checks += ("limit",)
    return checks


def run_suite(h: SolutionHandle, config: SuiteConfig = SuiteConfig()) -> List[ResidualReport]:
    """Run every applicable check; deterministic given (handle, config).

    Each check draws its samples from its own generator, as it does alone;
    then the points of all checks are evaluated together, one call per
    block of at most _BLOCK entries on the handle and one on the CYBE
    partner of the limit check, and each check finishes its reports from
    its values.  The reports equal those of the separate check functions."""
    names = _applicable_checks(h)
    if config.checks is not None:
        unknown = set(config.checks) - set(CHECK_NAMES)
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        names = tuple(c for c in names if c in config.checks)
    drawn = []
    if "aybe" in names and "commutator" in names:
        # both forms lead every two-variable check list and share one pass
        drawn.append(_draw_aybe(h, config, ("aybe", "commutator")))
        names = names[2:]
    return _run(drawn + [_DRAWS[name](h, config) for name in names])
