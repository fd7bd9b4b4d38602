"""Residual checks: green families stay green, broken inputs fail loudly."""

import hashlib
import json
import math
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from aybe.solutions import (
    GaugeSpec,
    custom_handle,
    elliptic_aybe,
    elliptic_cybe,
    equivalence_transform,
    eval_aybe,
    handle_from_dict,
    handle_to_dict,
    paired_cybe_handle,
    scalar_kronecker,
    scalar_rational,
    scalar_trig,
    trig_aybe,
    trig_cybe,
)
import aybe.solutions
import aybe.verify
from aybe import bruteforce
from aybe.errors import DomainError, NonConvergenceError
from aybe.tensors import MatrixTensor2, from_pair, identity2, leg_product_array
from aybe.verify import (
    ResidualReport,
    SuiteConfig,
    aybe_commutator_residual,
    aybe_residual,
    check_aybe,
    check_aybe_commutator,
    check_cybe,
    check_limit_consistency,
    check_rank,
    check_unitarity,
    cybe_residual,
    nondegeneracy_check,
    run_suite,
    unitarity_residual,
)

FAST = SuiteConfig(seed=3, n_aybe=8, n_cybe=8, n_unitarity=8, n_rank=3, n_limit=3)


# the public sampled check of each name of CHECK_NAMES
CHECK_FNS = {
    "aybe": check_aybe,
    "commutator": check_aybe_commutator,
    "cybe": check_cybe,
    "unitarity": check_unitarity,
    "rank": check_rank,
    "limit": check_limit_consistency,
}


# ---------------------------------------------------------------------------
# green families
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "h",
    [
        elliptic_aybe(1, 1, 1j),
        elliptic_aybe(2, 1, 1j),
        elliptic_aybe(3, 2, 0.5 + 0.9j),
        trig_aybe(1),
        scalar_kronecker(1j),
        scalar_trig(),
        scalar_rational(1.0, 1.0),
    ],
    ids=str,
)
def test_full_suite_green(h):
    reports = run_suite(h, FAST)
    assert reports, "no applicable checks"
    for rep in reports:
        assert rep.passed, rep.summary_line()


@pytest.mark.parametrize(
    "h",
    [elliptic_cybe(2, 1, 1j), elliptic_cybe(3, 1, 1j), trig_cybe(1), trig_cybe(2)],
    ids=str,
)
def test_cybe_suite_green(h):
    reports = run_suite(h, FAST)
    tags = {rep.tag for rep in reports}
    assert "cybe" in tags and "unitarity" in tags
    for rep in reports:
        assert rep.passed, rep.summary_line()


ELLIPTIC_UNIT_HANDLES = [
    elliptic_aybe(d, r, 0.2 + 1.1j)
    for d in range(2, 8) for r in range(1, d) if math.gcd(r, d) == 1
]


@pytest.mark.parametrize("seed", [5, 11])
@pytest.mark.parametrize("h", ELLIPTIC_UNIT_HANDLES, ids=lambda h: f"d{h.d}r{h.r}")
def test_limit_consistency_to_roundoff_on_every_elliptic_unit(h, seed):
    rep = check_limit_consistency(h, SuiteConfig(seed=seed))
    assert rep.max_rel_residual <= 1e-12, rep.summary_line()


def test_scalar_rational_general_pole_weights():
    # a/u + b/v solves the two-variable equation for arbitrary nonzero
    # weights (the a^2, b^2 and a*b parts cancel separately), while adding
    # a constant term breaks it.
    for a, b in [(2.0, 2.0), (1.0, 2.0), (0.7 - 0.2j, 1.3j)]:
        assert check_aybe(scalar_rational(a, b), FAST).passed

    base = scalar_rational(1.0, 2.0)

    def shifted(u, v):
        return eval_aybe(base, u, v) + MatrixTensor2(
            np.array(0.5 + 0.0j).reshape(1, 1, 1, 1)
        )

    assert not check_aybe(custom_handle(shifted, 1), FAST).passed


# ---------------------------------------------------------------------------
# the asymmetric trigonometric family: documented deviation
# ---------------------------------------------------------------------------

def test_trig2_known_aybe_deviation_band():
    # The second trigonometric family ships in its symmetric form, which is
    # unitary and has the right one-variable limit but does not satisfy the
    # two-variable equation; the relative residual sits at O(0.1).
    h = trig_aybe(2)
    pts = [(0.31, -0.22, 0.41, 0.27), (0.2, 0.4, -0.3, 0.25), (0.6, -0.35, 0.5, 0.3)]
    for u, up, v, vp in pts:
        rel = aybe_residual(h, u, up, v, vp).max_abs() / eval_aybe(h, u, v).max_abs()
        assert 1e-3 < rel < 1.0
    # while the first family is exact at the same points
    h1 = trig_aybe(1)
    for u, up, v, vp in pts:
        assert aybe_residual(h1, u, up, v, vp).max_abs() < 1e-10


def test_trig2_other_checks_pass():
    h = trig_aybe(2)
    assert check_unitarity(h, FAST).passed
    assert check_rank(h, FAST).passed
    assert check_limit_consistency(h, FAST).passed
    assert check_cybe(trig_cybe(2), FAST).passed


# ---------------------------------------------------------------------------
# negative controls
# ---------------------------------------------------------------------------

def test_perturbed_solution_fails_aybe():
    base = trig_aybe(1)
    junk = from_pair(
        np.array([[0.01, 0.0], [0.0, -0.01]]), np.array([[0.0, 0.01], [0.01, 0.0]])
    )

    def bad_eval(u, v):
        return eval_aybe(base, u, v) + junk

    h = custom_handle(bad_eval, 2)
    rep = check_aybe(h, FAST)
    assert not rep.passed
    assert rep.max_rel_residual > 1e-6


def test_constant_tensor_fails_unitarity():
    ones = np.ones((2, 2))
    const = from_pair(ones, ones)
    h = custom_handle(lambda u, v: const, 2)
    rep = check_unitarity(h, FAST)
    assert not rep.passed
    # swap(r(-u,-v)) + r(u,v) = 2r for a constant symmetric tensor
    assert unitarity_residual(h, 0.3, 0.4).max_abs() == pytest.approx(2.0)


def test_identity_tensor_fails_nondegeneracy():
    h = custom_handle(lambda u, v: identity2(2), 2)
    rep = nondegeneracy_check(h, [(0.3, 0.4), (0.1, 0.7)])
    assert not rep.passed


@pytest.mark.parametrize("h", [trig_aybe(1), trig_cybe(1), elliptic_cybe(2, 1, 1j)], ids=str)
def test_nondegeneracy_check_of_no_points_passes(h):
    report = nondegeneracy_check(h, [])
    assert (report.passed, report.points, report.max_rel_residual) == (True, (), 0.0)


def test_perturbed_fixture_fails_limit_consistency(monkeypatch):
    # Serialized-orbit perturbations keep every equation identity (the orbit
    # is the symmetry group) but break agreement with the canonical
    # one-variable partner.  The limit check compares with the partner
    # rescaled alike, which agrees; the canonical one does not.
    data = handle_to_dict(elliptic_aybe(2, 1, 1j))
    data["rescale"][0] = [1.01, 0.0]
    h = handle_from_dict(data)
    reports = run_suite(h, FAST)
    by_tag = {rep.tag: rep for rep in reports}
    assert by_tag["aybe"].passed
    assert by_tag["unitarity"].passed
    assert by_tag["limit"].passed
    monkeypatch.setattr(
        aybe.verify, "paired_cybe_handle", lambda g: elliptic_cybe(g.d, g.r, g.tau)
    )
    assert not check_limit_consistency(h, FAST).passed


# ---------------------------------------------------------------------------
# pointwise residual helpers
# ---------------------------------------------------------------------------

def test_aybe_residual_explicit_point():
    res = aybe_residual(elliptic_aybe(2, 1, 1j), 0.21, -0.12, 0.31, 0.17)
    assert res.max_abs() < 1e-12


def test_cybe_residual_explicit_point():
    res = cybe_residual(elliptic_cybe(2, 1, 1j), 0.31, 0.17)
    assert res.max_abs() < 1e-12


def test_unitarity_residual_explicit_point():
    res = unitarity_residual(trig_aybe(1), 0.31, -0.22)
    assert res.max_abs() < 1e-13


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def test_report_roundtrip_and_summary():
    rep = check_aybe(scalar_trig(), FAST)
    back = ResidualReport.from_dict(json.loads(rep.to_json()))
    assert back == rep
    line = rep.summary_line()
    assert line.startswith("PASS aybe:")
    assert f"points={len(rep.points)}" in line


def test_report_validates_consistency():
    with pytest.raises(ValueError):
        ResidualReport(
            tag="x",
            points=((0.1, 0.2, 0.3, 0.4),),
            max_abs_residual=1.0,
            max_rel_residual=1.0,
            tolerance=1e-8,
            passed=True,
        )


def test_a_nan_residual_at_any_place_fails_the_report():
    for residuals in ([1e-12, math.nan], [math.nan, 1e-12]):
        rep = aybe.verify._make_report("x", [(0.1,), (0.2,)], residuals, residuals, 1e-8, 0)
        assert not rep.passed
        assert (math.isnan(rep.max_abs_residual), math.isnan(rep.max_rel_residual)) == (True, True)
        assert "max_rel=nan" in rep.summary_line()


def test_a_handle_that_returns_nan_fails_unitarity():
    # NaN wherever |u| > 0.5; with seed 3 that is 14 of the 20 samples, the
    # first of them after a finite one
    trig = trig_aybe(1)

    def fn(u, v):
        value = eval_aybe(trig, u, v)
        return MatrixTensor2(np.full_like(value.coeffs, np.nan)) if abs(u) > 0.5 else value

    (rep,) = run_suite(custom_handle(fn, 2), SuiteConfig(seed=3, checks=("unitarity",)))
    assert abs(rep.points[0][0]) <= 0.5 < max(abs(p[0]) for p in rep.points)
    assert not rep.passed
    assert math.isnan(rep.max_rel_residual)


def test_a_handle_that_returns_nan_fails_rank():
    # the same handle: with seed 3, three of the five rank samples are NaN,
    # and each has rank 0 instead of stopping the dense SVD
    trig = trig_aybe(1)

    def fn(u, v):
        value = eval_aybe(trig, u, v)
        return MatrixTensor2(np.full_like(value.coeffs, np.nan)) if abs(u) > 0.5 else value

    (rep,) = run_suite(custom_handle(fn, 2), SuiteConfig(seed=3, checks=("rank",)))
    assert sum(abs(p[0]) > 0.5 for p in rep.points) == 3
    assert not rep.passed
    assert (rep.max_abs_residual, rep.max_rel_residual) == (4.0, 4.0)


def test_an_unknown_check_is_named_in_the_error():
    with pytest.raises(ValueError, match=r"^unknown checks: bogus, nope$"):
        run_suite(trig_aybe(1), SuiteConfig(checks=("nope", "aybe", "bogus")))


def test_seed_determinism():
    a = check_aybe(elliptic_aybe(2, 1, 1j), SuiteConfig(seed=11, n_aybe=5))
    b = check_aybe(elliptic_aybe(2, 1, 1j), SuiteConfig(seed=11, n_aybe=5))
    assert a == b
    c = check_aybe(elliptic_aybe(2, 1, 1j), SuiteConfig(seed=12, n_aybe=5))
    assert c.points != a.points


def test_requested_check_filtering():
    reports = run_suite(trig_aybe(1), SuiteConfig(seed=1, n_aybe=4, checks=("aybe",)))
    assert [rep.tag for rep in reports] == ["aybe"]


# ---------------------------------------------------------------------------
# commutator check: one evaluation pass per sample, unchanged numbers
# ---------------------------------------------------------------------------

COMMUTATOR_HANDLES = [elliptic_aybe(3, 1, 1j), trig_aybe(1)]


def _count_evaluated_points(monkeypatch, name="eval_aybe_array"):
    """Record the number of points of every array evaluation the checks make
    of the points that ``name`` takes: (u, v) for eval_aybe_array or (v,)
    for eval_cybe_array, through the dense evaluator ``_dense_values`` or on
    a graded handle through the twist-table evaluator ``_values``, each with
    (u, v) or (None, v)."""
    calls = []

    def counting(real):
        def evaluate(h, u, v):
            if (u is None) == (name == "eval_cybe_array"):
                calls.append(np.broadcast(*(np.asarray(x) for x in (u, v) if x is not None)).size)
            return real(h, u, v)
        return evaluate

    for evaluator in ("_dense_values", "_values"):
        monkeypatch.setattr(aybe.verify, evaluator, counting(getattr(aybe.verify, evaluator)))
    return calls


def test_commutator_check_evaluates_six_points_per_sample(monkeypatch):
    calls = _count_evaluated_points(monkeypatch)
    report = check_aybe_commutator(trig_aybe(1), FAST)
    assert len(report.points) == FAST.n_aybe
    assert calls == [6 * FAST.n_aybe]


def _embed_mul_commutator(h, u, up, v, vp):
    """Terms and commutator residual built by embedding every operand into
    three legs and taking the full six-index product."""
    def r(a, b, legs):
        return eval_aybe(h, a, b).embed(legs)

    def comm(x, y):
        return x.mul(y) - y.mul(x)

    a, b = r(-up, v, "12"), r(u + up, v + vp, "13")
    c, d = r(u + up, vp, "23"), r(u, v, "12")
    e, f = r(u, v + vp, "13"), r(up, vp, "23")
    terms = (a.mul(b), c.mul(d), e.mul(f))
    return terms, comm(a, b) - comm(c, d) + comm(e, f)


@pytest.mark.parametrize("h", COMMUTATOR_HANDLES, ids=str)
def test_commutator_report_matches_embed_mul_reference(h):
    # the batched BLAS products round differently from the full six-index
    # products: equal up to 1e-14 of the product scale
    report = check_aybe_commutator(h, FAST)
    assert report.points == check_aybe(h, FAST).points
    abs_res, rel_res, scales = [], [], []
    for u, up, v, vp in report.points:
        terms, res = _embed_mul_commutator(h, u, up, v, vp)
        scales.append(max(t.frobenius() for t in terms))
        abs_res.append(res.max_abs())
        rel_res.append(res.frobenius() / scales[-1])
        direct = aybe_commutator_residual(h, u, up, v, vp)
        assert np.max(np.abs(direct.coeffs - res.coeffs)) <= 1e-14 * scales[-1]
    assert abs(report.max_abs_residual - max(abs_res)) <= 1e-14 * max(scales)
    assert abs(report.max_rel_residual - max(rel_res)) <= 1e-14
    assert report.passed


# ---------------------------------------------------------------------------
# what the family registry decides, and the shared aybe/commutator pass
# ---------------------------------------------------------------------------

TWO_VAR = ("aybe", "commutator", "unitarity", "rank")
ONE_VAR = ("cybe", "unitarity")
TINY = SuiteConfig(seed=4, n_aybe=2, n_cybe=2, n_unitarity=2, n_rank=2, n_limit=2)


@pytest.mark.parametrize(
    "h,tags,radius",
    [
        (elliptic_aybe(1, 1, 1j), TWO_VAR, 0.4),
        (elliptic_aybe(2, 1, 1j), TWO_VAR + ("limit",), 0.4),
        (elliptic_cybe(2, 1, 1j), ONE_VAR, 0.4),
        (trig_aybe(1), TWO_VAR + ("limit",), 1.0),
        (trig_cybe(2), ONE_VAR, 1.0),
        (scalar_kronecker(1j), TWO_VAR, 0.4),
        (scalar_trig(), TWO_VAR, 1.0),
        (scalar_rational(), TWO_VAR, 1.0),
        (custom_handle(lambda u, v: eval_aybe(trig_aybe(1), u, v), 2), TWO_VAR, 1.0),
    ],
    ids=str,
)
def test_suite_checks_radius_and_cybe_tolerance_per_family(h, tags, radius):
    reports = run_suite(h, TINY)
    assert tuple(rep.tag for rep in reports) == tags
    for rep in reports:
        if rep.tag != "limit":
            assert all(abs(z) <= radius for p in rep.points for z in p), rep.tag
        if rep.tag == "cybe":
            assert rep.tolerance == (1e-8 if radius == 0.4 else 1e-10)


@pytest.mark.parametrize("h", COMMUTATOR_HANDLES, ids=str)
def test_suite_samples_aybe_identity_once_for_both_reports(h, monkeypatch):
    config = SuiteConfig(seed=7, n_aybe=5, checks=("aybe", "commutator"))
    separate = [check_aybe(h, config), check_aybe_commutator(h, config)]
    calls = _count_evaluated_points(monkeypatch)
    reports = run_suite(h, config)
    assert calls == [6 * config.n_aybe]
    assert reports == separate
    calls.clear()
    check_aybe(h, config)
    assert calls == [6 * config.n_aybe]


def _cli_config(seed, points):
    # the sample counts of `aybe verify --points`
    n = min(points, 5)
    return SuiteConfig(
        seed=seed, n_aybe=points, n_cybe=points, n_unitarity=points, n_rank=n, n_limit=n
    )


@pytest.mark.parametrize("h,config", [
    (elliptic_aybe(3, 2, 0.2 + 1.1j), SuiteConfig(seed=5)),
    (elliptic_aybe(3, 1, 0.1 + 0.9j), _cli_config(8, 4)),
    (elliptic_aybe(7, 3, 0.2 + 1.1j), _cli_config(5, 1)),
    (elliptic_cybe(3, 2, 0.2 + 1.1j), SuiteConfig(seed=5)),
    (elliptic_cybe(7, 4, 0.3 + 1.2j), _cli_config(5, 1)),
], ids=lambda x: getattr(x, "family", "") + str(getattr(x, "d", "")))
def test_suite_makes_one_evaluation_call_per_handle(h, config, monkeypatch):
    # every check's points in one call on the handle, and the limit check's
    # targets in one call on its CYBE partner; and the first candidate
    # blocks of all checks guarded by one domain test per handle
    aybe_calls = _count_evaluated_points(monkeypatch)
    cybe_calls = _count_evaluated_points(monkeypatch, "eval_cybe_array")
    mask_calls = []
    real_mask = aybe.verify._domain_mask

    def counting_mask(handle, u, v, guard):
        mask_calls.append((handle.family, np.size(v)))
        return real_mask(handle, u, v, guard)

    monkeypatch.setattr(aybe.verify, "_domain_mask", counting_mask)
    reports = run_suite(h, config)
    counts = {rep.tag: len(rep.points) for rep in reports}
    assert all(rep.skipped == 0 for rep in reports)
    if h.is_cybe:
        assert aybe_calls == [] and cybe_calls == [3 * counts["cybe"] + 2 * counts["unitarity"]]
        assert mask_calls == [(h.family, 3 * counts["cybe"] + 2 * counts["unitarity"])]
    else:
        assert aybe_calls == [
            6 * counts["aybe"] + 2 * counts["unitarity"] + counts["rank"] + 8 * counts["limit"]
        ]
        assert cybe_calls == [counts["limit"]]
        assert mask_calls == [
            (h.family, 6 * counts["aybe"] + 2 * counts["unitarity"] + counts["rank"]),
            (paired_cybe_handle(h).family, counts["limit"]),
        ]


@pytest.mark.parametrize("h", [
    elliptic_aybe(5, 2, 0.2 + 1.1j), trig_aybe(1), elliptic_cybe(3, 1, 0.2 + 1.1j),
], ids=lambda h: h.family)
def test_a_run_builds_one_path_per_handle(h, monkeypatch):
    # every check of the handle shares its path, and the limit check's
    # targets use the partner's
    built = []
    real_path = aybe.verify._path

    def counting_path(handle):
        built.append(handle.family)
        return real_path(handle)

    monkeypatch.setattr(aybe.verify, "_path", counting_path)
    reports = run_suite(h, _cli_config(3, 2))
    assert all(rep.passed for rep in reports)
    assert built == [h.family] + ([] if h.is_cybe else [paired_cybe_handle(h).family])


def test_no_evaluation_call_holds_more_than_a_block(monkeypatch):
    # `aybe verify --points 400` at d = 7: 3,250 points (elliptic) and
    # 2,000 (elliptic-cybe) of 49 twist-table entries each (2,401 dense),
    # in calls of at most _BLOCK entries
    aybe_calls = _count_evaluated_points(monkeypatch)
    cybe_calls = _count_evaluated_points(monkeypatch, "eval_cybe_array")
    for h in (elliptic_aybe(7, 3, 0.2 + 1.1j), elliptic_cybe(7, 3, 0.2 + 1.1j)):
        aybe_calls.clear()
        cybe_calls.clear()
        reports = run_suite(h, _cli_config(5, 400))
        assert all(rep.passed for rep in reports)
        per_sample = {"aybe": 6, "cybe": 3, "unitarity": 2, "rank": 1, "limit": 9}
        expected = sum(len(rep.points) * per_sample.get(rep.tag, 0) for rep in reports)
        assert sum(aybe_calls) + sum(cybe_calls) == expected
        assert max(aybe_calls + cybe_calls) * 7**2 <= aybe.verify._BLOCK


def test_an_evaluation_call_holds_whole_requests(monkeypatch):
    # `aybe verify --points 400` at d = 7, graded: the 2,400 aybe points fill
    # a call of their own, and unitarity, rank and the limit's nodes share
    # the next; no request is split across two calls
    aybe_calls = _count_evaluated_points(monkeypatch)
    cybe_calls = _count_evaluated_points(monkeypatch, "eval_cybe_array")
    reports = run_suite(elliptic_aybe(7, 3, 0.2 + 1.1j), _cli_config(5, 400))
    assert all(rep.passed for rep in reports)
    counts = {rep.tag: len(rep.points) for rep in reports}
    assert aybe_calls == [
        6 * counts["aybe"], 2 * counts["unitarity"] + counts["rank"] + 8 * counts["limit"]
    ] == [2400, 845]
    assert cybe_calls == [counts["limit"]]


def test_each_round_of_the_draw_guards_a_handle_once(monkeypatch):
    # a guard that rejects many candidates takes several rounds: each round
    # reads the next block, twice the last, of every check still short, and
    # guards the blocks on one handle with one domain test
    h, config = trig_aybe(1), SuiteConfig(seed=3, guard=0.5)
    calls = []
    real_mask = aybe.verify._domain_mask

    def counting_mask(handle, u, v, guard):
        calls.append((handle.family, np.size(v)))
        return real_mask(handle, u, v, guard)

    monkeypatch.setattr(aybe.verify, "_domain_mask", counting_mask)
    reports = run_suite(h, config)
    assert all(rep.passed for rep in reports)
    # (family, points per sample, count, the candidates up to the last
    # accepted one) of each drawn check
    drawn = []
    for check, k in (("aybe", 6), ("unitarity", 2), ("rank", 1), ("limit", 1)):
        points, skipped = bruteforce.check_samples_pointwise(h, check, config)
        family = paired_cybe_handle(h).family if check == "limit" else h.family
        drawn.append((family, k, len(points), len(points) + skipped))
    expected, i = [], 0
    while True:
        sizes = {}  # family -> the points this round guards
        for family, k, count, needed in drawn:
            if count * ((1 << i) - 1) < needed:
                sizes[family] = sizes.get(family, 0) + k * (count << i)
        if not sizes:
            break
        expected += sizes.items()
        i += 1
    assert i == 3 and calls == expected


def test_a_dense_check_drops_its_values_before_the_next_call(monkeypatch):
    # a constant gauge keeps every entry of every value: at d = 3, 400
    # samples take 2,400 aybe points and then 845 (unitarity, rank and the
    # limit's nodes), in calls of at most _BLOCK // 81 = 1,618 points
    h = equivalence_transform(elliptic_aybe(3, 1, 0.2 + 1.1j), np.diag([1.0, 1.1, 0.9]) + 0.2)
    events = []
    blocks = []  # weak references to the values each call returned
    finished = []  # weak references to the values of the finished checks

    def logging_eval(h, *points, real_eval=aybe.verify._dense_values):
        assert all(ref() is None for ref in finished)
        events.append(len(points[-1]))
        # C order, so that the block verify keeps is a view of it
        values = np.ascontiguousarray(real_eval(h, *points))
        blocks.append(weakref.ref(values))
        return values

    monkeypatch.setattr(aybe.verify, "_dense_values", logging_eval)
    real_finish = aybe.verify._finish

    def logging_finish(drawn, path, values):
        reports = real_finish(drawn, path, values)
        events.append(([rep.tag for rep in reports], blocks[-1]() is not None))
        finished.extend(map(weakref.ref, values))
        return reports

    monkeypatch.setattr(aybe.verify, "_finish", logging_finish)
    reports = run_suite(h, _cli_config(5, 400))
    assert all(rep.passed for rep in reports)
    # each check finishes as soon as the call holding its last point
    # returns, with that call's values freed even when they hold later
    # points, and its own values are freed before the next call; the aybe
    # points end a call of their own
    assert events == [
        1618, 782, (["aybe", "commutator"], False), 845, (["unitarity"], False), (["rank"], False),
        5, (["limit"], False),
    ]
    assert all(ref() is None for ref in finished)


def _keyed(h, u, v):
    """{(family, u, v)} of the points (u, v), broadcast and flattened; u is
    None on a one-variable handle, which ignores it."""
    v = np.asarray(v, dtype=complex)
    u = np.full(v.shape, np.nan) if h.is_cybe else np.asarray(u, dtype=complex)
    u, v = np.broadcast_arrays(u, v)
    return {(h.family, None if h.is_cybe else a, b)
            for a, b in zip(u.ravel().tolist(), v.ravel().tolist())}


@pytest.mark.parametrize("h", [
    trig_aybe(1), trig_cybe(1), scalar_kronecker(0.2 + 1.1j),
    elliptic_aybe(3, 1, 0.2 + 1.1j), elliptic_cybe(3, 1, 0.2 + 1.1j),
], ids=str)
def test_every_evaluated_point_was_guarded(h, monkeypatch):
    # the points a check evaluates are points its draw guarded, but for the
    # limit check's circle nodes; its partner targets are guarded too
    guarded, evaluated = set(), set()
    mask = aybe.verify._domain_mask

    def recording_mask(h, u, v, guard):
        guarded.update(_keyed(h, u, v))
        return mask(h, u, v, guard)

    monkeypatch.setattr(aybe.verify, "_domain_mask", recording_mask)
    for name in ("_dense_values", "_values"):
        def recording_eval(h, *points, real=getattr(aybe.verify, name)):
            evaluated.update(_keyed(h, *(None, *points)[-2:]))
            return real(h, *points)

        monkeypatch.setattr(aybe.verify, name, recording_eval)
    reports = run_suite(h, FAST)
    assert [rep.tag for rep in reports] == list(aybe.verify._applicable_checks(h))
    nodes = set()
    for rep in reports:
        if rep.tag == "limit":
            targets = _keyed(paired_cybe_handle(h), None, [v for (v,) in rep.points])
            assert len(targets) == FAST.n_limit and targets <= evaluated & guarded
            v = np.array([v for (v,) in rep.points])
            nodes = _keyed(h, *aybe.solutions._limit_nodes(h, v)[:2])
    assert evaluated - nodes and evaluated - nodes <= guarded


# the handles of the suites above, gauged, rescaled and custom ones included
SUITE_HANDLES = [
    elliptic_aybe(1, 1, 1j),
    elliptic_aybe(2, 1, 1j),
    elliptic_aybe(3, 2, 0.5 + 0.9j),
    trig_aybe(1),
    trig_aybe(2),
    scalar_kronecker(1j),
    scalar_trig(),
    scalar_rational(1.0, 1.0),
    elliptic_cybe(2, 1, 1j),
    elliptic_cybe(3, 1, 1j),
    trig_cybe(1),
    trig_cybe(2),
    custom_handle(lambda u, v: eval_aybe(trig_aybe(1), u, v), 2),
    equivalence_transform(elliptic_aybe(3, 1, 0.2 + 1.1j), np.diag([1.0, 1.1, 0.9]) + 0.2),
    equivalence_transform(elliptic_cybe(3, 1, 0.2 + 1.1j), np.diag([1.0, 1.1, 0.9]) + 0.2),
    equivalence_transform(elliptic_aybe(3, 2, 0.2 + 1.1j), GaugeSpec(kind="scalar_exp", c=0.3)),
    handle_from_dict({**handle_to_dict(elliptic_aybe(2, 1, 0.1 + 0.9j)),
                      "rescale": [[1.2, 0.1], [0.3, 0], [1.1, 0.3], [0.9, -0.2]]}),
]


@pytest.mark.parametrize("h", SUITE_HANDLES, ids=str)
def test_suite_reports_equal_the_single_checks(h):
    small = SuiteConfig(seed=8, n_aybe=3, n_cybe=3, n_unitarity=3, n_rank=2, n_limit=2, guard=0.3)
    for config in (FAST, small):
        reports = run_suite(h, config)
        assert [rep.tag for rep in reports] == list(aybe.verify._applicable_checks(h))
        for rep in reports:
            assert rep.to_json() == CHECK_FNS[rep.tag](h, config).to_json()


@pytest.mark.parametrize("h", [
    replace(elliptic_aybe(2, 1, 0.1 + 0.9j), rescale=(1, 0, 1.1 + 0.3j, 0.9 - 0.2j)),
    replace(trig_aybe(1), rescale=(1, 0.1j, 2.3 + 1.1j, 0.7 - 0.6j)),
], ids=lambda h: h.family)
def test_limit_passes_on_rescaled_handles(h):
    # the u -> 0 limit of c1 exp(c2 u v) r(c3 u, c4 v) is c1 r0(c4 v): the
    # partner carries the rescale (c1, 0, 1, c4)
    rep = check_limit_consistency(h, SuiteConfig(seed=0))
    assert rep.passed and rep.max_rel_residual < 1e-13, rep.summary_line()


@pytest.mark.parametrize("guard", [1e-3, 1e-2, 0.05])
@pytest.mark.parametrize(
    "h", [h for h in SUITE_HANDLES if "limit" in aybe.verify._applicable_checks(h)], ids=str
)
def test_every_limit_target_clears_the_guard_of_cybe_limit_of_aybe(h, guard):
    # run_suite evaluates the circle nodes without the 1e-9 guard that
    # cybe_limit_of_aybe keeps for a v from outside: a target drawn g =
    # max(guard, 1e-2) clear on the CYBE partner keeps the limit's point
    # (R(v)/50, v) at least 0.98 g / 50 clear of every pole of the handle
    g = max(guard, 1e-2)
    for seed in range(3):
        (rep,) = run_suite(h, SuiteConfig(seed=seed, n_limit=20, guard=guard, checks=("limit",)))
        v = np.array([v for (v,) in rep.points])
        radii = aybe.solutions._u_circle_radii(h, v, 50.0)
        assert aybe.solutions._domain_mask(h, radii, v, 1e-9).all()
        assert aybe.solutions._domain_mask(h, radii, v, 0.98 * g / 50).all()


@pytest.mark.parametrize("c1", [1e154, 1e150])
def test_a_large_rescale_reads_the_unscaled_relative_residuals(c1):
    # the squared entries of the Frobenius norms overflowed: at 1e154
    # unitarity and limit PASSed at max_rel 0 and aybe and commutator read
    # nan, and at 1e150 aybe read nan with overflow warnings
    config = SuiteConfig(seed=3)
    unscaled = run_suite(trig_aybe(1), config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = run_suite(replace(trig_aybe(1), rescale=(c1, 0, 1, 1)), config)
    assert [rep.tag for rep in reports] == [rep.tag for rep in unscaled]
    for rep, ref in zip(reports, unscaled):
        assert rep.passed and math.isfinite(rep.max_abs_residual), rep.summary_line()
        if rep.tag == "rank":
            assert rep.max_rel_residual == ref.max_rel_residual == 0
        else:
            # c1 is no power of two, so the values round differently
            assert 0.5 < rep.max_rel_residual / ref.max_rel_residual < 2, rep.summary_line()


# ---------------------------------------------------------------------------
# batched checks draw the same points as the per-sample loop they replaced
# ---------------------------------------------------------------------------

# sha256 of repr(report.points), first 16 hex digits, per report of
# run_suite(h, SuiteConfig(seed=5)), frozen from the per-sample checks
SEED5_POINT_DIGESTS = [
    (elliptic_aybe(3, 2, 0.2 + 1.1j), [
        ("aybe", "b9a02c598380142c"), ("commutator", "b9a02c598380142c"),
        ("unitarity", "2939597eb94f1b4a"), ("rank", "e9976cbba50a7c92"),
        ("limit", "0a50a2dd2be2e4b1"),
    ]),
    (elliptic_cybe(5, 2, 0.2 + 1.1j), [
        ("cybe", "2c86c1950d6ecb9b"), ("unitarity", "2f309b85c38b6b71"),
    ]),
    (trig_aybe(1), [
        ("aybe", "b5dcd9f92b3c73c7"), ("commutator", "b5dcd9f92b3c73c7"),
        ("unitarity", "26b2ca0b6d55cd9c"), ("rank", "c415db8126c30f28"),
        ("limit", "4a755cfe4e4b41f0"),
    ]),
    (trig_cybe(2), [("cybe", "205a3518ebfa6bc8"), ("unitarity", "063d385ebaa28e79")]),
]


@pytest.mark.parametrize("h,digests", SEED5_POINT_DIGESTS, ids=lambda x: getattr(x, "family", ""))
def test_seed5_report_points_are_unchanged(h, digests):
    reports = run_suite(h, SuiteConfig(seed=5))
    assert [
        (rep.tag, hashlib.sha256(repr(rep.points).encode()).hexdigest()[:16])
        for rep in reports
    ] == digests


# ---------------------------------------------------------------------------
# Heisenberg-graded products: the same reports as the dense BLAS path
# ---------------------------------------------------------------------------

GRADED_CONFIG = SuiteConfig(seed=9, n_aybe=3, n_cybe=3, n_unitarity=3, n_rank=3, n_limit=3)


def _dense_suite(h, config, monkeypatch):
    """run_suite with the dense path forced on every check."""
    with monkeypatch.context() as patch:
        patch.setattr(aybe.verify, "_graded", lambda h: False)
        return run_suite(h, config)


def _report_scale(h, report):
    """The largest scale of the report's samples, from dense values: for the
    identities that of T1..T3 or of the six commutator products, else the
    largest Frobenius norm of the values the residual is compared with."""
    count = len(report.points)
    if report.tag == "cybe":
        values = aybe.verify._guarded_values(h, aybe.verify._cybe_points, report.points)
        scale, _ = aybe.verify._product_forms(values, aybe.verify._CYBE_TERMS, ("cybe",), leg_product_array)
    elif report.tag in ("aybe", "commutator"):
        values = aybe.verify._guarded_values(h, aybe.verify._aybe_points, report.points)
        scale, _ = aybe.verify._product_forms(values, aybe.verify._AYBE_TERMS, ("aybe",), leg_product_array)
    else:
        target = paired_cybe_handle(h) if report.tag == "limit" else h
        values = aybe.verify._guarded_values(target, aybe.verify._rank_points, report.points)
        scale = aybe.verify._frobenius(values.reshape(count, -1))
    return float(scale.max())


def _assert_graded_matches_dense(h, monkeypatch):
    assert aybe.verify._path(h).shape == (h.n**2,)
    graded = run_suite(h, GRADED_CONFIG)
    dense = _dense_suite(h, GRADED_CONFIG, monkeypatch)
    assert [rep.tag for rep in graded] == list(aybe.verify._applicable_checks(h))
    assert [rep.tag for rep in graded] == [rep.tag for rep in dense]
    for g, r in zip(graded, dense):
        if g.tag == "rank":
            assert g == r
        assert (g.points, g.skipped, g.passed) == (r.points, r.skipped, r.passed)
        assert abs(g.max_rel_residual - r.max_rel_residual) <= 1e-14
        assert abs(g.max_abs_residual - r.max_abs_residual) <= 1e-14 * _report_scale(h, r)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("factory", [elliptic_aybe, elliptic_cybe], ids=["aybe", "cybe"])
def test_graded_reports_match_the_dense_path(factory, d, monkeypatch):
    _assert_graded_matches_dense(factory(d, d - 1, 0.2 + 1.1j), monkeypatch)


GRADED_HANDLES = [
    elliptic_aybe(3, 2, 0.2 + 1.1j),
    elliptic_cybe(3, 2, 0.2 + 1.1j),
    handle_from_dict({**handle_to_dict(elliptic_aybe(3, 2, 0.2 + 1.1j)),
                      "rescale": [[1.5, 0], [0.2, 0], [0.7, 0], [1.1, 0]]}),
    equivalence_transform(elliptic_aybe(3, 2, 0.2 + 1.1j), GaugeSpec(kind="scalar_exp", c=0.3)),
]


def test_rescales_and_scalar_gauges_stay_graded(monkeypatch):
    for graded in GRADED_HANDLES[2:]:
        _assert_graded_matches_dense(graded, monkeypatch)
    for dense in (trig_aybe(1), scalar_kronecker(1j), custom_handle(lambda u, v: identity2(2), 2)):
        assert aybe.verify._path(dense).shape == (dense.n,) * 4


@pytest.mark.parametrize("h", GRADED_HANDLES, ids=str)
def test_graded_suites_place_no_table_and_take_no_svd(h, monkeypatch):
    # the graded checks never see a dense value: no twist table is placed
    # into d^4 zeros and no rank takes a dense SVD
    def refuse(*args, **kwargs):
        raise AssertionError("dense work on the graded path")

    expected = run_suite(h, FAST)
    monkeypatch.setattr(aybe.solutions, "_place_twists", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    reports = run_suite(h, FAST)
    assert reports == expected
    assert [rep.tag for rep in reports] == list(aybe.verify._applicable_checks(h))
    assert all(rep.passed for rep in reports)
    with pytest.raises(AssertionError, match="dense work"):
        _dense_suite(h, FAST, monkeypatch)


def test_constant_gauge_elliptic_stays_dense_and_green():
    g = np.array([[1.0, 0.3, 0.0], [0.2, 1.1, 0.1], [0.0, 0.4, 0.9]])
    for h in (equivalence_transform(elliptic_aybe(3, 1, 0.2 + 1.1j), g),
              equivalence_transform(elliptic_cybe(3, 1, 0.2 + 1.1j), g)):
        assert aybe.verify._path(h).shape == (3,) * 4
        # the limit check compares with the partner under the same gauge
        checks = ("aybe", "commutator", "cybe", "unitarity", "rank", "limit")
        reports = run_suite(
            h, SuiteConfig(seed=3, n_aybe=4, n_cybe=4, n_rank=2, n_limit=3, checks=checks)
        )
        assert [rep.tag for rep in reports] == (
            ["cybe", "unitarity"] if h.is_cybe
            else ["aybe", "commutator", "unitarity", "rank", "limit"]
        )
        for rep in reports:
            assert rep.passed, rep.summary_line()


# ---------------------------------------------------------------------------
# block rejection sampling against the one-candidate-at-a-time reference
# ---------------------------------------------------------------------------

SAMPLING_HANDLES = [
    elliptic_aybe(2, 1, 0.3 + 1.1j),
    elliptic_aybe(3, 2, 0.2 + 0.8j),
    elliptic_cybe(3, 1, 0.1 + 1.2j),
    trig_aybe(1),
    trig_aybe(2),
    trig_cybe(1),
    trig_cybe(2),
    scalar_kronecker(0.3 + 0.9j),
    scalar_trig(),
    scalar_rational(0.7 + 0.2j, -1.1),
    # complex rescales: the guard rounds c3*u and c4*v as Python does
    handle_from_dict({**handle_to_dict(scalar_kronecker(0.2 + 1.0j)),
                      "rescale": [[1.3, 0.2], [0, 0], [0.8, -0.3], [1.7, 0.4]]}),
    handle_from_dict({**handle_to_dict(elliptic_aybe(2, 1, 0.1 + 0.9j)),
                      "rescale": [[1, 0], [0, 0], [1.1, 0.3], [0.9, -0.2]]}),
]
SAMPLING_CONFIG = dict(n_aybe=6, n_cybe=6, n_unitarity=6, n_rank=3, n_limit=3, guard=0.3, max_draws=1000)


def _draws_or_error(sample):
    """(points, skipped) of ``sample()``, or the message it raises."""
    try:
        points, skipped = sample()
    except NonConvergenceError as exc:
        return str(exc)
    return tuple(points), skipped


@pytest.mark.parametrize("h", SAMPLING_HANDLES, ids=lambda h: h.family)
def test_block_sampling_matches_the_pointwise_reference(h):
    for seed in range(6):
        config = SuiteConfig(seed=seed, **SAMPLING_CONFIG)
        for check in aybe.verify._applicable_checks(h):
            expected = _draws_or_error(lambda: bruteforce.check_samples_pointwise(h, check, config))
            got = _draws_or_error(
                lambda: (lambda rep: (rep.points, rep.skipped))(CHECK_FNS[check](h, config))
            )
            assert got == expected, (check, seed)


def test_the_rank_report_counts_its_rejects():
    # as the skipped field of every report does; the suite's rank line too
    h, config = elliptic_aybe(2, 1, 1j), SuiteConfig(seed=8, n_rank=5, guard=0.3)
    points, skipped = bruteforce.check_samples_pointwise(h, "rank", config)
    assert skipped == 8
    report = check_rank(h, config)
    assert (report.points, report.skipped) == (tuple(points), 8)
    suite = run_suite(h, replace(config, checks=("rank",)))
    assert [(rep.tag, rep.skipped) for rep in suite] == [("rank", 8)]


@pytest.mark.parametrize("h,guard", [
    (trig_aybe(1), 0.3), (scalar_kronecker(0.3 + 0.9j), 0.1), (elliptic_cybe(3, 1, 0.1 + 1.2j), 0.3),
], ids=lambda x: getattr(x, "family", str(x)))
def test_max_draws_is_the_same_budget(h, guard):
    check = "cybe" if h.is_cybe else "aybe"
    rejected = 0
    for seed in range(4):
        config = SuiteConfig(seed=seed, n_aybe=6, n_cybe=6, guard=guard)
        points, skipped = bruteforce.check_samples_pointwise(h, check, config)
        needed = len(points) + skipped
        rejected += skipped
        enough = CHECK_FNS[check](h, replace(config, max_draws=needed))
        assert enough.points == tuple(points)
        with pytest.raises(NonConvergenceError, match=f"exhausted {needed - 1} draws"):
            CHECK_FNS[check](h, replace(config, max_draws=needed - 1))
        with pytest.raises(NonConvergenceError):
            bruteforce.check_samples_pointwise(h, check, replace(config, max_draws=needed - 1))
    assert rejected > 0


def test_no_candidate_clears_a_huge_guard():
    # every candidate is rejected: the blocks grow, and the budget still ends
    # the draws after exactly max_draws candidates
    blocks = []
    candidates = aybe.verify._Stream.candidates

    def counting_candidates(stream, start, m, width):
        blocks.append(m)
        return candidates(stream, start, m, width)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(aybe.verify._Stream, "candidates", counting_candidates)
        with pytest.raises(NonConvergenceError, match="exhausted 10000 draws"):
            check_unitarity(trig_aybe(1), SuiteConfig(guard=10.0))
    assert sum(blocks) == 10_000
    assert len(blocks) <= 10


def test_guard_errors_name_the_first_offending_point():
    with pytest.raises(DomainError, match=r"point 0\.0 is outside the domain of trig_cybe1"):
        cybe_residual(trig_cybe(1), 0.3, -0.3)
    with pytest.raises(DomainError, match=r"point 6\.283185307179586j is outside the domain"):
        aybe.verify._unitarity_residuals(trig_cybe(1), [(None, 0.4), (None, 2j * math.pi), (None, 0.0)])
    with pytest.raises(DomainError, match=r"evaluation point \(0\.2, 6\.283185307179586j\) hits a pole of trig_aybe1"):
        unitarity_residual(trig_aybe(1), 0.2, 2j * math.pi)
    with pytest.raises(DomainError, match=r"evaluation point \(0\.0, 0\.75\) hits a pole"):
        aybe_residual(scalar_rational(), 0.3, -0.3, 0.25, 0.5)
    # nondegeneracy_check guards its points as the residuals do
    with pytest.raises(DomainError, match=r"evaluation point \(0\.3, 6\.283185307179586j\) hits a pole of trig_aybe1"):
        nondegeneracy_check(trig_aybe(1), [(0.1, 0.2), (0.3, 2j * math.pi)])
    with pytest.raises(DomainError, match=r"evaluation point \(0\.0, 0\.3\) hits a pole of trig_aybe1"):
        nondegeneracy_check(trig_aybe(1), [(0.0, 0.3)])
    with pytest.raises(DomainError, match=r"evaluation point \(0\.0, 0\.3\) hits a pole of elliptic_aybe"):
        nondegeneracy_check(elliptic_aybe(2, 1, 1j), [(0.0, 0.3)])
    with pytest.raises(DomainError, match=r"point 0\.0 is outside the domain of trig_cybe1"):
        nondegeneracy_check(trig_cybe(1), [0.4, 0.0])


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: check_aybe_commutator(elliptic_cybe(2, 1, 1j)),
         "elliptic_cybe is not a two-variable (AYBE) family"),
        (lambda: check_aybe(trig_cybe(1)), "trig_cybe1 is not a two-variable (AYBE) family"),
        (lambda: check_cybe(trig_aybe(1)), "trig_aybe1 is not a CYBE family"),
        (lambda: check_cybe(elliptic_aybe(2, 1, 1j)), "elliptic_aybe is not a CYBE family"),
        (lambda: cybe_residual(elliptic_aybe(2, 1, 1j), 0.3, 0.2),
         "elliptic_aybe is not a CYBE family"),
        (lambda: aybe_residual(trig_cybe(1), 0.3, -0.2, 0.25, 0.4),
         "trig_cybe1 is not a two-variable (AYBE) family"),
    ],
    ids=[
        "commutator-cybe", "aybe-cybe", "cybe-trig", "cybe-elliptic", "cybe_residual",
        "aybe_residual",
    ],
)
def test_a_handle_of_the_wrong_arity_is_a_domain_error(call, message, monkeypatch):
    # the message of eval_aybe_array / eval_cybe_array, before any draw or
    # evaluation
    def unreachable(*args, **kwargs):
        raise AssertionError("drew or evaluated a handle of the wrong arity")

    monkeypatch.setattr(aybe.verify.np.random, "default_rng", unreachable)
    monkeypatch.setattr(aybe.verify, "_evaluate_requests", unreachable)
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message
