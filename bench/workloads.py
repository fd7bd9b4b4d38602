"""Seeded job mixes of the aybe benchmark and the checks on their outputs.

A workload is an endless sequence of rounds; every round holds the same
job kinds in the same order, and every job gets its own draws (seed, tau,
points, coefficients) from one ``random.Random`` stream keyed by the
workload name and the benchmark seed.  The same seed therefore gives the
same jobs, and two jobs share no more cached work than two separate CLI
invocations would.

Each job is checked against the contractual tolerances of
``tests/test_acceptance.py``.  A check returns a :class:`Verdict`:

``ok``
    the job met its contract (exit code, tolerances, expected report set);
``wrong``
    the program claimed success (exit code 0, a PASS line, a normal return)
    but its output breaks the contract or cannot be parsed;
``margins``
    ``{check kind: log10(tolerance / residual)}`` for every residual held
    to a tolerance, with exact zeros capped at ``MARGIN_CAP`` decades.

A check the program reports as failed (a FAIL line with exit code 1, or a
``passed=False`` report) makes the job not ``ok`` without making it
``wrong``: the program told the truth about a defect.
"""

from __future__ import annotations

import cmath
import math
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

WORKLOADS = ("verify-matrix", "classify-series", "verify-small-n")

TRIG_C = -20.0 / 49.0
MARGIN_CAP = 12.0

# contractual tolerances (tests/test_acceptance.py)
TOL_AYBE = 1e-8
TOL_UNITARITY = 1e-10
TOL_LIMIT = 1e-7
TOL_RANK = 0.5
TOL_CYBE_ELLIPTIC = 1e-8
TOL_CYBE_TRIG = 1e-10
TOL_KRONECKER_C = 1e-6
TOL_TRIG_C = 1e-10
TOL_R1 = 1e-8
TOL_AUX4_TRIG = 1e-9
TOL_ORACLE_CLOSED = 1e-10
TOL_ORACLE_DEPENDENCE = 1e-12
# trig_aybe(2) misses the two-variable identity by a pinned relative band
TRIG2_BAND = (1e-3, 1.0)

# matrix size -> sample count on verify-matrix (large d uses few points)
MATRIX_POINTS = {3: 4, 4: 3, 5: 2, 6: 1, 7: 1}
SMALL_N_ELLIPTIC_POINTS = 5


@dataclass(frozen=True)
class Verdict:
    ok: bool
    wrong: bool = False
    margins: Dict[str, float] = field(default_factory=dict)
    note: str = ""


@dataclass(frozen=True)
class Job:
    """One closed-loop request.

    ``argv`` is passed to ``aybe.cli.main``; otherwise ``series_call`` names
    a function of ``aybe.series`` and the arguments that follow the handle.
    ``handle`` is (factory in ``aybe.solutions``, factory arguments): the
    handle of a series call, and what the set-up probe builds for this job.
    """

    kind: str
    check: Callable[..., Verdict]
    handle: Tuple[str, tuple]
    argv: Optional[Tuple[str, ...]] = None
    series_call: Optional[Tuple[str, tuple]] = None


# ---------------------------------------------------------------------------
# draws


def _fmt(z: complex) -> str:
    return f"{z.real:.6f}{z.imag:+.6f}i"


def _tau(rng: random.Random, im_lo: float, im_hi: float) -> complex:
    return complex(round(rng.uniform(-0.5, 0.5), 6), round(rng.uniform(im_lo, im_hi), 6))


def _polar(rng: random.Random, r_lo: float, r_hi: float, a_lo: float = 0.0, a_hi: float = 2.0 * math.pi) -> complex:
    z = cmath.rect(rng.uniform(r_lo, r_hi), rng.uniform(a_lo, a_hi))
    return complex(round(z.real, 6), round(z.imag, 6))


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _units(d: int) -> List[int]:
    return [r for r in range(1, d) if math.gcd(r, d) == 1]


# ---------------------------------------------------------------------------
# output checks


def margin(tol: float, residual: float) -> float:
    """Decades of headroom, log10(tol / residual), capped for exact zeros."""
    return min(MARGIN_CAP, math.log10(tol / residual)) if residual > 0 else MARGIN_CAP


_SUMMARY = re.compile(
    r"^(PASS|FAIL) (\S+): max_abs=(\S+) max_rel=(\S+) tol=(\S+) "
    r"points=(\d+) skipped=(\d+)$"
)


def _verify_plan(family: str, points: Optional[int]) -> List[Tuple[str, float, int]]:
    """Expected (tag, contractual tolerance, sample count) of ``aybe verify``."""

    def n(default: int, small: bool = False) -> int:
        if points is None:
            return default
        return min(points, 5) if small else points

    if family in ("elliptic-cybe", "trig-cybe1", "trig-cybe2"):
        tol_cybe = TOL_CYBE_ELLIPTIC if family == "elliptic-cybe" else TOL_CYBE_TRIG
        return [("cybe", tol_cybe, n(25)), ("unitarity", TOL_UNITARITY, n(20))]
    plan = [
        ("aybe", TOL_AYBE, n(25)),
        ("commutator", TOL_AYBE, n(25)),
        ("unitarity", TOL_UNITARITY, n(20)),
        ("rank", TOL_RANK, n(5, small=True)),
    ]
    if family in ("elliptic", "trig1", "trig2"):
        plan.append(("limit", TOL_LIMIT, n(5, small=True)))
    return plan


def check_verify(family: str, points: Optional[int]):
    plan = _verify_plan(family, points)
    banded = ("aybe", "commutator") if family == "trig2" else ()

    def check(rc, out: str, value) -> Verdict:
        lines = out.strip().splitlines()
        parsed = [_SUMMARY.match(line) for line in lines]
        if len(lines) != len(plan) or not all(parsed):
            return Verdict(ok=False, wrong=rc == 0, note="unexpected verify output")
        ok, wrong, margins = True, False, {}
        for m, (tag, tol, count) in zip(parsed, plan):
            word, got_tag, _, max_rel, got_tol = m.group(1, 2, 3, 4, 5)
            max_rel, got_tol = float(max_rel), float(got_tol)
            if got_tag != tag or got_tol != tol or int(m.group(6)) != count:
                return Verdict(ok=False, wrong=True, note=f"{got_tag}: plan mismatch")
            if (word == "PASS") != (max_rel < tol):
                wrong = True
            if tag in banded:
                ok = ok and word == "FAIL" and TRIG2_BAND[0] < max_rel < TRIG2_BAND[1]
                continue
            ok = ok and word == "PASS" and max_rel < tol
            if tag != "rank":
                margins[f"verify:{tag}"] = margin(tol, max_rel)
        expected_rc = 1 if banded else 0
        ok = ok and rc == expected_rc
        # exit 0 while a contractual check is missed is a false success claim
        wrong = wrong or (rc == 0 and not ok)
        return Verdict(ok=ok, wrong=wrong, margins=margins)

    return check


def _read_c(text: str) -> complex:
    return complex(text.replace("i", "j"))


def _classify_fields(out: str) -> Optional[Dict[str, str]]:
    fields = dict(line.split("=", 1) for line in out.strip().splitlines() if "=" in line)
    return fields if set(fields) == {"verdict", "c3", "c5", "C"} else None


def j_invariant(tau: complex) -> complex:
    """Klein's j from the E4/E6 q-series: an oracle independent of aybe."""
    q = cmath.exp(2j * math.pi * tau)
    e4 = 1.0 + 240.0 * sum(_sigma(k, 3) * q**k for k in range(1, 60))
    e6 = 1.0 - 504.0 * sum(_sigma(k, 5) * q**k for k in range(1, 60))
    return 1728.0 * e4**3 / (e4**3 - e6**2)


def _sigma(k: int, power: int) -> int:
    return sum(d**power for d in range(1, k + 1) if k % d == 0)


def check_classify_kronecker(tau: complex):
    target = TRIG_C * (1.0 - 1728.0 / j_invariant(tau))

    def check(rc, out: str, value) -> Verdict:
        fields = _classify_fields(out)
        if rc != 0 or fields is None:
            return Verdict(ok=False, wrong=rc == 0, note="unexpected classify output")
        if fields["C"] in ("none", "infinity"):
            return Verdict(ok=False, wrong=True, note=f"C={fields['C']}")
        gap = abs(_read_c(fields["C"]) - target)
        ok = fields["verdict"] == "elliptic-like" and gap < TOL_KRONECKER_C
        return Verdict(ok=ok, wrong=not ok, margins={"classify:kronecker-C": margin(TOL_KRONECKER_C, gap)})

    return check


def check_classify_trig(rc, out: str, value) -> Verdict:
    fields = _classify_fields(out)
    if rc != 0 or fields is None or fields["C"] in ("none", "infinity"):
        return Verdict(ok=False, wrong=rc == 0, note="unexpected classify output")
    gap = abs(_read_c(fields["C"]) - TRIG_C)
    ok = fields["verdict"] == "trigonometric-like" and gap < TOL_TRIG_C
    return Verdict(ok=ok, wrong=not ok, margins={"classify:trig-C": margin(TOL_TRIG_C, gap)})


def check_classify_rational(rc, out: str, value) -> Verdict:
    fields = _classify_fields(out)
    ok = rc == 0 and fields is not None and fields["C"] == "none" and fields["verdict"] == "rational-like"
    return Verdict(ok=ok, wrong=rc == 0 and not ok)


def check_r1(rc, out: str, report) -> Verdict:
    residual = report.max_abs_residual
    ok = report.passed and residual < TOL_R1 and len(report.points) == 1
    return Verdict(ok=ok, wrong=report.passed and not ok, margins={"series:r1": margin(TOL_R1, residual)})


def check_aux4(rc, out: str, value) -> Verdict:
    residual = abs(complex(value))
    ok = residual < TOL_AUX4_TRIG
    return Verdict(ok=ok, wrong=not ok, margins={"series:aux4": margin(TOL_AUX4_TRIG, residual)})


_ORACLE_SAMPLE = re.compile(r"^sample \d\d: closed_rel=(\S+) dependence_rel=(\S+)$")
_ORACLE_SUMMARY = re.compile(r"^(PASS|FAIL) (closed-form|dependence): max_rel=(\S+) tol=(\S+)$")


def check_oracle(samples: int):
    def check(rc, out: str, value) -> Verdict:
        lines = out.strip().splitlines()
        rows = [_ORACLE_SAMPLE.match(line) for line in lines[:-2]]
        tail = [_ORACLE_SUMMARY.match(line) for line in lines[-2:]]
        if len(rows) != samples or not all(rows) or len(tail) != 2 or not all(tail):
            return Verdict(ok=False, wrong=rc == 0, note="unexpected oracle output")
        closed = max(float(m.group(1)) for m in rows)
        dep = max(float(m.group(2)) for m in rows)
        ok = closed < TOL_ORACLE_CLOSED and dep < TOL_ORACLE_DEPENDENCE
        claims = all(m.group(1) == "PASS" for m in tail)
        consistent = [float(m.group(4)) for m in tail] == [TOL_ORACLE_CLOSED, TOL_ORACLE_DEPENDENCE]
        return Verdict(
            ok=ok and claims and consistent and rc == 0,
            wrong=(rc == 0 or claims) and not (ok and consistent),
            margins={
                "oracle:closed-form": margin(TOL_ORACLE_CLOSED, closed),
                "oracle:dependence": margin(TOL_ORACLE_DEPENDENCE, dep),
            },
        )

    return check


_EVAL_HEAD = re.compile(r"^point u=(\S+) v=(\S+) n=(\d+)$")
_EVAL_ENTRY = re.compile(r"^  \[(\d),(\d),(\d),(\d)\] = (\S+)$")


def check_eval_unitarity(rc, out: str, value) -> Verdict:
    """Four points (+-u, +-v): r(u, v) + r21(-u, -v) must vanish entrywise."""
    blocks: List[Dict[tuple, complex]] = []
    for line in out.strip().splitlines():
        head, entry = _EVAL_HEAD.match(line), _EVAL_ENTRY.match(line)
        if head:
            blocks.append({})
        elif entry and blocks:
            blocks[-1][tuple(int(x) for x in entry.group(1, 2, 3, 4))] = complex(entry.group(5))
        else:
            return Verdict(ok=False, wrong=rc == 0, note=f"unexpected eval line {line!r}")
    if rc != 0 or len(blocks) != 4 or len({len(b) for b in blocks}) != 1:
        return Verdict(ok=False, wrong=rc == 0, note="unexpected eval output")
    # grid order: (u, v), (u, -v), (-u, v), (-u, -v)
    residual = 0.0
    scale = 1.0
    for a, b in ((0, 3), (1, 2)):
        for (i, j, k, l), z in blocks[a].items():
            residual = max(residual, abs(z + blocks[b][(k, l, i, j)]))
            scale = max(scale, abs(z))
    rel = residual / scale
    ok = rel < TOL_UNITARITY
    return Verdict(ok=ok, wrong=not ok, margins={"eval:unitarity": margin(TOL_UNITARITY, rel)})


# ---------------------------------------------------------------------------
# jobs of each workload


def _verify_job(kind: str, family: str, handle, extra: Tuple[str, ...], seed: int, points=None) -> Job:
    argv = ("verify", "--family", family) + extra + ("--seed", str(seed))
    if points is not None:
        argv += ("--points", str(points))
    return Job(kind, check_verify(family, points), handle, argv=argv)


def _elliptic_job(rng, family: str, d: int, points: Optional[int], kind: str) -> Job:
    r = rng.choice(_units(d))
    tau = _tau(rng, 0.5, 1.5)
    factory = "elliptic_aybe" if family == "elliptic" else "elliptic_cybe"
    extra = ("--d", str(d), "--r", str(r), f"--tau={_fmt(tau)}")
    return _verify_job(kind, family, (factory, (d, r, tau)), extra, _seed(rng), points)


def _eval_points(rng) -> Tuple[complex, complex]:
    """u, v with |u|, |v| in [0.1, 0.2] and u -+ v kept off the polar set."""
    while True:
        u, v = _polar(rng, 0.1, 0.2), _polar(rng, 0.1, 0.2)
        if min(abs(u - v), abs(u + v)) > 0.05:
            return u, v


def _eval_job(rng, family: str, handle, extra: Tuple[str, ...]) -> Job:
    u, v = _eval_points(rng)
    argv = ("eval", "--family", family) + extra + (
        f"--u={_fmt(u)},{_fmt(-u)}",
        f"--v={_fmt(v)},{_fmt(-v)}",
    )
    return Job(f"eval {family}", check_eval_unitarity, handle, argv=argv)


def _round_verify_matrix(rng) -> List[Job]:
    jobs = []
    for d, points in MATRIX_POINTS.items():
        jobs.append(_elliptic_job(rng, "elliptic", d, points, f"verify elliptic d={d}"))
        jobs.append(_elliptic_job(rng, "elliptic-cybe", d, points, f"verify elliptic-cybe d={d}"))
    # as many jobs below the three d=5 elliptic-cybe jobs in latency as above
    # them keeps the median in the middle of their cluster
    jobs.append(_elliptic_job(rng, "elliptic-cybe", 4, MATRIX_POINTS[4], "verify elliptic-cybe d=4"))
    for _ in range(2):
        jobs.append(_elliptic_job(rng, "elliptic-cybe", 5, MATRIX_POINTS[5], "verify elliptic-cybe d=5"))
    return jobs


def _rational_ab(rng) -> Tuple[complex, complex]:
    return _polar(rng, 0.5, 2.0), _polar(rng, 0.5, 2.0)


def _round_classify_series(rng) -> List[Job]:
    tau = _tau(rng, 0.6, 2.0)
    jobs = [
        Job(
            "classify scalar-kronecker",
            check_classify_kronecker(tau),
            ("scalar_kronecker", (tau,)),
            argv=("classify", "--family", "scalar-kronecker", f"--tau={_fmt(tau)}"),
        )
    ]
    jobs.append(
        Job(
            "classify scalar-trig",
            check_classify_trig,
            ("scalar_trig", ()),
            argv=("classify", "--family", "scalar-trig", "--radius", "1.5"),
        )
    )
    a, b = _rational_ab(rng)
    jobs.append(
        Job(
            "classify scalar-rational",
            check_classify_rational,
            ("scalar_rational", (a, b)),
            argv=("classify", "--family", "scalar-rational", f"--a={_fmt(a)}", f"--b={_fmt(b)}"),
        )
    )
    # two jobs are faster than the four r1 jobs and two slower, so the median
    # sits in the middle of the r1 latency cluster.  The r1 cost
    # varies threefold with the point, so the points are stratified: one per
    # quadrant and one per radius band, paired at random.
    quadrants = rng.sample(range(4), 4)
    for band, quadrant in enumerate(quadrants):
        r_lo = 0.2 + 0.075 * band
        v = _polar(rng, r_lo, r_lo + 0.075, quadrant * math.pi / 2, (quadrant + 1) * math.pi / 2)
        jobs.append(
            Job(
                "series r1-relation scalar-trig",
                check_r1,
                ("scalar_trig", ()),
                series_call=("check_r1_relation", ((v,),)),
            )
        )
    while True:
        v, vp = _polar(rng, 0.2, 0.45), _polar(rng, 0.2, 0.45)
        if abs(v + vp) > 0.15:
            break
    jobs.append(
        Job(
            "series aux4 scalar-trig",
            check_aux4,
            ("scalar_trig", ()),
            series_call=("check_aux4", (v, vp)),
        )
    )
    return jobs


def _round_verify_small_n(rng) -> List[Job]:
    jobs = []
    for family, factory, args in (
        ("trig1", "trig_aybe", (1,)),
        ("trig2", "trig_aybe", (2,)),
        ("trig-cybe1", "trig_cybe", (1,)),
        ("trig-cybe2", "trig_cybe", (2,)),
        ("scalar-trig", "scalar_trig", ()),
    ):
        jobs.append(_verify_job(f"verify {family}", family, (factory, args), (), _seed(rng)))
    tau = _tau(rng, 0.6, 2.0)
    jobs.append(
        _verify_job(
            "verify scalar-kronecker", "scalar-kronecker", ("scalar_kronecker", (tau,)),
            (f"--tau={_fmt(tau)}",), _seed(rng),
        )
    )
    a, b = _rational_ab(rng)
    jobs.append(
        _verify_job(
            "verify scalar-rational", "scalar-rational", ("scalar_rational", (a, b)),
            (f"--a={_fmt(a)}", f"--b={_fmt(b)}"), _seed(rng),
        )
    )
    jobs.append(_elliptic_job(rng, "elliptic", 2, SMALL_N_ELLIPTIC_POINTS, "verify elliptic d=2"))
    for case in (1, 2):
        jobs.append(
            Job(
                f"oracle case={case}",
                check_oracle(20),
                ("trig_aybe", (case,)),
                argv=("oracle", "--case", str(case), "--seed", str(_seed(rng))),
            )
        )
    jobs.append(_eval_job(rng, "trig1", ("trig_aybe", (1,)), ()))
    tau = _tau(rng, 0.6, 2.0)
    jobs.append(_eval_job(rng, "scalar-kronecker", ("scalar_kronecker", (tau,)), (f"--tau={_fmt(tau)}",)))
    tau = _tau(rng, 0.5, 1.5)
    jobs.append(
        _eval_job(rng, "elliptic", ("elliptic_aybe", (2, 1, tau)), ("--d", "2", "--r", "1", f"--tau={_fmt(tau)}"))
    )
    return jobs


_ROUNDS = {
    "verify-matrix": _round_verify_matrix,
    "classify-series": _round_classify_series,
    "verify-small-n": _round_verify_small_n,
}


def rounds(workload: str, seed: int) -> Iterator[List[Job]]:
    """Endless rounds of the workload; a fixed seed fixes every job."""
    rng = random.Random(f"{workload}:{seed}")
    make = _ROUNDS[workload]
    while True:
        yield make(rng)
