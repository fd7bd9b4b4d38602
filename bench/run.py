"""aybe benchmark: seeded closed-loop job mixes with checked outputs.

Run from the repository root:

    python3 bench/run.py --workload verify-matrix --seed 1 --seconds 30 --trace 0

One client sends in-process jobs (``aybe.cli.main(argv)`` with stdout
captured, or an ``aybe.series`` check function) one after another, each
waiting for the previous one.  Jobs come in rounds of fixed composition
(see ``workloads.py``).  A run draws a fixed number of rounds from the
seed (one pass) and repeats them, each pass from cold program caches,
round by round until ``--seconds`` is used up, so every statistic covers
the same mix.  ``attempted``, ``failed``, ``pass_frac`` and
``tol_margin_dec`` are taken from the first pass, so they depend on the
seed alone and not on how many rounds the host fits into ``--seconds``;
every repeated job must reproduce its first verdict.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed
number of rounds twice, untraced and then traced (see ``tracer.py``), and
prints the per-layer metrics and the tracing overhead.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; details and spans go to ``bench/out/``.
METRICS.md defines every metric.
"""

from __future__ import annotations

import os

# Cap BLAS/OpenMP pools before numpy is imported: one client, one thread.
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREAD_CAP)

import argparse  # noqa: E402
import bisect  # noqa: E402
import cmath  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Job latency percentile with at least ten jobs beyond it, per workload,
# and the whole rounds a run needs so that it has them.
TAIL_PERCENTILE = {"verify-matrix": 66, "classify-series": 58, "verify-small-n": 98}
# Rounds run by a traced run (fixed, so counts repeat exactly).
TRACE_ROUNDS = {"verify-matrix": 1, "classify-series": 1, "verify-small-n": 12}
SETUP_REPEATS = 9

# The shared host's CPU speed drifts by up to 1.8x, over seconds and over
# minutes, and every job kind slows alike.  A fixed kernel that does not use
# aybe is timed between jobs at least every REF_INTERVAL_S, and each job's
# latency is scaled by REF_NOMINAL_S / (the median kernel time within
# REF_HALF_WINDOW_S of the job): time metrics read as on the host at
# nominal speed.  Raw latencies and kernel times go to bench/out/.
REF_NOMINAL_S = 0.012
REF_INTERVAL_S = 0.1
REF_HALF_WINDOW_S = 0.3
_REF_TENSOR = ((np.arange(4**6) % 7) + 0.5j).reshape((4,) * 6)
_REF_VECTOR = np.linspace(-1.0, 1.0, 12) + 0.25j


@dataclass
class Result:
    kind: str
    start: float
    latency_s: float
    verdict: workloads.Verdict
    ref_s: float = REF_NOMINAL_S  # median reference kernel time around the job

    @property
    def scaled_s(self) -> float:
        return self.latency_s * REF_NOMINAL_S / self.ref_s


def reference_s() -> float:
    """Time of a fixed kernel with aybe's instruction mix: Python complex
    arithmetic, small numpy calls and a six-index einsum."""
    start = perf_counter()
    z = 0j
    for k in range(6000):
        z = cmath.exp(-abs(z)) + complex(k % 5, 1.0) / (k + 1)
    for k in range(300):
        z += np.sum(np.exp(_REF_VECTOR * (k * 1e-3)))
    for _ in range(3):
        np.einsum("iakbmc,ajblcn->ijklmn", _REF_TENSOR, _REF_TENSOR)
    return perf_counter() - start


def attach_reference(results, refs) -> None:
    """Give each job the median of the (time, kernel seconds) samples in
    ``refs`` that lie within REF_HALF_WINDOW_S of it; samples are at most
    REF_INTERVAL_S apart and bracket every job, so none is empty."""
    times = [t for t, _ in refs]
    for r in results:
        lo = bisect.bisect_left(times, r.start - REF_HALF_WINDOW_S)
        hi = bisect.bisect_right(times, r.start + r.latency_s + REF_HALF_WINDOW_S)
        r.ref_s = statistics.median(d for _, d in refs[lo:hi])


def _pass_rounds(workload: str, jobs_per_round: int) -> int:
    beyond = 1.0 - TAIL_PERCENTILE[workload] / 100.0
    return max(1, math.ceil(10.0 / beyond / jobs_per_round))


# ---------------------------------------------------------------------------
# jobs


def _handle(spec):
    import aybe.solutions

    name, args = spec
    return getattr(aybe.solutions, name)(*args)


def execute(job: workloads.Job) -> Result:
    """Run one job with stdout/stderr captured; names are looked up at call
    time so a traced run goes through the wrapped functions."""
    import aybe.cli
    import aybe.series

    out = io.StringIO()
    rc, value, error = None, None, ""
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if job.argv is not None:
                rc = aybe.cli.main(list(job.argv))
            else:
                fn_name, args = job.series_call
                value = getattr(aybe.series, fn_name)(_handle(job.handle), *args)
    except Exception as exc:  # a job that raises is a failed job; keep going
        error = f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - start
    if error:
        verdict = workloads.Verdict(ok=False, note=error)
    else:
        try:
            verdict = job.check(rc, out.getvalue(), value)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            verdict = workloads.Verdict(ok=False, wrong=True, note=f"unparseable output: {exc}")
    return Result(job.kind, start, latency, verdict)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(rounds, passes=None, seconds=None, on_job=None):
    """Closed loop over the fixed ``rounds`` (a list of job lists), each
    pass over them from cold program caches: ``passes`` whole passes, or
    round by round until ``seconds`` is used up (never less than one pass).

    Also returns the peak RSS after the first pass: program caches grow
    with the work done, so the peak is read after a fixed amount of work
    and a faster host that fits more rounds does not read as more memory."""
    results, round_s, refs = [], [], []
    rss_mb = 0.0

    def sample_reference() -> None:
        t0 = perf_counter()
        refs.append((t0, reference_s()))

    start = perf_counter()
    sample_reference()
    while True:
        done = len(round_s)
        if passes is not None and done == passes * len(rounds):
            break
        if passes is None and done >= len(rounds):
            # stop when another round would end past the budget by more
            # than half a round
            if perf_counter() - start + statistics.mean(round_s) / 2 >= seconds:
                break
        if done % len(rounds) == 0:
            clear_program_caches()
        t0 = perf_counter()
        for job in rounds[done % len(rounds)]:
            if perf_counter() - refs[-1][0] >= REF_INTERVAL_S:
                sample_reference()
            if on_job is not None:
                on_job(len(results))
            results.append(execute(job))
        round_s.append(perf_counter() - t0)
        if len(round_s) == len(rounds):
            rss_mb = peak_rss_mb()
    sample_reference()
    attach_reference(results, refs)
    return results, round_s, rss_mb


def first_pass(rounds, results):
    """The results of the first pass over ``rounds``."""
    return results[: sum(len(jobs) for jobs in rounds)]


def unrepeated(rounds, results) -> int:
    """Repeated jobs whose verdict differs from their first one."""
    first = first_pass(rounds, results)

    def key(r):
        return r.verdict.ok, r.verdict.wrong, r.verdict.margins

    return sum(key(r) != key(first[i % len(first)]) for i, r in enumerate(results))


def clear_program_caches() -> None:
    """Empty every lru_cache of aybe.special so each pass starts cold; a
    traced run reaches the caches through the tracer's wrappers."""
    import aybe.special

    for obj in vars(aybe.special).values():
        while obj is not None and not callable(getattr(obj, "cache_clear", None)):
            obj = getattr(obj, "__wrapped__", None)
        if obj is not None:
            obj.cache_clear()


def theta_cache_counts():
    import aybe.special

    raw = getattr(aybe.special, "_theta_raw", None)
    info = getattr(raw, "cache_info", None)
    if info is None:
        return 0, 0
    ci = info()
    return ci.hits, ci.misses


# ---------------------------------------------------------------------------
# metrics


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time from starting a fresh interpreter to its having
    imported aybe.cli and built the handles of the workload's first round.

    The interpreter stamps its own end with the system-wide monotonic clock
    (perf_counter on Linux): timing the parent's wait would add its exit and
    the polling steps of a wait with a timeout, which are up to 50 ms."""
    specs = [job.handle for job in next(workloads.rounds(workload, seed))]
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import aybe.cli\n"
        "from aybe import solutions\n"
        f"for name, args in {specs!r}:\n"
        "    getattr(solutions, name)(*args)\n"
        "from time import perf_counter\n"
        "print(repr(perf_counter()))\n"
    )
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", code], check=True, cwd=ROOT, timeout=60, capture_output=True, text=True
        )
        elapsed = float(child.stdout.split()[-1]) - t0
        if not 0.0 < elapsed < perf_counter() - t0:
            raise SystemExit(f"error: set-up probe stamped {elapsed} s; no shared monotonic clock")
        if i:  # the first start also writes bytecode caches
            times.append(elapsed)
    return statistics.median(times)


def tol_margin(results) -> float:
    """Mean over check kinds of the kind's median margin (decades)."""
    by_kind = {}
    for res in results:
        for kind, value in res.verdict.margins.items():
            by_kind.setdefault(kind, []).append(value)
    return statistics.mean(statistics.median(v) for v in by_kind.values())


def min_margin(results) -> float:
    return min(v for res in results for v in res.verdict.margins.values())


def jobs_per_s(results) -> float:
    """Jobs per second of scaled latency over every job run."""
    return len(results) / sum(r.scaled_s for r in results)


def end_to_end(workload: str, results, first, setup_s: float, rss_mb: float) -> dict:
    """Time metrics over every job run; counts over the ``first`` pass."""
    lat = [r.scaled_s for r in results]
    passed = sum(r.verdict.ok for r in first)
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (jobs_per_s(results), "1/s"),
        "job_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "job_tail_ms": (1e3 * statistics.quantiles(lat, n=100, method="inclusive")[TAIL_PERCENTILE[workload] - 1], "ms"),
        "pass_frac": (passed / len(first), "fraction"),
        "peak_rss_mb": (rss_mb, "MB"),
        "tol_margin_dec": (tol_margin(first), "decades"),
    }


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def metadata() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# entry point


def import_program() -> None:
    """Import aybe from this checkout's src/ and nowhere else."""
    if not (SRC / "aybe" / "__init__.py").is_file():
        raise SystemExit(f"error: no aybe sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import aybe.cli  # noqa: F401

    if Path(aybe.cli.__file__).resolve().parent != SRC / "aybe":
        raise SystemExit(f"error: imported aybe from {aybe.cli.__file__}, not {SRC}")


def summarize(results) -> dict:
    kinds = {}
    for r in results:
        kinds.setdefault(r.kind, []).append(r)
    return {
        kind: {
            "jobs": len(rs),
            "failed": sum(not r.verdict.ok for r in rs),
            "p50_ms": 1e3 * statistics.median(r.latency_s for r in rs),
            "scaled_p50_ms": 1e3 * statistics.median(r.scaled_s for r in rs),
        }
        for kind, rs in kinds.items()
    }


def fixed_rounds(wl: str, seed: int, count: int):
    stream = workloads.rounds(wl, seed)
    return [next(stream) for _ in range(count)]


def untraced_run(wl: str, seed: int, seconds: float):
    setup_s = measure_setup(wl, seed)
    jobs_per_round = len(next(workloads.rounds(wl, seed)))
    rounds = fixed_rounds(wl, seed, _pass_rounds(wl, jobs_per_round))
    results, round_s, rss_mb = run_rounds(rounds, seconds=seconds)
    first = first_pass(rounds, results)
    metrics = end_to_end(wl, results, first, setup_s, rss_mb)
    return metrics, results, first, unrepeated(rounds, results), len(round_s)


def traced_run(wl: str, seed: int):
    """One pass of the fixed rounds untraced, then one traced; each starts
    from cold caches.  The spans go to bench/out/."""
    from tracer import Tracer

    rounds = fixed_rounds(wl, seed, TRACE_ROUNDS[wl])
    untraced, _, _ = run_rounds(rounds, passes=1)
    tracer = Tracer()
    tracer.install()
    try:
        results, _, _ = run_rounds(rounds, passes=1, on_job=lambda i: setattr(tracer, "job", i))
    finally:
        tracer.uninstall()
    # run_rounds cleared the cache, and its statistics, before the traced pass
    hits, misses = theta_cache_counts()
    lookups = hits + misses
    untraced_rate = jobs_per_s(untraced)
    traced_rate = jobs_per_s(results)
    layer = tracer.layer_metrics()
    layer["special.theta_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    layer["special.theta_cache_lookups"] = lookups
    layer["checks.min_margin_dec"] = min_margin(results)
    layer["trace.spans"] = len(tracer.span_start)
    layer["trace.untraced_jobs_per_s"] = untraced_rate
    layer["trace.traced_jobs_per_s"] = traced_rate
    layer["trace.overhead_ratio"] = untraced_rate / traced_rate
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{wl}-seed{seed}.json.gz")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (layer[m["name"]], m["unit"]) for m in spec["per_layer"]}
    both = untraced + results
    return metrics, both, both, unrepeated(rounds, both), 2 * len(rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    import_program()

    wl, seed = ns.workload, ns.seed
    if ns.trace:
        metrics, results, counted, unrepeated_jobs, rounds = traced_run(wl, seed)
    else:
        metrics, results, counted, unrepeated_jobs, rounds = untraced_run(wl, seed, ns.seconds)
    detail = {
        "workload": wl,
        "seed": seed,
        "trace": ns.trace,
        "meta": metadata(),
        "tail_percentile": TAIL_PERCENTILE[wl],
        "rounds": rounds,
        "counted_jobs": len(counted),
        "unrepeated_jobs": unrepeated_jobs,
        "kinds": summarize(results),
        "jobs": [
            {"kind": r.kind, "latency_s": r.latency_s, "ref_s": r.ref_s, "ok": r.verdict.ok, "wrong": r.verdict.wrong,
             "note": r.verdict.note, "margins": r.verdict.margins}
            for r in results
        ],
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{wl}-seed{seed}-trace{ns.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1)

    for kind, row in detail["kinds"].items():
        print(
            f"{kind:34s} jobs={row['jobs']:4d} failed={row['failed']:3d} "
            f"p50={row['p50_ms']:9.2f} ms scaled={row['scaled_p50_ms']:9.2f} ms"
        )
    print(json.dumps(detail["meta"]))
    if unrepeated_jobs:
        print(f"{unrepeated_jobs} repeated jobs changed their verdict")
    result = {
        "correct": not any(r.verdict.wrong for r in results) and not unrepeated_jobs,
        "attempted": len(counted),
        "failed": sum(not r.verdict.ok for r in counted),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
