"""Layer spans recorded from outside the program.

:class:`Tracer` wraps the public functions of each ``aybe`` module (and the
two tensor methods on the residual hot path) and rebinds every ``aybe.*``
namespace that holds them, module-level dicts included, because modules
import by value.  A call that enters a layer from another layer opens a
span (name, start, end, parent span, job id); a nested call inside the same
layer is only counted.  Spans are kept in flat arrays and written out by
:meth:`Tracer.save`.  A layer's self time is the duration of its spans
minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict

# layer name -> module; the order is the order of the per-layer report
LAYERS = {
    "cli": "aybe.cli",
    "verify": "aybe.verify",
    "series": "aybe.series",
    "solutions": "aybe.solutions",
    "tensors": "aybe.tensors",
    "curve": "aybe.curve",
    "special": "aybe.special",
}
METHODS = {"tensors": (("MatrixTensor3", "mul"), ("MatrixTensor2", "embed"))}

CHECK_FNS = (
    "verify.check_aybe",
    "verify.check_aybe_commutator",
    "verify.check_cybe",
    "verify.check_unitarity",
    "verify.check_rank",
    "verify.check_limit_consistency",
)
COEFF_FNS = (
    "series.extract_u_series",
    "series.scalar_r0",
    "series.scalar_r1",
    "series.scalar_r0_derivative",
    "series.scalar_r0_series",
)
EVAL_FNS = ("solutions.eval_aybe", "solutions.eval_cybe")


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__
        ):
            yield name, obj


class Tracer:
    def __init__(self) -> None:
        self.job = -1
        self.names: list = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: Counter = Counter()
        self.spans: Counter = Counter()  # spans per function
        self.span_s: Dict[str, float] = defaultdict(float)  # inclusive, per function
        self.layer_spans: Counter = Counter()
        self.layer_self_s: Dict[str, float] = defaultdict(float)
        self.raised: Counter = Counter()
        self.active: Counter = Counter()
        self.series_evals = 0
        self.mul3_macs = 0
        self.mul3_bytes = 0
        self.checks = 0
        self.points = 0
        self.skipped = 0
        self._stack: list = []  # frames [layer, child_s, span index]
        self._originals: list = []

    # -- hooks on counted calls ------------------------------------------

    def _on_mul3(self, args) -> None:
        n = args[0].coeffs.shape[0]
        self.mul3_macs += n**9
        self.mul3_bytes += 3 * 16 * n**6  # two operands and the product, complex128

    def _on_eval(self, args) -> None:
        if self.active["series"]:
            self.series_evals += 1

    def _on_report(self, report) -> None:
        self.checks += 1
        self.points += len(report.points)
        self.skipped += report.skipped

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, layer: str, qualname: str, fn: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(qualname)
        before = self._on_eval if qualname in EVAL_FNS else None
        if qualname == "tensors.MatrixTensor3.mul":
            before = self._on_mul3
        after = self._on_report if qualname in CHECK_FNS else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[qualname] += 1
            if before is not None:
                before(args)
            stack = tracer._stack
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                result = tracer._span(layer, qualname, name_id, fn, args, kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _span(self, layer, qualname, name_id, fn, args, kwargs):
        stack = self._stack
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(stack[-1][2] if stack else -1)
        self.span_job.append(self.job)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [layer, 0.0, idx]
        stack.append(frame)
        self.active[layer] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.raised[layer] += 1
            raise
        finally:
            end = perf_counter()
            stack.pop()
            self.active[layer] -= 1
            duration = end - start
            self.span_start[idx] = start
            self.span_end[idx] = end
            self.spans[qualname] += 1
            self.span_s[qualname] += duration
            self.layer_spans[layer] += 1
            self.layer_self_s[layer] += duration - frame[1]
            if stack:
                stack[-1][1] += duration

    def install(self) -> None:
        """Rebind every aybe namespace that holds a wrapped callable."""
        replace: Dict[int, Callable] = {}
        for layer, modname in LAYERS.items():
            module = sys.modules[modname]
            short = modname.split(".", 1)[1]
            for name, fn in _public_functions(module):
                replace[id(fn)] = self._wrap(layer, f"{short}.{name}", fn)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                fn = cls.__dict__[meth]
                self._originals.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(layer, f"{short}.{cls_name}.{meth}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "aybe" and not modname.startswith("aybe."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    self._originals.append((module, attr, value))
                    setattr(module, attr, replace[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if callable(item) and id(item) in replace:
                            self._originals.append((value, key, item))
                            value[key] = replace[id(item)]

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._originals):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._originals.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer counts and times, keyed as in BENCHMARK.json."""
        calls, span_s = self.calls, self.span_s
        self_s = self.layer_self_s

        def per(num: float, den: float, scale: float = 1.0) -> float:
            return scale * num / den if den else 0.0

        evals = sum(calls[f] for f in EVAL_FNS)
        coeff_calls = sum(calls[f] for f in COEFF_FNS)
        mul3_s = span_s["tensors.MatrixTensor3.mul"]
        out = {
            "special.calls": self.layer_spans["special"],
            "special.self_s": self_s["special"],
            "special.us_per_call": per(self_s["special"], self.layer_spans["special"], 1e6),
            "solutions.evals": evals,
            "solutions.self_s": self_s["solutions"],
            "solutions.us_per_eval": per(self_s["solutions"], evals, 1e6),
            "solutions.in_domain_calls": self.spans["solutions.in_domain"],
            "solutions.in_domain_s": span_s["solutions.in_domain"],
            "tensors.mul3_calls": calls["tensors.MatrixTensor3.mul"],
            "tensors.mul3_s": mul3_s,
            "tensors.embed_calls": calls["tensors.MatrixTensor2.embed"],
            "tensors.embed_s": span_s["tensors.MatrixTensor2.embed"],
            "tensors.mul3_macs": self.mul3_macs,
            "tensors.mul3_bytes": self.mul3_bytes,
            "tensors.mul3_gmacs_per_s": per(self.mul3_macs, mul3_s, 1e-9),
            "verify.checks": self.checks,
            "verify.points": self.points,
            "verify.skipped": self.skipped,
            "verify.accept_ratio": per(self.points, self.points + self.skipped),
            "verify.self_s": self_s["verify"],
            "series.coeff_calls": coeff_calls,
            "series.evals_per_coeff": per(self.series_evals, coeff_calls),
            "series.self_s": self_s["series"],
            "curve.composites": calls["curve.composite_map"],
            "curve.self_s": self_s["curve"],
            "cli.jobs": calls["cli.main"],
            "cli.self_s": self_s["cli"],
        }
        for layer in LAYERS:
            out[f"{layer}.raised"] = self.raised[layer]
        return out

    def save(self, path) -> None:
        """Write the spans as gzipped JSON columns (name ids index ``names``),
        one column at a time to keep the peak memory small."""
        columns = (
            ("name", self.span_name),
            ("parent", self.span_parent),
            ("job", self.span_job),
            ("start", self.span_start),
            ("end", self.span_end),
        )
        with gzip.open(path, "wt") as fh:
            fh.write('{"names":' + json.dumps(self.names))
            for key, column in columns:
                fh.write(f',"{key}":[' + ",".join(map(repr, column)) + "]")
            fh.write("}")
