"""The benchmark's layer tracer still wraps the package it measures.

``bench/tracer.py`` rebinds public functions, module-level dicts and two
tensor methods by name.  A deletion or rename in the package can break
``bench/run.py --trace 1`` without any other test noticing; this test
installs the tracer, runs one CLI job, and checks what it counted and that
uninstalling restores every binding.
"""

import importlib.util
import sys
from pathlib import Path

import aybe.cli
from aybe.tensors import MatrixTensor2, MatrixTensor3

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("aybe_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """id of every value bound in an aybe module, in the dicts those modules
    hold, and of the two traced tensor methods."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "aybe" and not name.startswith("aybe."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = id(value)
            if isinstance(value, dict):
                for key, item in list(value.items()):
                    out[(name, attr, key)] = id(item)
    for cls, meth in ((MatrixTensor3, "mul"), (MatrixTensor2, "embed")):
        out[(cls.__name__, meth)] = id(cls.__dict__[meth])
    return out


def test_tracer_counts_a_verify_job_and_restores_every_binding(capsys):
    before = _bindings()
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert _bindings() != before
        code = aybe.cli.main(["verify", "--family", "trig1"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["verify.run_suite"] == 1
    # a solutions function that verify imported by value is counted
    assert tracer.calls["solutions.paired_cybe_handle"] > 0
    assert tracer.layer_spans["verify"] > 0 and tracer.layer_spans["solutions"] > 0
    metrics = tracer.layer_metrics()
    assert metrics["cli.jobs"] == 1 and metrics["cli.raised"] == 0
    assert _bindings() == before
