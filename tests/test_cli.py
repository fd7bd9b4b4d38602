"""End-to-end tests of the command line interface.

Each test calls ``main`` with an explicit argv and checks exit status
and output, so failures carry real tracebacks; one smoke test runs
``python -m aybe.cli`` in a fresh interpreter.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import aybe.cli
import aybe.series
import aybe.solutions
import aybe.verify
from aybe.cli import (
    FAMILY_NAMES, CliError, _build_handle, _build_parser, main,
    parse_complex,
)
from aybe.series import LaurentSeries
from aybe.solutions import (
    elliptic_aybe,
    elliptic_cybe,
    handle_to_dict,
    scalar_kronecker,
    scalar_rational,
    scalar_trig,
    trig_aybe,
    trig_cybe,
)

TRIG_C = -20.0 / 49.0


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_module_entry_point_runs_in_a_fresh_interpreter():
    # the only run of __main__ and of a cold import of the package
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "aybe.cli", "verify", "--family", "trig1", "--seed", "5"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[0] for line in proc.stdout.splitlines()] == ["PASS"] * 5


# ---------------------------------------------------------------------------
# token parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "token,value",
    [
        ("i", 1j),
        ("-i", -1j),
        ("2i", 2j),
        ("0.5+0.9i", 0.5 + 0.9j),
        ("1e-3i", 1e-3j),
        ("3", 3 + 0j),
        ("2+j", 2 + 1j),
        ("1.5-0.25j", 1.5 - 0.25j),
        (" 0.7 ", 0.7 + 0j),
    ],
)
def test_parse_complex(token, value):
    assert parse_complex(token) == pytest.approx(value)


@pytest.mark.parametrize(
    "token", ["", "xyz", "1+2k", "--", "inf", "-inf", "nan", "infj", "1e400", "0.3+nani"]
)
def test_parse_complex_rejects_garbage(token):
    with pytest.raises(CliError):
        parse_complex(token)


@pytest.mark.parametrize(
    "args, token",
    [
        (["eval", "--family", "trig1", "--u", "inf", "--v", "0.3"], "inf"),
        (["eval", "--family", "scalar-kronecker", "--tau", "nan", "--u", "0.1", "--v", "0.2"], "nan"),
        (["sweep", "--quantity", "rank", "--family", "trig-cybe1", "--grid", "0.4,inf"], "inf"),
        (["classify", "--family", "scalar-kronecker", "--tau=1e400i"], "1e400i"),
    ],
)
def test_non_finite_points_are_usage_errors_not_poles(args, token, capsys):
    # an infinite or undefined point is no pole: an error line naming the
    # token and exit 2 (eval used to print it as pole-proximity, exit 0)
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.strip() == f"error: complex token {token!r} is not finite"


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_scalar_rational_pin(capsys):
    code, out, _ = run_cli(
        ["eval", "--family", "scalar-rational", "--a", "1", "--b", "1",
         "--u", "0.5", "--v", "0.25"],
        capsys,
    )
    assert code == 0
    assert "[0,0,0,0] = 6.000000000000e+00+0.000000000000e+00j" in out


def test_eval_elliptic_d1_pin(capsys):
    code, out, _ = run_cli(
        ["eval", "--family", "elliptic", "--d", "1", "--r", "1", "--tau", "i",
         "--u", "0.2", "--v", "0.3"],
        capsys,
    )
    assert code == 0
    assert "[0,0,0,0] = 0.000000000000e+00-3.227244103900e-01j" in out


def test_eval_trig_cybe_pin(capsys):
    # At v = log 2 the one-variable trigonometric solution has rational and
    # sqrt(2) entries.
    code, out, _ = run_cli(
        ["eval", "--family", "trig-cybe2", "--v", repr(math.log(2.0))],
        capsys,
    )
    assert code == 0
    assert "[0,0,0,0] = -7.500000000000e-01" in out
    assert "[1,0,1,0] = 7.071067811865e-01" in out
    assert "[0,1,1,0] = -1.414213562373e+00" in out


def test_eval_point_grid_is_cartesian(capsys):
    code, out, _ = run_cli(
        ["eval", "--family", "scalar-rational", "--u", "0.5,1", "--v", "0.25,2"],
        capsys,
    )
    assert code == 0
    assert out.count("point u=") == 4


def test_eval_pole_proximity_is_reported_not_fatal(capsys):
    code, out, _ = run_cli(
        ["eval", "--family", "trig1", "--u", "0,0.3", "--v", "0.4"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].endswith("pole-proximity")
    assert "point u=3.000000000000e-01" in out


def test_eval_evaluates_the_clear_points_in_one_array_call(monkeypatch, capsys):
    # two poles (u = 0), two overflows (u = 800) and two clear points in one
    # call: the clear points are evaluated in one call, which raises, and
    # then one point at a time, so each point gets its own status
    calls = []

    def counting_eval(h, u, v, real_eval=aybe.cli.eval_aybe_array):
        calls.append(len(v))
        return real_eval(h, u, v)

    monkeypatch.setattr(aybe.cli, "eval_aybe_array", counting_eval)
    code, out, _ = run_cli(["eval", "--family", "trig1", "--u", "0,800,0.3", "--v", "0.5,0.4", "--csv"], capsys)
    rows = out.splitlines()[1:]
    assert code == 0
    assert [row.rsplit(",", 1)[1] for row in rows[:4]] == ["pole-proximity"] * 2 + ["overflow"] * 2
    assert len(rows) == 4 + 2 * 16 and all(row.endswith(",ok") for row in rows[4:])
    assert calls == [4]
    # with every point clear, one call and nothing else
    calls.clear()
    code, clear_out, _ = run_cli(["eval", "--family", "trig1", "--u", "0.3", "--v", "0.5,0.4", "--csv"], capsys)
    assert (code, calls) == (0, [2])
    assert clear_out.splitlines()[1:] == rows[4:]


@pytest.mark.parametrize("family", ["trig1", "scalar-trig"])
def test_eval_overflow_far_from_poles_is_not_pole_proximity(family, capsys):
    # exp(800) overflows a float; u = 800 is 800 away from the nearest pole
    code, out, _ = run_cli(["eval", "--family", family, "--u", "800", "--v", "0.5"], capsys)
    n = 2 if family == "trig1" else 1
    assert (code, out) == (
        0, f"point u=8.000000000000e+02+0.000000000000e+00j "
        f"v=5.000000000000e-01+0.000000000000e+00j n={n} overflow\n")
    code, out, _ = run_cli(
        ["eval", "--family", family, "--u", "800,0.3", "--v", "0.5", "--csv"], capsys
    )
    rows = out.splitlines()
    assert code == 0
    assert rows[1] == "800.0,0.0,0.5,0.0,,,,,,,overflow"
    assert all(row.endswith(",ok") for row in rows[2:])


@pytest.mark.parametrize(
    "args",
    [
        # u = -tau/2 at tau = 0.2+1.1i: U + tau'/2 = 0 for U = 2u, tau' = 2 tau
        ["eval", "--family", "elliptic", "--d", "2", "--r", "1", "--tau", "0.2+1.1i",
         "--u=-0.1-0.55i", "--v", "0.3"],
        # v = tau/2: V + tau'/2 = 0 for V = -2v
        ["eval", "--family", "elliptic-cybe", "--d", "2", "--r", "1", "--tau", "0.2+1.1i",
         "--v", "0.1+0.55i"],
        # u - v = -tau/3: U + V + tau'/3 = 0 for d = 3
        ["eval", "--family", "elliptic", "--d", "3", "--r", "1", "--tau", "0.2+1.1i",
         "--u", "0.06666666666666668-0.18333333333333335i",
         "--v", "0.13333333333333333+0.18333333333333335i"],
    ],
)
def test_eval_pole_on_twisted_argument_is_pole_proximity(args, capsys):
    # only a characteristic-shifted argument meets the lattice here
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out.splitlines()[0].endswith("pole-proximity")


@pytest.mark.parametrize(
    "args",
    [
        ["eval", "--family", "trig1", "--u", "-0.3i", "--v", "0.5"],
        ["eval", "--family", "trig1", "--u", "0.3", "--v", "-0.5i,0.2"],
        ["eval", "--family", "scalar-kronecker", "--tau", "-0.5+0.9i",
         "--u", "-.2", "--v", "-i"],
        ["eval", "--family", "scalar-rational", "--a", "-2i", "--b", "-1-1i",
         "--u", "0.3", "--v", "0.4"],
        ["sweep", "--quantity", "rank", "--family", "trig1", "--u", "0.2",
         "--grid", "-0.3i,0.4"],
    ],
)
def test_negative_complex_token_as_separate_argument(args, capsys):
    # a value after a complex option may start with '-'; it must read the
    # same as the attached form --opt=value
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    attached = []
    k = 0
    while k < len(args):
        if args[k] in ("--u", "--v", "--tau", "--grid", "--a", "--b"):
            attached.append(f"{args[k]}={args[k + 1]}")
            k += 2
        else:
            attached.append(args[k])
            k += 1
    assert run_cli(attached, capsys) == (0, out, "")


def test_missing_value_before_option_is_still_a_usage_error(capsys):
    code, _, err = run_cli(["eval", "--family", "trig1", "--u", "--v", "0.5"], capsys)
    assert code == 2
    assert "expected one argument" in err


def test_eval_kronecker_far_from_real_axis_is_finite(capsys):
    # Im u = 30*Im tau used to overflow in the theta factors and print
    # pole-proximity; F(u + 30i, v) = exp(-60*pi*i*v) F(u, v) at tau = i
    code, out, _ = run_cli(
        ["eval", "--family", "scalar-kronecker", "--tau", "i",
         "--u", "0.1+30i", "--v", "0.23"],
        capsys,
    )
    assert code == 0
    assert "pole-proximity" not in out
    value = complex(out.strip().splitlines()[1].split("=")[1].strip())
    _, near, _ = run_cli(
        ["eval", "--family", "scalar-kronecker", "--tau", "i",
         "--u", "0.1", "--v", "0.23"],
        capsys,
    )
    expected = complex(near.strip().splitlines()[1].split("=")[1].strip())
    expected *= complex(math.cos(60 * math.pi * 0.23), -math.sin(60 * math.pi * 0.23))
    assert abs(value - expected) < 1e-10 * abs(expected)


@pytest.mark.parametrize(
    "data,n",
    [({"family": "trig_aybe1", "d": 5}, 2), ({"family": "scalar_trig", "d": 3}, 1)],
)
def test_eval_handle_json_sizes_by_family_not_d(data, n, tmp_path, capsys):
    path = tmp_path / "handle.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(
        ["eval", "--handle-json", str(path), "--u", "0.3", "--v", "0.5"], capsys
    )
    assert code == 0
    assert out.splitlines()[0].endswith(f" n={n}")
    assert len(out.splitlines()) == 1 + n**4


def _pairs(matrix):
    return [[[z.real, z.imag] for z in map(complex, row)] for row in matrix]


@pytest.mark.parametrize(
    "data,message",
    [
        ({"family": "elliptic_aybe", "d": 3, "r": 1, "tau": [0, 1],
          "gauge": {"kind": "constant", "matrix": _pairs(np.eye(2))}}, "gauge matrix must be 3 x 3"),
        ({"family": "trig_aybe1", "d": 2,
          "gauge": {"kind": "constant", "matrix": _pairs([[1, 2], [1, 2]])}}, "gauge matrix is singular"),
        ({"family": "elliptic_cybe", "d": 3, "r": 1, "tau": [0, 1],
          "gauge": {"kind": "scalar_exp", "c": [0.3, 0]}}, "scalar_exp gauge does not apply"),
    ],
    ids=["wrong-size", "singular", "scalar-on-cybe"],
)
@pytest.mark.parametrize("command", [["verify"], ["eval", "--u", "0.3", "--v", "0.5"]], ids=["verify", "eval"])
def test_a_bad_gauge_in_a_handle_file_is_a_usage_error(data, message, command, tmp_path, capsys):
    # the checks of equivalence_transform, before any evaluation: an
    # error line and exit 2, not a traceback from the evaluation
    path = tmp_path / "handle.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(command[:1] + ["--handle-json", str(path)] + command[1:], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: bad handle file: ") and message in err


def test_eval_csv_layout(capsys):
    code, out, _ = run_cli(
        ["eval", "--family", "scalar-rational", "--u", "0.5", "--v", "0.25",
         "--csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u_re,u_im,v_re,v_im,i,j,k,l,re,im,status"
    assert lines[1] == "0.5,0.0,0.25,0.0,0,0,0,0,6.0,0.0,ok"


def test_eval_out_file_matches_stdout(tmp_path, capsys):
    args = ["eval", "--family", "scalar-trig", "--u", "0.3", "--v", "0.41"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    target = tmp_path / "vals.txt"
    code2 = main(args + ["--out", str(target)])
    capsys.readouterr()
    assert code2 == 0
    assert target.read_text() == out


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_elliptic_full_suite(capsys):
    code, out, _ = run_cli(
        ["verify", "--family", "elliptic", "--d", "2", "--r", "1", "--tau", "i",
         "--points", "6", "--seed", "3"],
        capsys,
    )
    assert code == 0
    for tag in ("aybe", "unitarity", "rank", "limit"):
        assert f"PASS {tag}:" in out
    assert "FAIL" not in out


def test_verify_cybe_check_on_aybe_family_uses_partner(capsys):
    code, out, _ = run_cli(
        ["verify", "--family", "trig1", "--check", "cybe", "--points", "6"],
        capsys,
    )
    assert code == 0
    assert "PASS cybe-partner:" in out


def test_verify_perturbed_handle_fails_limit_only(tmp_path, capsys, monkeypatch):
    # the limit check compares a rescaled handle with the partner rescaled
    # alike, and passes; against the canonical, unscaled partner the 1 %
    # perturbation fails the limit check alone
    data = handle_to_dict(elliptic_aybe(2, 1, 1j))
    data["rescale"][0] = [1.01, 0.0]
    path = tmp_path / "handle.json"
    path.write_text(json.dumps(data))
    argv = ["verify", "--handle-json", str(path), "--points", "6", "--seed", "3"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert "PASS limit:" in out
    monkeypatch.setattr(
        aybe.verify, "paired_cybe_handle", lambda h: elliptic_cybe(h.d, h.r, h.tau)
    )
    code, out, _ = run_cli(argv, capsys)
    assert code == 1
    assert "PASS aybe:" in out
    assert "PASS unitarity:" in out
    assert "FAIL limit:" in out


def test_verify_csv_layout(capsys):
    code, out, _ = run_cli(
        ["verify", "--family", "scalar-trig", "--check", "aybe", "--points", "5",
         "--csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "tag,points,skipped,max_abs,max_rel,tolerance,passed"
    assert lines[1].startswith("aybe,5,")
    assert lines[1].endswith(",1")


def test_verify_deterministic_for_fixed_seed(capsys):
    args = ["verify", "--family", "elliptic", "--d", "2", "--r", "1",
            "--tau", "i", "--points", "5", "--seed", "11", "--csv"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    _, out3, _ = run_cli(args[:-2] + ["12", "--csv"], capsys)
    assert out3.splitlines()[0] == out1.splitlines()[0]
    assert out3 != out1


@pytest.mark.parametrize("seed", ["26", "39"])
def test_verify_trig1_limit_with_exact_first_difference(seed, capsys):
    # For trig1, project_sl(r(u, v)) does not depend on u, so the values the
    # limit averages agree to roundoff and may agree exactly; these seeds
    # stay as regression inputs for that case.
    code, out, err = run_cli(["verify", "--family", "trig1", "--seed", seed], capsys)
    assert code == 0, err
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(line.startswith("PASS ") for line in lines)


@pytest.mark.parametrize("d,r", [(4, 3), (6, 5), (7, 3)])
def test_verify_elliptic_limit_passes_near_other_u_poles(d, r, capsys):
    # the u -> 0 limit is read off a circle inside the nearest other u-pole,
    # which can sit as close as 1e-2 / (d r) to u = 0
    code, out, err = run_cli(
        ["verify", "--family", "elliptic", "--d", str(d), "--r", str(r),
         "--tau=0.2+1.1i", "--seed", "5"],
        capsys,
    )
    assert code == 0, err
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(line.startswith("PASS ") for line in lines)


def test_verify_non_convergence_is_reported_not_raised(capsys):
    # A guard wider than the sampling disc rejects every draw.
    code, out, err = run_cli(["verify", "--family", "trig1", "--guard", "10"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_verify_unknown_check_is_usage_error(capsys):
    code, _, err = run_cli(
        ["verify", "--family", "trig1", "--check", "bogus"], capsys
    )
    assert code == 2
    assert "unknown checks" in err


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_trig_pin(capsys):
    code, out, _ = run_cli(
        ["classify", "--family", "scalar-trig", "--radius", "1.5"], capsys
    )
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert fields["verdict"] == "trigonometric-like"
    c_val = complex(fields["C"])
    assert abs(c_val - TRIG_C) < 1e-10


def test_classify_kronecker_pin(capsys):
    code, out, _ = run_cli(
        ["classify", "--family", "scalar-kronecker", "--tau", "2i"], capsys
    )
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert fields["verdict"] == "elliptic-like"
    c_val = complex(fields["C"])
    assert abs(c_val - (-0.40570999248687883)) < 1e-9


def test_classify_rational_has_no_c(capsys):
    code, out, _ = run_cli(
        ["classify", "--family", "scalar-rational", "--a", "1", "--b", "1"],
        capsys,
    )
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert fields["verdict"] == "rational-like"
    assert fields["C"] == "none"


def test_classify_names_a_lattice_v_as_the_pole(capsys):
    # the v-circle of radius 1.5 passes through the lattice point 1.5i; the
    # error names that v, not the u = 0 its shrunken u-circle lands on
    code, _, err = run_cli(
        ["classify", "--family", "scalar-kronecker", "--tau=1.5i", "--radius", "1.5"],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: v = ")
    assert "of the lattice for tau = 1.5j" in err


@pytest.mark.parametrize("radius", ["0", "nan", "inf"])
def test_classify_rejects_a_radius_that_is_not_positive_and_finite(radius, capsys):
    code, out, err = run_cli(
        ["classify", "--family", "scalar-trig", "--radius", radius], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: extraction radius must be positive and finite")


def test_sweep_c_rejects_a_radius_that_is_not_positive(capsys):
    code, out, err = run_cli(
        ["sweep", "--quantity", "C", "--family", "scalar-kronecker",
         "--grid", "1.2i", "--radius", "0"],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: extraction radius must be positive and finite")


@pytest.mark.parametrize(
    "args",
    [
        ["--family", "scalar-trig", "--radius", "7"],
        ["--family", "scalar-kronecker", "--tau=0.1+0.8i", "--radius", "0.9"],
        ["--family", "scalar-kronecker", "--tau", "i", "--radius", "1.05"],
    ],
    ids=["trig", "kronecker_short_tau", "kronecker_square"],
)
def test_classify_rejects_a_circle_around_another_pole(args, capsys):
    # each printed a wrong C with exit 0 when only c_-2 was tested
    code, out, err = run_cli(["classify", *args], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: r0 does not have a simple pole at v = 0 alone")


def test_sweep_c_rejects_a_circle_around_another_pole(capsys):
    code, out, err = run_cli(
        ["sweep", "--quantity", "C", "--family", "scalar-kronecker",
         "--grid=2i,0.1+0.8i", "--radius", "0.9"],
        capsys,
    )
    assert code == 2
    assert "holds another pole" in err


def test_classify_matrix_family_is_usage_error(capsys):
    code, _, err = run_cli(
        ["classify", "--family", "elliptic", "--d", "2", "--r", "1",
         "--tau", "i"],
        capsys,
    )
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "c3,c5", [(math.nan, 0.5), (1e-13, math.nan), (1e-11, 1e160)], ids=["nan_c3", "nan_c5", "c_overflows"]
)
def test_classify_refuses_a_c_that_is_not_finite(c3, c5, monkeypatch, capsys):
    # every comparison with NaN is false: a NaN c3 printed
    # verdict=elliptic-like and a NaN c5 rational-like, each with exit 0
    series = LaurentSeries(leading_order=-1, coeffs=(1, 0, 0, 0, complex(c3), 0, complex(c5)), radius=0.3)
    monkeypatch.setattr(aybe.series, "normalize_scalar_r0", lambda h, order, radius: (series, ()))
    code, out, err = run_cli(["classify", "--family", "scalar-trig"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"c3 = {complex(c3)!r}" in err and f"c5 = {complex(c5)!r}" in err


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", [1, 2])
def test_oracle_passes_both_cases(case, capsys):
    code, out, _ = run_cli(
        ["oracle", "--case", str(case), "--samples", "4", "--seed", "7"], capsys
    )
    assert code == 0
    assert "PASS closed-form:" in out
    assert "PASS dependence:" in out


def test_oracle_constant_trivialization_flagged_not_failed(capsys):
    code, out, _ = run_cli(
        ["oracle", "--case", "2", "--samples", "4", "--seed", "7",
         "--trivialization", "constant"],
        capsys,
    )
    assert code == 0
    assert "flag=expected-dependence-failure" in out
    assert "PASS closed-form" not in out


@pytest.mark.parametrize("case", [1, 2])
def test_oracle_builds_each_composite_stack_with_one_solve(case, monkeypatch, capsys):
    # the 20 samples' composites (and their shifted copies) come from two
    # batched solves, and the closed forms from one array evaluation
    solves, evals = [], []
    solve, evaluate = np.linalg.solve, aybe.cli.eval_aybe_array

    def counting_solve(a, b):
        solves.append(len(a))
        return solve(a, b)

    def counting_eval(h, u, v):
        evals.append(len(u))
        return evaluate(h, u, v)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(aybe.cli, "eval_aybe_array", counting_eval)
    code, out, _ = run_cli(["oracle", "--case", str(case), "--samples", "20"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 22
    assert solves == [20, 20]
    assert evals == [20]


def test_oracle_fails_on_a_nan_residual(monkeypatch, capsys):
    # a NaN closed form at the second sample: numpy's max carries it
    # through, where Python's max would drop it
    evaluate = aybe.cli.eval_aybe_array

    def with_nan(h, u, v):
        values = evaluate(h, u, v)
        values[1] = np.nan
        return values

    monkeypatch.setattr(aybe.cli, "eval_aybe_array", with_nan)
    code, out, _ = run_cli(["oracle", "--case", "1", "--samples", "4", "--seed", "7"], capsys)
    assert code == 1
    assert out.splitlines()[1].startswith("sample 01: closed_rel=nan ")
    assert "FAIL closed-form: max_rel=nan " in out


def test_oracle_rejects_bad_case(capsys):
    code, _, err = run_cli(["oracle", "--case", "5"], capsys)
    assert code == 2
    assert "case" in err


def _oracle_samples_one_by_one(rng, n):
    """The reference draw: 14 scalar uniform draws per sample, in order."""
    samples = []
    for _ in range(n):
        s = complex(
            float(rng.uniform(0.35, 1.2)) * (1.0 if rng.uniform() < 0.5 else -1.0),
            float(rng.uniform(-1.0, 1.0)),
        )
        t = complex(
            float(rng.uniform(0.35, 1.2)) * (1.0 if rng.uniform() < 0.5 else -1.0),
            float(rng.uniform(-1.0, 1.0)),
        )
        w1 = complex(float(rng.uniform(-0.4, 0.4)), float(rng.uniform(-0.8, 0.8)))
        w2 = complex(float(rng.uniform(-0.4, 0.4)), float(rng.uniform(-0.8, 0.8)))
        g1 = complex(float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-0.5, 0.5)))
        g2 = complex(float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-0.5, 0.5)))
        samples.append((s, t, w1, w2, g1, g2))
    return np.array(samples).T


@pytest.mark.parametrize("n", [1, 2, 7, 20])
def test_oracle_samples_are_the_scalar_draws_bit_for_bit(n):
    for seed in range(50):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, ref = aybe.cli._oracle_samples(rng, n), _oracle_samples_one_by_one(ref_rng, n)
        assert got.shape == ref.shape == (6, n)
        assert got.tobytes() == ref.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_c_converges_toward_trig_point(capsys):
    code, out, _ = run_cli(
        ["sweep", "--quantity", "C", "--family", "scalar-kronecker",
         "--grid", "1.2i,1.5i,2i,2.5i,3i"],
        capsys,
    )
    assert code == 0
    values = []
    for line in out.strip().splitlines():
        assert line.startswith("tau=")
        values.append(complex(line.split("C=", 1)[1]))
    gaps = [abs(c - TRIG_C) for c in values]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
    assert gaps[-1] < 2e-3


def test_sweep_j_deviation_small_on_lattice_points(capsys):
    code, out, _ = run_cli(
        ["sweep", "--quantity", "j-deviation", "--family", "scalar-kronecker",
         "--grid", "i,2i", "--csv"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "tau,C_re,C_im,deviation"
    for line in lines[1:]:
        assert float(line.rsplit(",", 1)[1]) < 1e-6


def test_sweep_rank_constant_on_grid(capsys):
    code, out, _ = run_cli(
        ["sweep", "--quantity", "rank", "--family", "elliptic", "--d", "2",
         "--r", "1", "--tau", "i", "--u", "0.21", "--grid", "0.3,0.4"],
        capsys,
    )
    assert code == 0
    assert out.strip().splitlines() == ["v=0.3 rank=4", "v=0.4 rank=4"]


def test_sweep_unitarity_pass(capsys):
    code, out, _ = run_cli(
        ["sweep", "--quantity", "unitarity", "--family", "trig1", "--u", "0.31",
         "--grid", "0.4,0.5"],
        capsys,
    )
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("PASS unitarity sweep:")


def test_sweep_unitarity_fails_on_a_nan_residual(monkeypatch, capsys):
    # a NaN value at the second grid point makes its residual NaN
    evaluate = aybe.solutions._values

    def with_nan(h, u, v):
        values = evaluate(h, u, v)
        values[1] = np.nan
        return values

    monkeypatch.setattr(aybe.solutions, "_values", with_nan)
    code, out, _ = run_cli(
        ["sweep", "--quantity", "unitarity", "--family", "trig1", "--u", "0.31",
         "--grid", "0.4,0.5,0.6i"],
        capsys,
    )
    assert code == 1
    lines = out.splitlines()
    assert [line.split()[-1] for line in lines[:3]] == ["PASS", "FAIL", "PASS"]
    assert lines[1] == "v=0.5 residual=nan FAIL"
    assert lines[-1].startswith("FAIL unitarity sweep:")


@pytest.mark.parametrize("quantity", ["rank", "unitarity"])
@pytest.mark.parametrize(
    "family_args", [("--family", "trig1", "--u", "0.31"), ("--family", "trig-cybe1")]
)
def test_sweep_rank_at_a_pole_is_a_domain_error(family_args, quantity, capsys):
    # v = 0 is a pole of both families: an error line that names the grid
    # token and exit 2, the same for both quantities, not an arithmetic
    # error from the evaluation
    code, out, err = run_cli(
        ["sweep", "--quantity", quantity, *family_args, "--grid", "0.4,0"], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: evaluation point") and "v=0 hits a pole" in err


@pytest.mark.parametrize("tau", ["0.01i", "0.015i"])
def test_verify_where_theta_prime_vanishes_is_an_error_line(capsys, tau):
    # at tau = 0.01i and 0.015i the theta series sums theta11'(0) to
    # rounding noise (true 4.9e-31 and 6.2e-20) below from_tau's own bound
    # (3.7e-12 and 2.1e-12): an error line that prints the noise and exit 2,
    # not a ZeroDivisionError traceback or a run on wrong lattice constants
    code, out, err = run_cli(
        ["verify", "--family", "scalar-kronecker", f"--tau={tau}", "--seed", "5"], capsys
    )
    assert code == 2
    assert out == ""
    prefix = "error: theta11'(0) = "
    assert err.startswith(prefix)
    assert abs(complex(err[len(prefix):].split(" is not")[0])) < 1e-12


def test_eval_guards_all_its_points_in_one_call(monkeypatch, capsys):
    calls = []
    mask = aybe.cli._domain_mask

    def counted(h, u, v, guard):
        calls.append(len(v))
        return mask(h, u, v, guard)

    monkeypatch.setattr(aybe.cli, "_domain_mask", counted)
    code, out, _ = run_cli(["eval", "--family", "trig1", "--u", "0.31,0", "--v", "0.4,0.5i"], capsys)
    assert code == 0 and calls == [4]
    assert [line.split()[-1] for line in out.splitlines() if line.startswith("point")] == [
        "n=2", "n=2", "pole-proximity", "pole-proximity"
    ]


@pytest.mark.parametrize("quantity", ["rank", "unitarity"])
def test_sweep_evaluates_its_grid_in_one_call(quantity, monkeypatch, capsys):
    sizes = []
    evaluate = aybe.solutions.eval_aybe_array

    def counting(h, u, v):
        sizes.append(np.broadcast(u, v).size)
        return evaluate(h, u, v)

    for module, name in ((aybe.cli, "eval_aybe_array"), (aybe.verify, "_dense_values")):
        monkeypatch.setattr(module, name, counting)
    code, out, _ = run_cli(
        ["sweep", "--quantity", quantity, "--family", "trig1", "--u", "0.31",
         "--grid", "0.4,0.5,0.6i"],
        capsys,
    )
    assert code == 0
    # unitarity evaluates each point and its negative
    assert sizes == [3 if quantity == "rank" else 6]


def test_sweep_c_requires_kronecker_family(capsys):
    code, _, err = run_cli(
        ["sweep", "--quantity", "C", "--family", "scalar-trig",
         "--grid", "i,2i"],
        capsys,
    )
    assert code == 2
    assert "scalar-kronecker" in err


# ---------------------------------------------------------------------------
# config files and usage errors
# ---------------------------------------------------------------------------


def test_config_file_supplies_options(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"family": "scalar-rational", "a": "2", "b": "3", "u": "0.5", "v": "0.25"}
    ))
    code, out, _ = run_cli(["eval", "--config", str(cfg)], capsys)
    assert code == 0
    # 2/0.5 + 3/0.25 = 16
    assert "[0,0,0,0] = 1.600000000000e+01" in out


def test_cli_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"family": "scalar-rational", "a": "2", "b": "3", "u": "0.5", "v": "0.25"}
    ))
    code, out, _ = run_cli(
        ["eval", "--config", str(cfg), "--a", "4"], capsys
    )
    assert code == 0
    # 4/0.5 + 3/0.25 = 20
    assert "[0,0,0,0] = 2.000000000000e+01" in out


def test_missing_config_file_is_usage_error(capsys):
    code, _, err = run_cli(
        ["eval", "--config", "/nonexistent/cfg.json", "--family", "scalar-trig",
         "--u", "0.3", "--v", "0.4"],
        capsys,
    )
    assert code == 2
    assert "config" in err


def test_config_without_value_is_usage_error(capsys):
    # the subcommand's parser reads --config, so its usage error returns 2
    # like every other one, under the subcommand's name
    code, out, err = run_cli(["eval", "--config"], capsys)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert lines[0].startswith("usage: aybe eval ")
    assert lines[-1] == "aybe eval: error: argument --config: expected one argument"


@pytest.mark.parametrize("option", ["--conf", "--config=", "--conf="])
def test_an_abbreviated_config_option_reads_the_file(option, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"family": "scalar-rational", "a": "2", "b": "3", "u": "0.5", "v": "0.25"}
    ))
    args = [option + str(cfg)] if option.endswith("=") else [option, str(cfg)]
    assert run_cli(["eval", *args], capsys) == run_cli(["eval", "--config", str(cfg)], capsys)


@pytest.mark.parametrize("head", ["--", "--c"])
def test_an_ambiguous_config_abbreviation_reads_no_file(head, tmp_path, capsys, monkeypatch):
    # "--=FILE" and "--c=FILE" could abbreviate --config, but the
    # subcommand's parser refuses them as ambiguous, with or without a
    # readable file, and the file is never opened
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "scalar-rational", "u": "0.5", "v": "0.25"}))
    for path in (tmp_path / "missing.json", cfg):
        code, out, err = run_cli(["eval", f"{head}={path}"], capsys)
        assert (code, out) == (2, "")
        assert f"error: ambiguous option: {head}={path} could match " in err
    monkeypatch.setattr(aybe.cli, "_config_tokens", None)
    code, _, err = run_cli(["eval", "--conf", str(cfg), f"{head}={cfg}"], capsys)
    assert code == 2 and "ambiguous option" in err


def _count_parses_and_reads(monkeypatch, command):
    """Lists that record each run of ``command``'s parser and each config
    file read, as main makes them."""
    parser, parses, reads = _build_parser().commands[command], [], []
    parse_known_args, config_tokens = parser.parse_known_args, aybe.cli._config_tokens

    def counted_parse(*args, **kwargs):
        parses.append(args[0])
        return parse_known_args(*args, **kwargs)

    def counted_read(path):
        reads.append(path)
        return config_tokens(path)

    monkeypatch.setattr(parser, "parse_known_args", counted_parse)
    monkeypatch.setattr(aybe.cli, "_config_tokens", counted_read)
    return parses, reads


def test_a_command_line_without_a_config_option_is_parsed_once(monkeypatch, capsys):
    # --check and --csv start like --config but cannot abbreviate it
    parses, reads = _count_parses_and_reads(monkeypatch, "verify")
    code, out, _ = run_cli(
        ["verify", "--family", "trig1", "--points", "2", "--check", "rank", "--csv"], capsys
    )
    assert code == 0
    assert out.splitlines()[1].startswith("rank,2,0,0.0,0.0,0.5,1")
    assert (len(parses), reads) == (1, [])


def test_a_command_line_with_a_config_option_is_parsed_twice_and_reads_it_once(
    tmp_path, monkeypatch, capsys
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "trig1", "points": 2, "check": "rank"}))
    parses, reads = _count_parses_and_reads(monkeypatch, "verify")
    code, out, _ = run_cli(["verify", "--conf", str(cfg), "--csv"], capsys)
    assert code == 0
    assert out.splitlines()[1].startswith("rank,2,0,0.0,0.0,0.5,1")
    assert reads == [str(cfg)]
    # the second run reads the file's options first, then the command line
    assert parses == [
        ["--conf", str(cfg), "--csv"],
        ["--family", "trig1", "--points", "2", "--check", "rank", "--conf", str(cfg), "--csv"],
    ]


def test_a_config_file_of_every_value_kind_matches_its_flags(tmp_path, capsys):
    # true is the bare flag, false and null are left out, and a list is one
    # comma-separated value, which --check splits as --u and --v do
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "family": "trig1", "check": ["aybe", "rank"], "points": 3, "csv": True,
        "tol_aybe": None, "out": False,
    }))
    flags = ["verify", "--family", "trig1", "--points", "3", "--csv"]
    expected = run_cli(flags + ["--check", "aybe", "--check", "rank"], capsys)
    assert expected[0] == 0
    assert [line.split(",")[0] for line in expected[1].splitlines()] == ["tag", "aybe", "rank"]
    assert run_cli(["verify", "--config", str(cfg)], capsys) == expected
    assert run_cli(flags + ["--check", "aybe,rank"], capsys) == expected


def test_a_config_file_may_supply_the_options_a_subcommand_needs(tmp_path, capsys):
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({"quantity": "rank", "grid": "0.3,0.4", "family": "trig-cybe1"}))
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps({"case": 2, "samples": 3}))
    assert run_cli(["sweep", "--config", str(sweep)], capsys) == run_cli(
        ["sweep", "--quantity", "rank", "--grid", "0.3,0.4", "--family", "trig-cybe1"], capsys
    ) == (0, "v=0.3 rank=3\nv=0.4 rank=3\n", "")
    code, out, err = run_cli(["oracle", "--config", str(oracle)], capsys)
    assert (code, len(out.splitlines()), err) == (0, 5, "")
    assert run_cli(["oracle", "--case", "2", "--samples", "3"], capsys) == (code, out, err)


@pytest.mark.parametrize(
    "args,message",
    [
        (["sweep", "--family", "trig1", "--u", "0.3", "--grid", "0.4"],
         "sweep requires --quantity and --grid"),
        (["sweep", "--quantity", "C", "--family", "scalar-kronecker"],
         "sweep requires --quantity and --grid"),
        (["oracle", "--samples", "3"], "--case must be 1 or 2"),
    ],
    ids=["sweep-without-quantity", "sweep-without-grid", "oracle-without-case"],
)
def test_a_missing_subcommand_option_is_a_usage_error(args, message, capsys):
    assert run_cli(args, capsys) == (2, "", f"error: {message}\n")


# command lines whose parse by the subcommand's parser alone must match the
# full parser's: each subcommand, help, usage errors, "--" and --config forms
PARSE_CASES = [
    ["eval", "--family", "trig1", "--u", "0.1,0.2", "--v=-0.3i", "--csv"],
    ["verify", "--family", "elliptic", "--d", "3", "--r", "1", "--tau", "i", "--points", "4",
     "--check", "aybe", "--check", "rank", "--tol-aybe", "1e-9", "--seed", "5"],
    ["classify", "--family", "scalar-trig", "--radius", "1.5"],
    ["oracle", "--case", "1", "--samples", "4", "--trivialization", "constant"],
    ["sweep", "--quantity", "C", "--family", "scalar-kronecker", "--grid", "i,2i", "--out", "x"],
    ["-h"],
    ["--help"],
    ["verify", "--help"],
    ["oracle", "-h", "--case", "1"],
    ["verify", "--family", "trig1", "--bogus"],
    ["verify", "--family", "trig1", "extra"],
    ["classify", "--family", "scalar-trig", "x", "--z", "y"],
    ["verify", "--family", "trig1", "--", "--points", "2"],
    ["verify", "--"],
    ["verify", "--family", "trig1", "--c", "x"],
    ["eval", "--config", "cfg.json", "--u", "0.1"],
    ["eval", "--config=cfg.json"],
    ["eval", "--conf", "cfg.json", "--config", "other.json"],
    ["verify", "--config"],
    ["verify", "--family", "nope"],
    ["verify", "--family", "trig1", "--points", "x"],
    ["verify", "--seed", "-1"],
    ["oracle"],
    ["sweep", "--quantity", "C"],
    [],
    ["nope", "--family", "trig1"],
    ["--family", "trig1", "verify"],
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=[" ".join(a) or "<none>" for a in PARSE_CASES])
def test_the_one_parser_pass_matches_the_full_parser(argv, capsys):
    def outcome(parse):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
        return result, capsys.readouterr()

    assert outcome(aybe.cli._parse) == outcome(_build_parser().parse_args)


def test_a_subcommand_line_is_parsed_by_its_parser_alone(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("ran the full parser")

    monkeypatch.setattr(_build_parser(), "parse_known_args", unreachable)
    ns = aybe.cli._parse(["verify", "--family", "trig1", "--points", "2"])
    assert (ns.command, ns.family, ns.points, ns.func) == ("verify", "trig1", 2, aybe.cli._cmd_verify)


def test_repeated_main_calls_match_calls_on_fresh_parsers(tmp_path, capsys):
    # main builds its parsers once per process; calls that share them must
    # print and return exactly what each call does on newly built ones
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"family": "scalar-rational", "a": "2", "b": "3", "u": "0.5", "v": "0.25"}
    ))
    commands = [
        ["verify", "--family", "trig1", "--points", "4", "--seed", "3"],
        ["eval", "--family", "scalar-kronecker", "--tau", "i", "--u", "0.2", "--v", "0.3"],
        ["verify", "--family", "elliptic", "--d", "x", "--r", "1", "--tau", "i"],
        ["eval", "--config", str(cfg), "--a", "4"],
        ["eval", "--config", str(cfg)],
    ]
    fresh = []
    for args in commands:
        _build_parser.cache_clear()
        fresh.append(run_cli(args, capsys))
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 0]
    assert "invalid int value: 'x'" in fresh[2][2]
    assert [run_cli(args, capsys) for args in commands * 2] == fresh * 2


@pytest.mark.parametrize(
    "args",
    [
        ["eval", "--family", "trig1", "--v", "0.4"],                    # missing --u
        ["eval", "--family", "trig-cybe1", "--u", "0.3", "--v", "0.4"],  # extra --u
        ["eval", "--family", "elliptic", "--d", "2", "--tau", "i",
         "--u", "0.2", "--v", "0.3"],                                   # missing --r
        ["eval", "--family", "elliptic", "--d", "4", "--r", "2",
         "--tau", "i", "--u", "0.2", "--v", "0.3"],                     # gcd(d, r) != 1
        ["eval", "--family", "scalar-kronecker", "--tau", "nope",
         "--u", "0.2", "--v", "0.3"],                                   # bad token
        ["eval", "--family", "scalar-trig", "--u", "0.3"],              # missing --v
        ["verify"],                                                     # no family
    ],
)
def test_usage_errors_exit_2(args, capsys):
    code, _, err = run_cli(args, capsys)
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "args,message",
    [
        (["--quantity", "rank", "--family", "trig-cybe1", "--grid", "800"], "overflow"),
        (["--quantity", "unitarity", "--family", "trig-cybe1", "--grid", "800"], "overflow"),
        (["--quantity", "rank", "--family", "trig1", "--u", "800", "--grid", "0.3"], "overflow"),
        (["--quantity", "rank", "--family", "scalar-trig", "--u", "0.3", "--grid", "800"],
         "overflow"),
        (["--quantity", "rank", "--family", "trig-cybe1", "--grid", "inf"], "not finite"),
        (["--quantity", "unitarity", "--family", "trig-cybe1", "--grid", "inf"], "not finite"),
        (["--quantity", "rank", "--family", "scalar-rational", "--u", "inf", "--grid", "0.3"],
         "not finite"),
        (["--quantity", "unitarity", "--family", "scalar-rational", "--u", "inf",
          "--grid", "0.3"], "not finite"),
    ],
)
def test_sweep_float_errors_and_infinite_points_exit_2(args, message, capsys):
    # an overflow in an evaluation and a point at infinity are errors of the
    # input, reported as such and not as a traceback; an infinite token is
    # rejected as it is parsed
    code, out, err = run_cli(["sweep"] + args, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "args",
    [["verify", "--family", "trig1", "--seed", "-1"], ["oracle", "--case", "2", "--seed", "-1"]],
)
def test_negative_seed_is_usage_error(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith("error: argument --seed: must be non-negative, not -1")


@pytest.mark.parametrize(
    "args,message",
    [
        (["eval", "--family", "elliptic", "--d", "0", "--r", "1", "--tau", "i",
          "--u", "0.2", "--v", "0.3"], "d must be >= 1"),
        (["verify", "--family", "elliptic", "--d", "2", "--r", "1", "--tau=0.3-0.5i"],
         "elliptic families need tau with Im tau > 0"),
        (["classify", "--family", "elliptic", "--d", "2", "--r", "1", "--tau", "i"],
         "elliptic_aybe is not a scalar family"),
        (["verify", "--family", "scalar-trig", "--check", "cybe"],
         "no CYBE partner for family scalar_trig"),
    ],
)
def test_a_library_error_is_one_error_line(args, message, capsys):
    # a ValueError of the library (a bad handle, a family without a scalar
    # form or a CYBE partner) prints its message alone and exits 2
    assert run_cli(args, capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_an_unwritable_out_file_is_an_error_line(target, tmp_path, capsys):
    out = tmp_path if target == "directory" else tmp_path / "missing" / "x"
    code, stdout, err = run_cli(
        ["eval", "--family", "trig1", "--u", "0.1", "--v", "0.2", "--out", str(out)], capsys
    )
    assert (code, stdout) == (2, "")
    assert err.startswith("error: cannot write output file: ") and err.count("\n") == 1
    assert str(out) in err


def test_a_j_deviation_where_g2_cubed_minus_27_g3_squared_cancels_is_finite(capsys):
    # at tau = 8i g2^3 - 27 g3^2 cancels to zero in floats; the discriminant
    # is taken from Jacobi's product, which does not cancel
    code, out, err = run_cli(
        ["sweep", "--quantity", "j-deviation", "--family", "scalar-kronecker", "--grid", "8i",
         "--csv"],
        capsys,
    )
    assert (code, err) == (0, "")
    assert float(out.splitlines()[1].rsplit(",", 1)[1]) < 1e-6


def test_a_j_deviation_where_q_underflows_is_an_error_line(capsys):
    code, out, err = run_cli(
        ["sweep", "--quantity", "j-deviation", "--family", "scalar-kronecker", "--grid", "120i"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == "error: q = exp(2 pi i tau) underflows to 0 at tau = 120j\n"


def test_unknown_family_rejected_by_parser(capsys):
    assert main(["eval", "--family", "nope", "--u", "1", "--v", "2"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# family construction from the command line
# ---------------------------------------------------------------------------

ELLIPTIC_ARGS = ["--d", "3", "--r", "2", "--tau", "0.2+1.1i"]
FAMILY_CASES = [
    ("elliptic", ELLIPTIC_ARGS, elliptic_aybe(3, 2, 0.2 + 1.1j)),
    ("elliptic-cybe", ELLIPTIC_ARGS, elliptic_cybe(3, 2, 0.2 + 1.1j)),
    ("trig1", [], trig_aybe(1)),
    ("trig2", [], trig_aybe(2)),
    ("trig-cybe1", [], trig_cybe(1)),
    ("trig-cybe2", [], trig_cybe(2)),
    ("scalar-kronecker", ["--tau", "i"], scalar_kronecker(1j)),
    ("scalar-trig", [], scalar_trig()),
    ("scalar-rational", ["--a", "2", "--b", "0.5+i"], scalar_rational(2, 0.5 + 1j)),
]


def test_family_names_keep_their_order():
    assert FAMILY_NAMES == tuple(name for name, _, _ in FAMILY_CASES)


@pytest.mark.parametrize(
    "name,args,expected", FAMILY_CASES, ids=[c[0] for c in FAMILY_CASES]
)
def test_build_handle_matches_factory(name, args, expected):
    ns = _build_parser().parse_args(["verify", "--family", name] + args)
    assert _build_handle(ns) == expected


def test_build_handle_rational_defaults():
    ns = _build_parser().parse_args(["verify", "--family", "scalar-rational", "--b", "3"])
    assert _build_handle(ns) == scalar_rational(1.0, 3)


@pytest.mark.parametrize(
    "args,message",
    [
        (["--family", "elliptic"], "family 'elliptic' requires --d"),
        (["--family", "elliptic", "--d", "2", "--tau", "i"], "family 'elliptic' requires --r"),
        (["--family", "elliptic-cybe", "--d", "2", "--r", "1"],
         "family 'elliptic-cybe' requires --tau"),
        (["--family", "elliptic-cybe", "--r", "1", "--tau", "i"],
         "family 'elliptic-cybe' requires --d"),
        (["--family", "scalar-kronecker"], "family 'scalar-kronecker' requires --tau"),
    ],
)
def test_missing_family_argument_message(args, message, capsys):
    code, out, err = run_cli(["verify"] + args, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# byte-identical output: the exit status and the sha256 of stdout (first 16
# hex digits) of fixed commands, frozen before the verify jobs shared one
# sampling stream and summed theta with the points innermost
# ---------------------------------------------------------------------------

CLI_DIGESTS = [
    ("verify --family elliptic --d 2 --r 1 --tau=0.1+0.9i --seed 4 --points 3", 0, "6288728eaf79a4ed"),
    ("verify --family elliptic --d 3 --r 2 --tau=0.2+1.1i --seed 5 --points 4", 0, "01d38ae08d02c9ad"),
    ("verify --family elliptic --d 4 --r 3 --tau=-0.3+0.8i --seed 6 --points 3", 0, "31245259d4c9adee"),
    ("verify --family elliptic --d 5 --r 2 --tau=0.4+1.3i --seed 7 --points 2", 0, "9d881a881d4c511c"),
    ("verify --family elliptic --d 6 --r 5 --tau=0.1+0.6i --seed 8 --points 1", 0, "61d88e7c0ff85100"),
    ("verify --family elliptic --d 7 --r 3 --tau i --seed 9 --points 1 --csv", 0, "a04fdbe38fcb41bc"),
    ("verify --family elliptic-cybe --d 2 --r 1 --tau=0.3+0.7i --seed 10 --points 4", 0, "a4d2f23f003b0c31"),
    ("verify --family elliptic-cybe --d 3 --r 1 --tau=0.1+0.9i --seed 11 --points 4", 0, "9df269569cc4ce40"),
    ("verify --family elliptic-cybe --d 4 --r 1 --tau=0.2+1.4i --seed 12 --points 3 --csv", 0, "bbac049be9f4b49f"),
    ("verify --family elliptic-cybe --d 5 --r 3 --tau=-0.1+0.5i --seed 13 --points 2", 0, "c9e27e2fffc0143f"),
    ("verify --family elliptic-cybe --d 6 --r 1 --tau=0.5+1.0i --seed 14 --points 1", 0, "d3a86698688e2d05"),
    ("verify --family elliptic-cybe --d 7 --r 2 --tau=0.2+1.1i --seed 15 --points 1", 0, "f02f7acf89f9b109"),
    ("verify --family scalar-kronecker --tau=0.1+0.9i --seed 3", 0, "73b1186937397d71"),
    ("verify --family trig1 --seed 2 --points 6", 0, "b2a6c0517585df1b"),
    ("classify --family scalar-kronecker --tau=0.2+1.1i", 0, "c49a2c164a825685"),
    ("sweep --quantity C --family scalar-kronecker --grid i,0.1+0.9i --csv", 0, "788029b5ae9fa2ec"),
    ("eval --family elliptic --d 3 --r 1 --tau=0.2+1.1i --u 0.1,-0.2+0.1i,0 --v 0.3,0.05i", 0, "17f41fe32ac66beb"),
    ("eval --family trig1 --u 0,800,0.3 --v 0.5,0.4 --csv", 0, "7ef5cd7377531dc9"),
    ("eval --family elliptic-cybe --d 2 --r 1 --tau i --v 0.3,0,0.1+0.2i", 0, "0e7c21614774f427"),
    ("oracle --case 1 --seed 4 --samples 6", 0, "53a8054991354edf"),
    # frozen before the sampled checks became one record each: a FAIL run,
    # --check subsets (with the cybe-partner line), a nonzero skipped count
    ("verify --family trig2 --seed 1 --points 5", 1, "d6b462e4fa8ffbec"),
    ("verify --family elliptic --d 3 --r 1 --tau=0.2+1.1i --seed 5 --points 3"
     " --check commutator --check limit", 0, "60f0c66a2ae94003"),
    ("verify --family trig1 --seed 2 --points 4 --check cybe --check rank", 0, "a74cba7026debb9f"),
    ("verify --family scalar-trig --seed 3 --points 4 --guard 0.05", 0, "defd6a75769b3722"),
    ("verify --family trig-cybe2 --seed 3 --points 4 --csv", 0, "150a13810d3c99d8"),
    # frozen before the commands returned their lines to main: the output
    # branches no other test runs, and each tolerance flag on a FAIL run
    ("classify --family scalar-trig --radius 1.5 --csv", 0, "3411eaea2a15704a"),
    ("classify --family scalar-rational --csv", 0, "622570b1a6095b7d"),
    ("oracle --case 2 --seed 4 --samples 6 --csv", 0, "59281e48099c1c51"),
    ("oracle --case 1 --seed 3 --samples 4 --trivialization constant --csv", 0, "8c1f836c7cdb96a6"),
    ("sweep --quantity j-deviation --family scalar-kronecker --grid i,2i", 0, "87cb4ad7130c9007"),
    ("sweep --quantity rank --family trig1 --u 0.31 --grid 0.4,0.2 --csv", 0, "a80360d17b3ac628"),
    ("sweep --quantity unitarity --family trig1 --u 0.31 --grid 0.4,0.2 --csv", 0, "1f1380cbe5115c6e"),
    ("sweep --quantity unitarity --family trig1 --u 0.31 --grid 0.4,0.2 --csv --tol 1e-30", 1, "82c60f246d87a271"),
    ("sweep --quantity unitarity --family trig1 --u 0.31 --grid 0.4,0.2 --tol 1e-30", 1, "dfc7fbd81fa565bc"),
    ("verify --family trig2 --seed 1 --points 5 --tol-aybe 1e-30", 1, "aa2720df9933441f"),
    ("verify --family trig-cybe2 --seed 3 --points 4 --tol-cybe 1e-30", 1, "1874273705ac84be"),
    ("verify --family trig2 --seed 1 --points 5 --tol-unitarity 1e-30", 1, "d90ddf6a2eee72c4"),
    ("verify --family trig2 --seed 1 --points 5 --tol-limit 1e-30", 1, "7b8e33cce5b9a047"),
]


@pytest.mark.parametrize("command,code,digest", CLI_DIGESTS, ids=[c for c, _, _ in CLI_DIGESTS])
def test_cli_output_is_byte_identical(command, code, digest, capsys):
    got, out, _ = run_cli(command.split(), capsys)
    assert (got, hashlib.sha256(out.encode()).hexdigest()[:16]) == (code, digest)


# verify on handle files, frozen before the sampled checks became one record
# each: a constant gauge keeps an elliptic handle dense, and a rescale keeps
# it graded
HANDLE_DIGESTS = [
    ("dense", {**handle_to_dict(elliptic_aybe(3, 1, 0.2 + 1.1j)),
               "gauge": {"kind": "constant", "matrix": _pairs(np.diag([1.0, 1.1, 0.9]) + 0.2)}},
     "--seed 2 --points 3", "1662cb91cd8607c6"),
    ("rescaled", {**handle_to_dict(elliptic_aybe(3, 2, 0.2 + 1.1j)),
                  "rescale": [[1.2, 0.1], [0.3, 0], [1.1, 0.3], [0.9, -0.2]]},
     "--seed 4 --points 3 --csv", "e21ed3c0e40ccfa1"),
]


@pytest.mark.parametrize("name,data,args,digest", HANDLE_DIGESTS, ids=[c[0] for c in HANDLE_DIGESTS])
def test_verify_on_a_handle_file_is_byte_identical(name, data, args, digest, tmp_path, capsys):
    path = tmp_path / "handle.json"
    path.write_text(json.dumps(data))
    got, out, _ = run_cli(["verify", "--handle-json", str(path)] + args.split(), capsys)
    assert (got, hashlib.sha256(out.encode()).hexdigest()[:16]) == (0, digest)


# verify on trig_aybe(1) rescaled by c1 = 1e154, frozen once each sample was
# scaled by a power of two before its products and norms: the squared
# entries overflowed, so aybe and commutator FAILed with nan, unitarity and
# limit PASSed at max_rel 0, and numpy warned on stderr
RESCALED_1E154_DIGESTS = [("--seed 3", "67404fb69005a631"), ("--seed 3 --csv", "60a15c80b293ce25")]


@pytest.mark.parametrize("args,digest", RESCALED_1E154_DIGESTS, ids=["text", "csv"])
def test_verify_on_a_handle_rescaled_by_1e154_is_byte_identical(args, digest, tmp_path, capsys):
    path = tmp_path / "handle.json"
    rescale = [[1e154, 0], [0, 0], [1, 0], [1, 0]]
    path.write_text(json.dumps({**handle_to_dict(trig_aybe(1)), "rescale": rescale}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run_cli(["verify", "--handle-json", str(path)] + args.split(), capsys)
    assert (got, hashlib.sha256(out.encode()).hexdigest()[:16], err) == (0, digest, "")
