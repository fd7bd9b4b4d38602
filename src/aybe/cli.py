"""Command line interface for evaluating and checking the solution families.

Subcommands
-----------
``eval``
    Tensor values of a named family at explicit points.
``verify``
    Seeded residual checks with one PASS/FAIL summary line per check.
``classify``
    Laurent data (c3, c5, C) of a scalar family.
``oracle``
    Nodal-curve composites against the closed trigonometric forms on
    random, seeded parameter sets.
``sweep``
    One scalar quantity (C, j-relation deviation, rank, unitarity
    residual) tabulated over an explicit parameter grid.

Conventions
-----------
Complex tokens are parsed as ``re+imj`` with ``i`` accepted as the
imaginary unit (``i``, ``2i``, ``0.5+0.9i``).  The value of ``--u``,
``--v``, ``--tau``, ``--grid``, ``--a`` or ``--b`` may start with ``-``,
either as the next argument (``--u -0.3i``) or attached (``--u=-0.3i``):
a next argument that starts with ``-`` and then a digit, ``.``, ``i`` or
``j`` is taken as that option's value.  ``--check`` takes a
comma-separated list too.  A command line is parsed once: when its first
token names a subcommand, by that subcommand's parser alone, with the
full parser's usage error for what is left over; any other command line
(none, ``-h``, an unknown command) by the full parser.  The subcommand's
parser also reads ``--config``, a JSON object whose keys name long
options of the subcommand (with dashes or underscores; true stands for a
bare flag, false and null for none, a list for a comma-separated value).
Only then is the command line parsed again, with the file's options
right after the subcommand, so explicit flags override them.  Output
goes to stdout or ``--out`` and is byte-identical for a fixed
(configuration, seed): points are processed in input/grid order and all
numbers use fixed formats.

Exit status: 0 when every requested check passed, 1 when at least one
check failed, 2 on any failure: a configuration or usage error, an
output file that cannot be written, or a typed numerical failure (a
domain violation, or a procedure that did not converge, such as
rejection sampling that ran out of draws).  Every failure prints one
``error:`` line on stderr and nothing on stdout.  Pole-proximate
evaluation points (``pole-proximity``) and points whose value overflows a
float (``overflow``) are reported per point and do not change the exit
status.  Each ``_cmd_*`` function returns its output lines and exit
status; :func:`main` alone writes output and maps failures.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .curve import TRIVIALIZATIONS, composite_stack, tensors_from_maps
from .errors import DomainError, NonConvergenceError, PoleProximityError
from .series import _TRIG_POINT, INFINITY, classify_scalar
from .solutions import (
    _FAMILIES,
    SolutionHandle,
    _domain_mask,
    eval_aybe,
    eval_aybe_array,
    eval_cybe,
    eval_cybe_array,
    handle_from_dict,
    paired_cybe_handle,
    scalar_kronecker,
    trig_aybe,
)
from .special import j_invariant, modular_param
from .tensors import _ranks_as_maps
from .verify import (
    CHECK_NAMES,
    SuiteConfig,
    _max_abs,
    _unitarity_residuals,
    check_cybe,
    run_suite,
)

__all__ = ["CliError", "main", "parse_complex"]


class CliError(ValueError):
    """Configuration problem that maps to exit status 2."""


# ---------------------------------------------------------------------------
# tokens and formatting
# ---------------------------------------------------------------------------

def parse_complex(token: str) -> complex:
    """Parse ``re+imj`` tokens, ``i`` for the imaginary unit; inf or nan is a usage error."""
    text = str(token).strip().replace(" ", "")
    if not text:
        raise CliError("empty complex token")
    if text.endswith("i") and not text.endswith("j"):
        text = text[:-1] + "j"
    if text in ("j", "+j"):
        text = "1j"
    elif text == "-j":
        text = "-1j"
    elif text.endswith(("+j", "-j")):
        text = text[:-1] + "1j"
    try:
        value = complex(text)
    except ValueError as exc:
        raise CliError(f"bad complex token {token!r}") from exc
    if not np.isfinite(value):
        raise CliError(f"complex token {token!r} is not finite")
    return value


# options whose value is a complex token or a comma-separated list of them
_COMPLEX_OPTIONS = ("--u", "--v", "--tau", "--grid", "--a", "--b")


def _attach_negative_values(argv: List[str]) -> List[str]:
    """Write ``--u -0.3i`` as ``--u=-0.3i``: argparse reads a separate
    argument that starts with ``-`` and is not a plain number as an option."""
    out: List[str] = []
    k = 0
    while k < len(argv):
        tok = argv[k]
        nxt = argv[k + 1] if k + 1 < len(argv) else ""
        if tok in _COMPLEX_OPTIONS and nxt[:1] == "-" and nxt[1:2] in tuple("0123456789.ij"):
            out.append(f"{tok}={nxt}")
            k += 2
        else:
            out.append(tok)
            k += 1
    return out


def _tokens(arg: str) -> List[str]:
    items = [t for t in str(arg).split(",") if t.strip()]
    if not items:
        raise CliError(f"empty token list {arg!r}")
    return items


def _fmt_f(x: float) -> str:
    return f"{float(x):.12e}"


def _fmt_c(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.12e}{z.imag:+.12e}j"


def _write(lines: Sequence[str], out: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write output file: {exc}") from exc


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------

# command line name -> SolutionHandle.family, in the registry's order
_CLI_FAMILIES = {
    spec.cli_name: family for family, spec in _FAMILIES.items() if spec.cli_name
}
FAMILY_NAMES = tuple(_CLI_FAMILIES)
# parser of each handle field a family's cli_args may name; a and b are optional
_ARG_TYPES = {
    "d": int, "r": int, "tau": parse_complex, "a": parse_complex, "b": parse_complex
}
_OPTIONAL_ARGS = ("a", "b")


def _build_handle(ns: argparse.Namespace) -> SolutionHandle:
    if ns.handle_json:
        try:
            data = json.loads(Path(ns.handle_json).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read handle file: {exc}") from exc
        try:
            return handle_from_dict(data)
        except (ValueError, KeyError, TypeError) as exc:
            raise CliError(f"bad handle file: {exc}") from exc
    name = ns.family
    if name is None:
        raise CliError("one of --family or --handle-json is required")
    family = _CLI_FAMILIES[name]
    spec = _FAMILIES[family]
    fields = {} if spec.n is None else {"d": spec.n}
    for arg in spec.cli_args:
        value = getattr(ns, arg)
        if value is None:
            if arg in _OPTIONAL_ARGS:
                continue
            raise CliError(f"family {name!r} requires --{arg}")
        fields[arg] = _ARG_TYPES[arg](value)
    return SolutionHandle(family=family, **fields)


def _add_family_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", choices=FAMILY_NAMES, help="solution family")
    sub.add_argument("--d", type=int, help="matrix size d for elliptic families")
    sub.add_argument("--r", type=int, help="twist index r for elliptic families")
    sub.add_argument("--tau", help="modular parameter, e.g. i or 0.5+0.9i")
    sub.add_argument("--a", help="u-pole coefficient of scalar-rational")
    sub.add_argument("--b", help="v-pole coefficient of scalar-rational")
    sub.add_argument("--handle-json", help="JSON file with a serialized solution handle")


def _seed(token: str) -> int:
    """A --seed value: numpy's generators take non-negative integers only."""
    try:
        seed = int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, not {seed}")
    return seed


def _add_common_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file supplying subcommand options")
    sub.add_argument("--out", help="output file (default: stdout)")
    sub.add_argument("--csv", action="store_true", help="CSV output with header row")
    sub.add_argument("--seed", type=_seed, default=0, help="RNG seed for sampled checks")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _eval_status(h: SolutionHandle, u: Optional[complex], v: complex):
    """The value of ``h`` at one point, or the status that replaces it."""
    try:
        return (eval_cybe(h, v) if u is None else eval_aybe(h, u, v)).coeffs
    except (PoleProximityError, DomainError, ZeroDivisionError):
        return "pole-proximity"
    except OverflowError:
        # a value too large for a float, which need not be near a pole
        return "overflow"


def _eval_points(h: SolutionHandle, points: list) -> list:
    """The (n, n, n, n) value at each (u, v) point, or its status: every
    point that keeps clear of the polar set by 1e-9 in one array call, and
    one point at a time only when that call raises, so that each point
    gets its own status."""
    us, vs = [p[0] for p in points], [p[1] for p in points]
    clear = _domain_mask(h, us, vs, 1e-9).tolist()
    out: list = ["pole-proximity"] * len(points)
    taken = [k for k, ok in enumerate(clear) if ok]
    try:
        if h.is_cybe:
            values = eval_cybe_array(h, [vs[k] for k in taken])
        else:
            values = eval_aybe_array(h, [us[k] for k in taken], [vs[k] for k in taken])
    except (PoleProximityError, DomainError, ZeroDivisionError, OverflowError):
        values = [_eval_status(h, *points[k]) for k in taken]
    for k, value in zip(taken, values):
        out[k] = value
    return out


def _cmd_eval(ns: argparse.Namespace) -> Tuple[List[str], int]:
    h = _build_handle(ns)
    if ns.v is None:
        raise CliError("eval requires --v")
    v_values = [parse_complex(t) for t in _tokens(ns.v)]
    if h.is_cybe:
        if ns.u is not None:
            raise CliError(f"family {h.family} takes only --v")
        points = [(None, v) for v in v_values]
    else:
        if ns.u is None:
            raise CliError(f"family {h.family} requires --u")
        u_values = [parse_complex(t) for t in _tokens(ns.u)]
        points = [(u, v) for u in u_values for v in v_values]

    n = h.n
    lines: List[str] = []
    if ns.csv:
        lines.append("u_re,u_im,v_re,v_im,i,j,k,l,re,im,status")
    for (u, v), coeffs in zip(points, _eval_points(h, points)):
        if ns.csv:
            head = ("," if u is None else f"{u.real!r},{u.imag!r}") + f",{v.real!r},{v.imag!r}"
        else:
            head = f"point v={_fmt_c(v)}" if u is None else f"point u={_fmt_c(u)} v={_fmt_c(v)}"
        if isinstance(coeffs, str):
            lines.append(f"{head},,,,,,,{coeffs}" if ns.csv else f"{head} n={n} {coeffs}")
            continue
        entries = zip(itertools.product(range(n), repeat=4), coeffs.reshape(-1).tolist())
        if ns.csv:
            for (i, j, k, l), z in entries:
                lines.append(f"{head},{i},{j},{k},{l},{z.real!r},{z.imag!r},ok")
        else:
            lines.append(f"{head} n={n}")
            for (i, j, k, l), z in entries:
                lines.append(f"  [{i},{j},{k},{l}] = {_fmt_c(z)}")
    return lines, 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _suite_config(ns: argparse.Namespace, checks: Optional[tuple]) -> SuiteConfig:
    config = SuiteConfig(seed=ns.seed, checks=checks)
    overrides = {
        name: getattr(ns, name)
        for name in ("tol_aybe", "tol_cybe", "tol_unitarity", "tol_limit", "guard")
        if getattr(ns, name) is not None
    }
    n = ns.points
    if n is not None:
        if n <= 0:
            raise CliError("--points must be positive")
        overrides.update(
            n_aybe=n, n_cybe=n, n_unitarity=n, n_rank=min(n, 5), n_limit=min(n, 5)
        )
    return replace(config, **overrides) if overrides else config


def _cmd_verify(ns: argparse.Namespace) -> Tuple[List[str], int]:
    h = _build_handle(ns)
    requested = tuple(t for arg in ns.check for t in _tokens(arg)) if ns.check else None
    config = _suite_config(ns, requested)
    reports = run_suite(h, config)
    if requested and "cybe" in requested and not h.is_cybe:
        # On a two-variable family the one-variable equation is checked on
        # the u -> 0 partner solution.
        rep = check_cybe(paired_cybe_handle(h), config)
        reports.append(replace(rep, tag="cybe-partner"))
    if not reports:
        raise CliError("no requested check applies to this family")

    lines: List[str] = []
    if ns.csv:
        lines.append("tag,points,skipped,max_abs,max_rel,tolerance,passed")
        for rep in reports:
            lines.append(
                f"{rep.tag},{len(rep.points)},{rep.skipped},"
                f"{rep.max_abs_residual!r},{rep.max_rel_residual!r},"
                f"{rep.tolerance!r},{int(rep.passed)}"
            )
    else:
        lines.extend(rep.summary_line() for rep in reports)
    return lines, 0 if all(rep.passed for rep in reports) else 1


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _cmd_classify(ns: argparse.Namespace) -> Tuple[List[str], int]:
    result = classify_scalar(_build_handle(ns), radius=ns.radius)
    if result.C is None:
        c_str = "none"
    elif result.C == INFINITY:
        c_str = "infinity"
    else:
        c_str = _fmt_c(result.C)
    if ns.csv:
        lines = [
            "verdict,c3_re,c3_im,c5_re,c5_im,C_re,C_im",
            (
                f"{result.family_verdict},{result.c3.real!r},{result.c3.imag!r},"
                f"{result.c5.real!r},{result.c5.imag!r},"
                + (
                    f"{complex(result.C).real!r},{complex(result.C).imag!r}"
                    if result.C not in (None, INFINITY)
                    else f"{c_str},{c_str}"
                )
            ),
        ]
    else:
        lines = [
            f"verdict={result.family_verdict}",
            f"c3={_fmt_c(result.c3)}",
            f"c5={_fmt_c(result.c5)}",
            f"C={c_str}",
        ]
    return lines, 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

# the bounds of one sample's 14 uniform draws, in draw order: |Re s|, the
# sign of Re s (positive below 0.5) and Im s; the same three for t; then
# Re and Im of w1, w2, g1 and g2
_ORACLE_LOW, _ORACLE_HIGH = np.array([
    (0.35, 1.2), (0.0, 1.0), (-1.0, 1.0),
    (0.35, 1.2), (0.0, 1.0), (-1.0, 1.0),
    (-0.4, 0.4), (-0.8, 0.8), (-0.4, 0.4), (-0.8, 0.8),
    (-0.3, 0.3), (-0.5, 0.5), (-0.3, 0.3), (-0.5, 0.5),
]).T


def _oracle_samples(rng: np.random.Generator, n: int) -> np.ndarray:
    """Cut-safe parameter draws: all logs stay well inside the principal
    branch so the exp-sqrt framing factors compose exactly.

    Rows s, t, w1, w2, g1, g2, one column per sample, from one call that
    reads the stream as 14 scalar draws per sample would."""
    draws = rng.uniform(np.tile(_ORACLE_LOW, n), np.tile(_ORACLE_HIGH, n)).reshape(n, 14)
    draws[:, [0, 3]] *= np.where(draws[:, [1, 4]] < 0.5, 1.0, -1.0)
    samples = np.empty((n, 6), dtype=complex)
    samples.real = draws[:, [0, 3, 6, 8, 10, 12]]
    samples.imag = draws[:, [2, 5, 7, 9, 11, 13]]
    return samples.T


def _cmd_oracle(ns: argparse.Namespace) -> Tuple[List[str], int]:
    case, samples = ns.case, ns.samples
    if case not in (1, 2):
        raise CliError("--case must be 1 or 2")
    if samples <= 0:
        raise CliError("--samples must be positive")
    constant = ns.trivialization == "constant"
    closed = trig_aybe(case)
    tol_closed = 1e-10
    tol_dep = 1e-12

    rng = np.random.default_rng(ns.seed)
    s, t, w1, w2, g1, g2 = _oracle_samples(rng, samples)
    l1, l2, y1, y2 = np.exp(w1), np.exp(w1 - s), np.exp(w2), np.exp(w2 - t)
    tensor = tensors_from_maps(composite_stack(l1, l2, y1, y2, case, ns.trivialization))
    shift1, shift2 = np.exp(g1), np.exp(g2)
    tensor2 = tensors_from_maps(composite_stack(
        l1 * shift1, l2 * shift1, y1 * shift2, y2 * shift2, case, ns.trivialization
    ))
    dep_devs = _max_abs(tensor2 - tensor) / np.maximum(_max_abs(tensor), 1e-30)
    if constant:
        closed_devs = [None] * samples
    else:
        ref = eval_aybe_array(closed, s, t)
        closed_devs = _max_abs(tensor - ref) / np.maximum(_max_abs(ref), 1e-30)
    rows = [
        (k, None if dev is None else float(dev), float(dep))
        for k, (dev, dep) in enumerate(zip(closed_devs, dep_devs))
    ]

    lines: List[str] = []
    if ns.csv:
        lines.append("sample,closed_rel,dependence_rel")
        for k, dev, dep in rows:
            dev_str = "" if dev is None else repr(dev)
            lines.append(f"{k},{dev_str},{dep!r}")
    else:
        for k, dev, dep in rows:
            if dev is None:
                lines.append(f"sample {k:02d}: dependence_rel={_fmt_f(dep)}")
            else:
                lines.append(
                    f"sample {k:02d}: closed_rel={_fmt_f(dev)} "
                    f"dependence_rel={_fmt_f(dep)}"
                )
    max_dep = float(dep_devs.max())
    if constant:
        lines.append(
            f"flag=expected-dependence-failure max_dependence_rel={_fmt_f(max_dep)} "
            "(constant trivialization leaves the composite tied to the raw "
            "parameters; not a check failure)"
        )
        return lines, 0
    max_closed = float(closed_devs.max())
    ok_closed = max_closed < tol_closed
    ok_dep = max_dep < tol_dep
    lines.append(
        f"{'PASS' if ok_closed else 'FAIL'} closed-form: "
        f"max_rel={_fmt_f(max_closed)} tol={tol_closed:.1e}"
    )
    lines.append(
        f"{'PASS' if ok_dep else 'FAIL'} dependence: "
        f"max_rel={_fmt_f(max_dep)} tol={tol_dep:.1e}"
    )
    return lines, 0 if (ok_closed and ok_dep) else 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _cmd_sweep(ns: argparse.Namespace) -> Tuple[List[str], int]:
    quantity = ns.quantity
    if quantity is None or ns.grid is None:
        raise CliError("sweep requires --quantity and --grid")
    grid_tokens = _tokens(ns.grid)
    grid = [parse_complex(t) for t in grid_tokens]
    lines: List[str] = []

    if quantity in ("C", "j-deviation"):
        if ns.family != "scalar-kronecker":
            raise CliError(
                f"sweep {quantity} expects --family scalar-kronecker "
                "(the grid is a list of tau values)"
            )
        if ns.csv:
            lines.append(
                "tau,C_re,C_im,deviation" if quantity == "j-deviation"
                else "tau,C_re,C_im"
            )
        for token, tau in zip(grid_tokens, grid):
            c_val = complex(classify_scalar(scalar_kronecker(tau), radius=ns.radius).C)
            if quantity == "C":
                if ns.csv:
                    lines.append(f"{token},{c_val.real!r},{c_val.imag!r}")
                else:
                    lines.append(f"tau={token} C={_fmt_c(c_val)}")
            else:
                j = j_invariant(modular_param(tau))
                target = _TRIG_POINT * (1.0 - 1728.0 / j)
                dev = abs(c_val - target)
                if ns.csv:
                    lines.append(f"{token},{c_val.real!r},{c_val.imag!r},{dev!r}")
                else:
                    lines.append(
                        f"tau={token} C={_fmt_c(c_val)} deviation={_fmt_f(dev)}"
                    )
        return lines, 0

    h = _build_handle(ns)
    u = None
    if not h.is_cybe:
        if ns.u is None:
            raise CliError(f"sweep {quantity} on family {h.family} requires --u")
        u = parse_complex(ns.u)

    clear = _domain_mask(h, [u] * len(grid), grid, 1e-9)
    if not clear.all():
        token = grid_tokens[clear.argmin()]
        at = f"v={token}" if u is None else f"u={ns.u}, v={token}"
        raise DomainError(f"evaluation point {at} hits a pole of {h.family}")

    if quantity == "rank":
        if ns.csv:
            lines.append("v,rank")
        values = eval_cybe_array(h, grid) if u is None else eval_aybe_array(h, u, grid)
        for token, rank in zip(grid_tokens, _ranks_as_maps(values)):
            lines.append(f"{token},{rank}" if ns.csv else f"v={token} rank={rank}")
        return lines, 0

    # unitarity
    tol = 1e-10 if ns.tol is None else ns.tol
    if ns.csv:
        lines.append("v,residual,passed")
    all_ok = True
    residuals = _max_abs(_unitarity_residuals(h, [(u, v) for v in grid]))
    for token, residual in zip(grid_tokens, map(float, residuals)):
        ok = residual < tol
        all_ok = all_ok and ok
        if ns.csv:
            lines.append(f"{token},{residual!r},{int(ok)}")
        else:
            lines.append(
                f"v={token} residual={_fmt_f(residual)} "
                f"{'PASS' if ok else 'FAIL'}"
            )
    if not ns.csv:
        lines.append(
            f"{'PASS' if all_ok else 'FAIL'} unitarity sweep: tol={tol:.1e}"
        )
    return lines, 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The full parser, built once per process: parsing leaves it unchanged.

    ``parser.commands`` maps each subcommand to the parser ``add_parser``
    returned for it, which :func:`_parse` runs alone."""
    parser = argparse.ArgumentParser(
        prog="aybe",
        description="Evaluate, verify, classify and sweep Yang-Baxter solution families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="tensor values at explicit points")
    _add_family_args(p_eval)
    _add_common_args(p_eval)
    p_eval.add_argument("--u", help="comma-separated u tokens (two-variable families)")
    p_eval.add_argument("--v", help="comma-separated v tokens")
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="seeded residual checks")
    _add_family_args(p_verify)
    _add_common_args(p_verify)
    p_verify.add_argument(
        "--check",
        action="append",
        metavar="NAME",
        help=f"checks to run, comma-separated and repeatable; each one of {', '.join(CHECK_NAMES)}",
    )
    p_verify.add_argument("--points", type=int, help="sample count override")
    p_verify.add_argument("--tol-aybe", type=float, dest="tol_aybe")
    p_verify.add_argument("--tol-cybe", type=float, dest="tol_cybe")
    p_verify.add_argument("--tol-unitarity", type=float, dest="tol_unitarity")
    p_verify.add_argument("--tol-limit", type=float, dest="tol_limit")
    p_verify.add_argument("--guard", type=float, help="pole-distance guard")
    p_verify.set_defaults(func=_cmd_verify)

    p_classify = sub.add_parser("classify", help="Laurent data of a scalar family")
    _add_family_args(p_classify)
    _add_common_args(p_classify)
    p_classify.add_argument(
        "--radius", type=float, default=0.3, help="contour radius for v-expansions"
    )
    p_classify.set_defaults(func=_cmd_classify)

    p_oracle = sub.add_parser(
        "oracle", help="curve composites vs closed trigonometric forms"
    )
    _add_common_args(p_oracle)
    p_oracle.add_argument("--case", type=int, help="bundle case, 1 or 2")
    p_oracle.add_argument("--samples", type=int, default=20)
    p_oracle.add_argument(
        "--trivialization", choices=TRIVIALIZATIONS, default="exp-sqrt"
    )
    p_oracle.set_defaults(func=_cmd_oracle)

    p_sweep = sub.add_parser("sweep", help="tabulate a quantity over a grid")
    _add_family_args(p_sweep)
    _add_common_args(p_sweep)
    p_sweep.add_argument("--quantity", choices=("C", "j-deviation", "rank", "unitarity"))
    p_sweep.add_argument("--grid", help="comma-separated grid tokens (tau or v values)")
    p_sweep.add_argument("--u", help="fixed u token for two-variable families")
    p_sweep.add_argument("--tol", type=float, help="pass threshold for unitarity")
    p_sweep.add_argument(
        "--radius", type=float, default=0.3, help="contour radius for C sweeps"
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    parser.commands = {
        "eval": p_eval, "verify": p_verify, "classify": p_classify,
        "oracle": p_oracle, "sweep": p_sweep,
    }
    return parser


def _parse(argv: List[str]) -> argparse.Namespace:
    """What ``_build_parser().parse_args(argv)`` returns or raises, in one
    parser pass when ``argv[0]`` names a subcommand: the full parser would
    hand everything after it to that subcommand's parser and refuse what
    that parser leaves over."""
    parser = _build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # no argv, -h or an unknown command
        return parser.parse_args(argv)
    ns, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return ns


def _config_tokens(path: str) -> List[str]:
    """Turn a JSON config file into CLI tokens (prepended, so real flags win)."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config file: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError("config file must hold a JSON object")
    tokens: List[str] = []
    for key, value in data.items():
        flag = "--" + str(key).replace("_", "-")
        if isinstance(value, bool):
            if value:
                tokens.append(flag)
        elif isinstance(value, list):
            tokens.extend([flag, ",".join(str(item) for item in value)])
        elif value is None:
            continue
        else:
            tokens.extend([flag, str(value)])
    return tokens


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = _parse(_attach_negative_values(argv))
        if ns.config:
            # argv[0] is the subcommand: the file's options go right after
            # it, so explicit flags override them
            argv[1:1] = _config_tokens(ns.config)
            ns = _parse(_attach_negative_values(argv))
        lines, code = ns.func(ns)
        _write(lines, ns.out)
        return code
    except SystemExit as exc:  # argparse: usage errors and --help
        return int(exc.code or 0)
    # every ValueError (CliError, DomainError, PoleProximityError and the
    # library's bad-input errors), a procedure that did not converge, and
    # the float errors of a family evaluation (solutions._FLOAT_ERRORS);
    # any other exception is a bug and keeps its traceback
    except (ValueError, NonConvergenceError, OverflowError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
