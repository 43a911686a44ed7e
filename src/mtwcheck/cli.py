"""Command-line front end: verdict scans, pointwise curvature, perturbation checks.

Each cmd_* returns (exit code, RunReport or None, text) and prints nothing.
Only main prints to stdout and sets wall_time_ms: it times the command and
prints the report as one JSON line under --json, the text otherwise.

The exit codes are listed in EXIT_CODES, which --help prints.  main maps an
exception by Python base class: ValueError (errors.InputError among them) or
OSError to 2, ArithmeticError (errors.NumericError, OverflowError) to 3.

The process has one argument parser, PARSER, built at import; parsing leaves
it unchanged.  Calls to main share only the heap policy that _hold_heap
sets after a check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import checker
from .checker import perturbation_check, scan_conditions
from .costs import PRESETS, make_cost
from .curvature import check_sphere_diameter, mtw_closed, mtw_via_jacobi, profile_row
from .errors import InputError, NumericError
from .expressions import parse_cost
from .geometry import SpaceForm
from .oracle import mtw_definitional

SCHEMA_VERSION = 1

EXIT_CODES = """exit codes:
  0  verdict computed and not "fails", value computed, or perturbation check holds
  1  verdict "fails", or perturbation check fails
  2  invalid input or inadmissible cost: a ValueError or an OSError
  3  numeric failure: an ArithmeticError"""

CSV_COLUMNS = ["z", "A", "B", "alpha", "beta", "gamma", "delta", "slack_min"]


@dataclass
class RunReport:
    """JSON-serializable record of one CLI invocation."""

    command: str
    cost: str
    curvature: int
    schema_version: int = SCHEMA_VERSION
    dimension: Optional[int] = None
    diameter: Optional[float] = None
    grid: Optional[int] = None
    verdict: Optional[str] = None
    witness: Optional[float] = None
    min_slacks: Optional[dict] = None
    values: Optional[dict] = None
    deviations: Optional[dict] = None
    holds: Optional[bool] = None
    wall_time_ms: float = 0.0

    def to_dict(self):
        # every field is a JSON value already, so a shallow copy is enough
        return dict(vars(self))


def _parse_vector(text, what):
    try:
        vec = np.array([float(part) for part in text.split(",")], dtype=float)
    except ValueError:
        raise InputError(f"{what} must be comma-separated numbers, got {text!r}") from None
    if not np.all(np.isfinite(vec)):
        raise InputError(f"{what} must have finite components, got {text!r}")
    return vec


# Rows formatted per write: it bounds the text and the formatter's temporaries
# held at once.  Seven grid-16384 exports in one process peaked at 33.4-33.5
# MB maxrss at 512 rows, 34.4-34.5 MB at 1024 and 35.8 MB at 2048.
CSV_CHUNK_ROWS = 512


@contextlib.contextmanager
def _write_csv(path):
    """Yield write(table), which appends a table's rows to the CSV file at path.

    The file is opened in binary mode and gets the bytes of csvtext.format_rows:
    each value as "%.17g" formats it, "," between columns and "\r\n" after
    each row, as csv.writer writes them.  The header and rows go to the new
    sibling file path + ".partial", which replaces path only when the block
    completes; if it raises, path is left as it was.  An existing file of the
    sibling's name is never overwritten.
    """
    # imported here, so that only check --csv builds the formatter's tables
    from .csvtext import format_rows

    partial = f"{path}.partial"
    fh = open(partial, "xb")
    try:
        with fh:
            fh.write((",".join(CSV_COLUMNS) + "\r\n").encode())

            def write(table):
                columns = [table[name] for name in CSV_COLUMNS]
                for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
                    rows = np.column_stack([c[start:start + CSV_CHUNK_ROWS] for c in columns])
                    fh.write(format_rows(rows, len(CSV_COLUMNS)))

            yield write
        os.replace(partial, path)
    except BaseException:
        os.remove(partial)
        raise


def _hold_heap():
    """Keep the pages a check frees mapped, so that its next scan chunk or
    CSV block, or a later check in the same process, does not fault them
    back in.

    Through glibc's mallopt, arrays below 32 MiB come from the heap
    (M_MMAP_THRESHOLD, -3), and the heap top is trimmed only above 256 MiB
    free (M_TRIM_THRESHOLD, -1).  A fixed trim threshold alone would freeze
    glibc's dynamic mmap threshold wherever earlier allocations left it.
    Where the C library has no mallopt this does nothing.  Only check calls
    it.  The policy holds for the rest of the process, so every command a
    process runs after a check (through main, as the tests and perfbench
    do) runs under it, and the process may keep up to 256 MiB of freed heap.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)
    mallopt(-1, 256 << 20)


def cmd_check(args):
    _hold_heap()
    check_sphere_diameter(args.K, args.diameter)
    cost = make_cost(args.cost, args.diameter)
    # the CSV rows are written chunk by chunk as the scan produces them
    with (_write_csv(args.csv) if args.csv else contextlib.nullcontext()) as write:
        verdict = scan_conditions(cost, args.K, args.dim, args.grid, on_chunk=write)
    report = RunReport(
        command="check", cost=cost.text, curvature=args.K, dimension=args.dim,
        diameter=args.diameter, grid=args.grid, verdict=verdict.status,
        witness=verdict.witness, min_slacks=verdict.min_slacks)
    text = (f"{verdict.status}  (min slack {min(verdict.min_slacks.values()):.3e} "
            f"at z = {verdict.witness:.6g})")
    return 0 if verdict.status in (checker.A3S, checker.A3W_ONLY) else 1, report, text


def cmd_eval(args):
    check_sphere_diameter(args.K, args.diameter)
    cost = make_cost(args.cost, args.diameter)
    form = SpaceForm(curvature=args.K, dimension=args.dim)
    vectors = [_parse_vector(text, name)
               for text, name in ((args.u, "--u"), (args.v, "--v"), (args.w, "--w"))]
    u, v, w = (form.frame_tangent(vec) for vec in vectors)
    row = None if args.method == "oracle" else profile_row(cost, form, v)
    routes = {"closed": lambda: mtw_closed(row, form, u, v, w),
              "jacobi": lambda: mtw_via_jacobi(row, form, u, v, w),
              "oracle": lambda: mtw_definitional(cost, form, form.canonical_base(), u, v, w)}
    values = {}
    for name, route in routes.items():
        if args.method in (name, "all"):
            values[name] = float(route())
            if not math.isfinite(values[name]):
                raise NumericError(f"the {name} route gave {values[name]!r}")
    # every pair of route values, or None when one route ran
    names = sorted(values)
    deviations = {f"{a}-{b}": abs(values[a] - values[b])
                  for i, a in enumerate(names) for b in names[i + 1:]} or None
    report = RunReport(
        command="eval", cost=cost.text, curvature=args.K, dimension=args.dim,
        diameter=args.diameter, values=values, deviations=deviations)
    lines = [f"{name}: {values[name]:.12g}" for name in names]
    lines += [f"|{pair}| = {deviations[pair]:.3e}" for pair in sorted(deviations or ())]
    return 0, report, "\n".join(lines)


def cmd_perturb(args):
    f = parse_cost(args.f)
    result = perturbation_check(f, args.k, args.b, grid_points=args.grid)
    report = RunReport(
        command="perturb", cost=args.f.strip(), curvature=0, grid=args.grid,
        holds=result.holds, witness=result.witness)
    text = (f"holds  (worst LHS {result.worst_lhs:.6g} < k = {args.k:.6g})" if result.holds
            else f"fails at z = {result.witness:.6g} "
                 f"(worst LHS {result.worst_lhs:.6g} >= k = {args.k:.6g})")
    return 0 if result.holds else 1, report, text


def cmd_presets(args):
    lines = [f"{'name':<16} {'expression':<22} {'curvatures':<12} known verdict"]
    for name, info in PRESETS.items():
        ks = ",".join(f"{k:+d}" for k in info.curvatures)
        lines.append(f"{name:<16} {info.text:<22} {ks:<12} {info.verdict_note}")
    lines.append("\nquartic takes its perturbation size inline: --cost 'quartic(0.001)'")
    return 0, None, "\n".join(lines)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mtwcheck",
        description="Verify weak/strong curvature conditions for radial "
                    "transport costs on constant-curvature model spaces.",
        epilog=EXIT_CODES, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--cost", required=True,
                       help="preset name, quartic(eps), or an expression in z")
        p.add_argument("--K", type=int, choices=(-1, 0, 1), required=True,
                       help="sectional curvature of the model space")
        p.add_argument("--dim", type=int, required=True, help="manifold dimension")
        p.add_argument("--diameter", type=float, default=2.0,
                       help="working diameter D (default 2.0)")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p_check = sub.add_parser("check", help="scan the coefficient inequalities")
    add_common(p_check)
    p_check.add_argument("--grid", type=int, default=4096, help=(
        "scan grid size, uniform in z = |l'(h)| on [0, |l'(D)|]: where |l'(D)| is "
        "large, neighbouring points lie far apart in h and can miss a violation"))
    p_check.add_argument("--csv", help="write per-point columns to this path")
    p_check.set_defaults(func=cmd_check)

    p_eval = sub.add_parser("eval", help="curvature at one input by any route")
    add_common(p_eval)
    p_eval.add_argument("--u", required=True, help="comma-separated frame components")
    p_eval.add_argument("--v", required=True, help="comma-separated frame components")
    p_eval.add_argument("--w", required=True, help="comma-separated frame components")
    p_eval.add_argument("--method", choices=("closed", "jacobi", "oracle", "all"),
                        default="all")
    p_eval.set_defaults(func=cmd_eval)

    p_pert = sub.add_parser("perturb", help="check the perturbation criterion")
    p_pert.add_argument("--f", required=True, help="perturbation profile, expression in z")
    p_pert.add_argument("--k", type=float, required=True, help="negative threshold")
    p_pert.add_argument("--b", type=float, required=True, help="right interval endpoint")
    p_pert.add_argument("--grid", type=int, default=1024)
    p_pert.add_argument("--json", action="store_true")
    p_pert.set_defaults(func=cmd_perturb)

    p_presets = sub.add_parser("presets", help="list the built-in cost catalog")
    p_presets.set_defaults(func=cmd_presets, json=False)
    return parser


PARSER = build_parser()


# Options whose values may start with "-" (costs such as -cosh(z), vectors
# such as -0.5,0.2, the threshold --k -1e-3), which argparse would otherwise
# read as an option flag.
_DASH_VALUE_OPTIONS = frozenset({"--cost", "--u", "--v", "--w", "--f", "--k"})


def _attach_dash_values(argv):
    """Rewrite "--v -0.5,0.2" as "--v=-0.5,0.2" for the options above.

    A following "--" token is left alone, so that a missing value is still
    reported by argparse.
    """
    out = []
    for token in argv:
        if out and out[-1] in _DASH_VALUE_OPTIONS and not token.startswith("--"):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None):
    """Run one command line (sys.argv[1:] when argv is None); return its exit code."""
    args = PARSER.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    try:
        # every non-finite value a command reports is checked where it is
        # computed, so numpy's warnings would only repeat the error message
        with np.errstate(all="ignore"):
            started = time.perf_counter()
            code, report, text = args.func(args)
        if report is not None:
            report.wall_time_ms = 1000.0 * (time.perf_counter() - started)
        print(json.dumps(report.to_dict()) if args.json else text)
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
