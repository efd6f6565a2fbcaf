"""Command line front end.

Parses one request, dispatches to the library, and emits either a human
summary or a versioned JSON report.  JSON goes to stdout and is byte
identical across runs with the same arguments and seed; timing is a
diagnostic and goes to stderr.  Exit codes: 0 for certified / smooth /
successful computation, 1 for inconclusive or negative verdicts, 2 for
any input error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from . import fixtures
from .errors import HypersectError, UsageError
from .fields import FieldSpec, make_field
from .jacobian import is_smooth
from .parsing import parse_poly
from .poly import Polynomial, set_var_zero
from .variation import (
    CertifyReport,
    CriterionReport,
    Hyperplane,
    ScanStrategy,
    certify_max_variation,
    criterion_kernel,
    moduli_dim,
    survey_kernels,
)

SCHEMA_VERSION = "1"

_COMMANDS = ("smooth", "criterion", "certify", "survey", "moduli-dim", "fixture", "parse")

_SOURCE_COMMANDS = {"smooth", "criterion", "certify", "survey", "parse"}

_EPILOG = """\
polynomial grammar:
  expression:  ['+'|'-'] term (('+'|'-') term)*
  term:        coefficient ('*' factor)* | factor ('*' factor)*
  factor:      x<k> ['^' <exponent>]
  coefficient: <integer> | <integer>/<integer>   (fractions need --char 0)

Variables are x0, x1, x2, ...; multiplication is always written with '*'
(write 2*x0^2*x1, not 2x0^2x1).  The variable count of an inline
polynomial is inferred from the highest index used unless --nvars says
otherwise.  Section-side outputs (criterion_form, kernel basis) are
printed in the hyperplane coordinates x1..xn; to re-parse them, keep the
ambient variable count.

examples:
  hypersect smooth --char 0 --f "x0^3 + x1^3 + x2^3 + x3^3"
  hypersect criterion --char 5 --fixture cyclic-fermat --n 4 --d 3 --h "x0"
  hypersect certify --char 0 --fixture fermat --n 3 --d 4 --budget 32 --json
  hypersect survey --char 0 --f "x0^3+x1^3+x2^3+x3^3" --h "x0" --h "x0 + x1"
  hypersect moduli-dim --d 3 --n 2
"""


class _Parser(argparse.ArgumentParser):
    # argparse would print usage and exit; route everything through UsageError
    # so json mode can still emit a structured error object
    def error(self, message: str):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="hypersect",
        description="Certify maximal variation of smooth hyperplane sections "
        "of a projective hypersurface, exactly, over Q or a prime field.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    parser.add_argument("command", choices=_COMMANDS, help="what to compute")
    parser.add_argument("--char", type=int, default=None, help="field characteristic: 0 for Q or a prime")
    parser.add_argument("--f", default=None, metavar="POLY", help="inline polynomial ('-' reads stdin)")
    parser.add_argument("--fixture", default=None, choices=sorted(fixtures.FIXTURES), help="named example input")
    parser.add_argument("--n", type=int, default=None, help="projective dimension (fixtures, moduli-dim)")
    parser.add_argument("--d", type=int, default=None, help="degree (fixtures, moduli-dim)")
    parser.add_argument("--a", action="append", default=None, metavar="COEFF",
                        help="quadric coefficient for cubic-threefold-normal-form; give four times")
    parser.add_argument("--g", default=None, metavar="CUBIC",
                        help="cubic part in x1..x4 for cubic-threefold-normal-form")
    parser.add_argument("--h", action="append", default=None, metavar="LINEAR",
                        help="hyperplane as a linear form; repeatable for survey")
    parser.add_argument("--nvars", type=int, default=None, help="variable count override for inline input")
    parser.add_argument("--seed", type=int, default=None, help="certify: RNG seed (default 0)")
    parser.add_argument("--budget", type=int, default=None, help="certify: trial budget (default 64)")
    parser.add_argument("--t-max", type=int, default=None, dest="t_max",
                        help="override the smoothness scan degree cap")
    parser.add_argument("--json", action="store_true", help="machine-readable report on stdout")
    return parser


_VAR_RE = re.compile(r"x([0-9]+)")


def _reject(options: argparse.Namespace, names: list[str], command: str) -> None:
    for name in names:
        if getattr(options, name.lstrip("-").replace("-", "_")) is not None:
            raise UsageError(f"{name} does not apply to '{command}'")


def _read_inline(text: str) -> str:
    if text == "-":
        return sys.stdin.read()
    return text


def _inline_nvars(text: str, override: int | None) -> int:
    used = [int(m) for m in _VAR_RE.findall(text)]
    least = max(used) + 1 if used else 1
    if override is None:
        return least
    if override < least:
        raise UsageError(f"--nvars {override} is below the highest variable index used")
    return override


def _field_of(options: argparse.Namespace) -> FieldSpec:
    if options.char is None:
        raise UsageError("--char is required")
    return make_field(options.char)


def _fixture_poly(options: argparse.Namespace, field: FieldSpec) -> Polynomial:
    name = options.fixture
    if name in ("fermat", "cyclic-fermat"):
        if options.n is None or options.d is None:
            raise UsageError(f"--fixture {name} needs --n and --d")
        build = fixtures.fermat if name == "fermat" else fixtures.cyclic_fermat
        return build(options.n, options.d, field)
    if name == "cubic-threefold":
        if options.n is not None or options.d is not None:
            raise UsageError("--fixture cubic-threefold takes no --n or --d")
        return fixtures.cubic_threefold_example(field)
    if options.a is None or options.g is None:
        raise UsageError(f"--fixture {name} needs --a (four times) and --g")
    try:
        coeffs = [Fraction(text) for text in options.a]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --a value: {exc}") from None
    ambient = parse_poly(_read_inline(options.g), 5, field)
    if any(m[0] for m in ambient.terms):
        raise UsageError("--g must involve only x1..x4")
    return fixtures.cubic_threefold_normal_form(coeffs, set_var_zero(ambient, 0), field)


def _source_poly(options: argparse.Namespace, field: FieldSpec) -> tuple[Polynomial, str | None]:
    if (options.f is None) == (options.fixture is None):
        raise UsageError("give exactly one polynomial source: --f or --fixture")
    if options.f is not None:
        _reject(options, ["--n", "--d", "--a", "--g"], "an inline --f request")
        text = _read_inline(options.f)
        return parse_poly(text, _inline_nvars(text, options.nvars), field), None
    if options.nvars is not None:
        raise UsageError("--nvars only applies to inline --f input")
    return _fixture_poly(options, field), options.fixture


def _parse_hyperplanes(options: argparse.Namespace, f: Polynomial) -> list[Hyperplane]:
    return [
        Hyperplane(parse_poly(text, f.nvars, f.field)) for text in options.h
    ]


def _criterion_payload(report: CriterionReport) -> dict:
    kernel = report.kernel_basis
    return {
        "hyperplane": report.hyperplane.form.to_text(),
        "status": report.status.value,
        "criterion_form": None if report.criterion_form is None else report.criterion_form.to_text(var_start=1),
        "kernel_basis": None if kernel is None else [l.to_text(var_start=1) for l in kernel],
        "kernel_dim": report.kernel_dim,
        "graded_ideal_dim": report.graded_ideal_dim,
    }


def _certify_payload(report: CertifyReport) -> dict:
    trials = [
        {
            "hyperplane": trial.hyperplane.form.to_text(),
            "status": trial.status.value,
            "kernel_dim": trial.kernel_dim,
        }
        for trial in report.trials
    ]
    return {
        "verdict": report.verdict.value,
        "witness": None if report.witness is None else report.witness.form.to_text(),
        "trial_count": len(report.trials),
        "trials": trials,
    }


def _run(options: argparse.Namespace) -> tuple[dict, dict, int]:
    """Returns (request echo, result payload, exit code)."""
    command = options.command
    if command == "moduli-dim":
        _reject(options, ["--char", "--f", "--fixture", "--h", "--seed", "--budget",
                          "--t-max", "--nvars", "--a", "--g"], command)
        if options.d is None or options.n is None:
            raise UsageError("moduli-dim needs --d and --n")
        request = {"d": options.d, "n": options.n}
        return request, {"m": moduli_dim(options.d, options.n)}, 0

    field = _field_of(options)
    f, fixture_name = _source_poly(options, field)
    request: dict = {"char": field.characteristic, "polynomial": f.to_text(), "nvars": f.nvars}
    if fixture_name is not None:
        request["fixture"] = fixture_name

    if command == "parse":
        _reject(options, ["--h", "--seed", "--budget", "--t-max"], command)
        degree = f.degree()
        result = {
            "polynomial": f.to_text(),
            "nvars": f.nvars,
            "degree": None if degree < 0 else degree,
            "homogeneous": f.is_homogeneous(),
            "term_count": len(f.terms),
        }
        return request, result, 0

    if command == "fixture":
        _reject(options, ["--h", "--seed", "--budget", "--t-max"], command)
        if fixture_name is None:
            raise UsageError("the fixture command needs --fixture, not --f")
        result = {
            "name": fixture_name,
            "polynomial": f.to_text(),
            "nvars": f.nvars,
            "degree": f.degree(),
        }
        return request, result, 0

    if options.t_max is not None:
        if options.t_max < 0:
            raise UsageError(f"--t-max must be a nonnegative degree, got {options.t_max}")
        request["t_max"] = options.t_max

    if command == "smooth":
        _reject(options, ["--h", "--seed", "--budget"], command)
        verdict = is_smooth(f, t_max=options.t_max)
        return request, {"smooth": verdict}, 0 if verdict else 1

    if command == "criterion":
        _reject(options, ["--seed", "--budget"], command)
        if options.h is None or len(options.h) != 1:
            raise UsageError("criterion needs exactly one --h")
        (hyperplane,) = _parse_hyperplanes(options, f)
        request["h"] = hyperplane.form.to_text()
        report = criterion_kernel(f, hyperplane, t_max=options.t_max)
        return request, _criterion_payload(report), 0

    if command == "survey":
        _reject(options, ["--seed", "--budget"], command)
        if not options.h:
            raise UsageError("survey needs at least one --h")
        planes = _parse_hyperplanes(options, f)
        request["h"] = [plane.form.to_text() for plane in planes]
        reports = survey_kernels(f, planes, t_max=options.t_max)
        return request, {"reports": [_criterion_payload(r) for r in reports]}, 0

    # certify
    _reject(options, ["--h"], command)
    if options.budget is not None and options.budget <= 0:
        raise UsageError(f"--budget must be a positive trial count, got {options.budget}")
    strategy = ScanStrategy(
        seed=0 if options.seed is None else options.seed,
        trial_budget=64 if options.budget is None else options.budget,
    )
    request["seed"] = strategy.seed
    request["budget"] = strategy.trial_budget
    report = certify_max_variation(f, strategy, t_max=options.t_max)
    code = 0 if report.witness is not None else 1
    return request, _certify_payload(report), code


def _emit_json(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _human_lines(command: str, result: dict) -> list[str]:
    if command == "survey":
        lines = []
        for rep in result["reports"]:
            tail = "" if rep["kernel_dim"] is None else f"  kernel_dim={rep['kernel_dim']}"
            lines.append(f"{rep['hyperplane']}: {rep['status']}{tail}")
        return lines
    if command == "certify":
        lines = [f"verdict: {result['verdict']}"]
        if result["witness"] is not None:
            lines.append(f"witness: {result['witness']}")
        lines.append(f"trials: {result['trial_count']}")
        return lines
    if command == "moduli-dim":
        return [f"moduli_dim: {result['m']}"]
    skip = {"trials", "reports"}
    lines = []
    for key, value in result.items():
        if key in skip or value is None:
            continue
        if isinstance(value, list):
            value = ", ".join(str(v) for v in value) or "(empty)"
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key}: {value}")
    return lines


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    json_mode = "--json" in argv
    started = time.perf_counter()
    try:
        options = _build_parser().parse_args(argv)
        request, result, code = _run(options)
    except HypersectError as exc:
        error = {"code": exc.code, "message": str(exc)}
        position = getattr(exc, "position", None)
        if position is not None:
            error["position"] = position
        if json_mode:
            _emit_json({"schema_version": SCHEMA_VERSION, "error": error})
        print(f"error[{error['code']}]: {error['message']}", file=sys.stderr)
        return 2
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if json_mode:
        _emit_json(
            {
                "schema_version": SCHEMA_VERSION,
                "command": options.command,
                "request": request,
                "result": result,
            }
        )
    else:
        for line in _human_lines(options.command, result):
            print(line)
    print(f"elapsed_ms: {elapsed_ms:.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
