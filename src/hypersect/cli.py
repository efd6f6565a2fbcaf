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
import inspect
import json
import math
import re
import sys
import time
from fractions import Fraction
from functools import cache, partial

from . import fixtures
from .errors import HypersectError, ResourceLimit, UsageError
from .fields import FieldSpec, make_field
from .jacobian import is_smooth
from .parsing import parse_poly
from .poly import Polynomial
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
  hypersect certify --help     (the flags of one command)
"""


class _Parser(argparse.ArgumentParser):
    # argparse would print usage and exit; route everything through UsageError
    # so json mode can still emit a structured error object
    def error(self, message: str):
        raise UsageError(message)


def _int_at_least(low: int, name: str):
    """argparse type: an integer >= low; anything else reads 'invalid <name> value'."""

    def parse(text: str) -> int:
        if int(text) < low:
            raise ValueError(text)
        return int(text)

    parse.__name__ = name
    return parse


def _params(build) -> list[str]:
    return [name for name in inspect.signature(build).parameters if name != "field"]


# the source flags named after fixture parameters
_FIXTURE_PARAMS = list(dict.fromkeys(p for build in fixtures.FIXTURES.values() for p in _params(build)))


@cache
def _build_parser() -> _Parser:
    """One subcommand per command, each declaring exactly its own flags.

    Built once per process; parse_args leaves no state in the parsers.
    """
    parser = _Parser(
        prog="hypersect",
        description="Certify maximal variation of smooth hyperplane sections "
        "of a projective hypersurface, exactly, over Q or a prime field.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", required=True)
    command = partial(commands.add_parser, allow_abbrev=False)
    shared = partial(_Parser, add_help=False)
    common = shared()
    common.add_argument("--json", action="store_true", help="machine-readable report on stdout")
    source = shared(parents=[common])
    source.add_argument("--char", type=int, required=True, help="field characteristic: 0 for Q or a prime")
    source.add_argument("--f", metavar="POLY", help="inline polynomial ('-' reads stdin)")
    source.add_argument("--nvars", type=int, help="variable count override for inline --f")
    takes = ", ".join(f"{name}({', '.join(_params(build))})" for name, build in fixtures.FIXTURES.items())
    source.add_argument("--fixture", choices=sorted(fixtures.FIXTURES),
                        help=f"named example input, given exactly its parameters: {takes}")
    source.add_argument("--n", type=int, help="projective dimension (fixture parameter)")
    source.add_argument("--d", type=int, help="degree (fixture parameter)")
    source.add_argument("--a", action="append", metavar="COEFF",
                        help="quadric coefficient (fixture parameter); give four times")
    source.add_argument("--g", metavar="CUBIC", help="cubic part in x1..x4 (fixture parameter)")
    scan = shared(parents=[source])
    scan.add_argument("--t-max", type=_int_at_least(0, "nonnegative int"), dest="t_max",
                      help="lower the smoothness degree cap (values above the proven cap change nothing)")
    planes = shared(parents=[scan])
    planes.add_argument("--h", action="append", required=True, metavar="LINEAR",
                        help="hyperplane as a linear form")
    command("smooth", parents=[scan])
    command("criterion", parents=[planes])
    certify = command("certify", parents=[scan])
    certify.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    certify.add_argument("--budget", type=_int_at_least(1, "positive int"), default=64,
                         help="trial budget (default 64)")
    command("survey", parents=[planes])
    moduli = command("moduli-dim", parents=[common])
    moduli.add_argument("--n", type=int, required=True, help="projective dimension")
    moduli.add_argument("--d", type=int, required=True, help="degree")
    command("fixture", parents=[source])
    command("parse", parents=[source])
    return parser


_VAR_RE = re.compile(r"x([0-9]+)")


def _read_inline(text: str) -> str:
    return sys.stdin.read() if text == "-" else text


def _inline_nvars(text: str, override: int | None) -> int:
    used = [int(m) for m in _VAR_RE.findall(text)]
    least = max(used) + 1 if used else 1
    if override is None:
        return least
    if override < least:
        needs = f"at least {least} variable{'s' * (least > 1)}" + (f" for x{least - 1}" if used else "")
        raise UsageError(f"--nvars {override} is too few: the polynomial needs {needs}")
    return override


def _fixture_args(options: argparse.Namespace, source: str, wanted: list[str]) -> dict:
    """The fixture-parameter flags, which must be exactly `wanted`."""
    for name in _FIXTURE_PARAMS:
        given = getattr(options, name) is not None
        if given != (name in wanted):
            raise UsageError(f"{source} {'takes no' if given else 'needs'} --{name}")
    return {name: getattr(options, name) for name in wanted}


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad --a value {text!r}") from None


def _fixture_poly(options: argparse.Namespace, field: FieldSpec) -> Polynomial:
    build = fixtures.FIXTURES[options.fixture]
    args = _fixture_args(options, f"--fixture {options.fixture}", _params(build))
    if "a" in args:
        args["a"] = [_fraction(text) for text in args["a"]]
    if "g" in args:
        ambient = parse_poly(_read_inline(args["g"]), 5, field)
        if any(m[0] for m in ambient.numerators):
            raise UsageError("--g must involve only x1..x4")
        args["g"] = Polynomial(field, 4, {m[1:]: c for m, c in ambient.numerators.items()}, ambient.denominator)
    return build(**args, field=field)


def _source_poly(options: argparse.Namespace, field: FieldSpec) -> tuple[Polynomial, str | None]:
    if (options.f is None) == (options.fixture is None):
        raise UsageError("give exactly one polynomial source: --f or --fixture")
    if options.f is not None:
        _fixture_args(options, "an inline --f request", [])
        text = _read_inline(options.f)
        return parse_poly(text, _inline_nvars(text, options.nvars), field), None
    if options.nvars is not None:
        raise UsageError("--nvars only applies to inline --f input")
    return _fixture_poly(options, field), options.fixture


def _parse_hyperplanes(options: argparse.Namespace, f: Polynomial) -> list[Hyperplane]:
    return [Hyperplane(parse_poly(text, f.nvars, f.field)) for text in options.h]


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
        {"hyperplane": t.hyperplane.form.to_text(), "status": t.status.value, "kernel_dim": t.kernel_dim}
        for t in report.trials
    ]
    return {
        "verdict": report.verdict.value,
        "witness": None if report.witness is None else report.witness.form.to_text(),
        "trial_count": len(report.trials),
        "trials": trials,
    }


def _digits_past(d: int, n: int, limit: int) -> bool:
    """Whether moduli_dim(d, n), d >= 3 and n >= 1, has more than limit
    decimal digits by a lower bound, without computing it; False when
    limit is 0 (no limit) or the bound does not settle it.

    With t = min(d, n), C(n+d, d) = prod_(i<t) (n+d-i)/(t-i) >= ((n+d)/t)^t
    >= 2^t, as each factor is at least (n+d)/t >= 2.  A bound on
    log10 C(n+d, d) past limit + 2, with float error far below 0.01, gives
    C(n+d, d) > 10^641, as limit is at least 640.  Then (n+1)^2 is below
    C(n+d, d)/10: it is at most 10^640 when n+1 <= 10^320, and otherwise
    C(n+d, d) >= C(n+3, 3) >= (n+1)^3/6.  So the count C(n+d, d) - (n+1)^2
    is above 0.9*C(n+d, d) > 10^(limit+1): more than limit digits.
    """
    if not limit:
        return False
    t = min(d, n)
    if t > 4 * limit:  # 2^t > 10^(1.2*limit)
        return True
    return t * (math.log10(n + d) - math.log10(t)) > limit + 2


def _run(options: argparse.Namespace) -> tuple[dict, dict, int]:
    """Returns (request echo, result payload, exit code)."""
    command = options.command
    if command == "moduli-dim":
        # before Python 3.10.7 there is no int-to-str digit limit: read it as 0, no limit
        d, n, limit = options.d, options.n, getattr(sys, "get_int_max_str_digits", lambda: 0)()
        unprintable = ResourceLimit(
            f"moduli_dim({d}, {n}) has more than {limit} digits, the most this interpreter prints of one integer"
        )
        if d >= 3 and n >= 1 and _digits_past(d, n, limit):  # after moduli_dim's own checks
            raise unprintable
        m = moduli_dim(d, n)
        try:
            str(m)
        except ValueError as exc:  # past the interpreter's int-to-str digit limit, which stays as it is
            raise unprintable from exc
        return {"d": d, "n": n}, {"m": m}, 0

    field = make_field(options.char)
    f, fixture_name = _source_poly(options, field)
    request: dict = {"char": field.characteristic, "polynomial": f.to_text(), "nvars": f.nvars}
    if fixture_name is not None:
        request["fixture"] = fixture_name

    if command == "parse":
        degree = f.degree()
        result = {
            "polynomial": f.to_text(),
            "nvars": f.nvars,
            "degree": None if degree < 0 else degree,
            "homogeneous": f.is_homogeneous(),
            "term_count": len(f.numerators),
        }
        return request, result, 0

    if command == "fixture":
        if fixture_name is None:
            raise UsageError("the fixture command needs --fixture, not --f")
        result = {"name": fixture_name, "polynomial": f.to_text(), "nvars": f.nvars, "degree": f.degree()}
        return request, result, 0

    if options.t_max is not None:
        request["t_max"] = options.t_max

    if command == "smooth":
        verdict = is_smooth(f, t_max=options.t_max)
        return request, {"smooth": verdict}, 0 if verdict else 1

    if command == "criterion":
        if len(options.h) != 1:
            raise UsageError("criterion needs exactly one --h")
        (hyperplane,) = _parse_hyperplanes(options, f)
        request["h"] = hyperplane.form.to_text()
        report = criterion_kernel(f, hyperplane, t_max=options.t_max)
        return request, _criterion_payload(report), 0

    if command == "survey":
        planes = _parse_hyperplanes(options, f)
        request["h"] = [plane.form.to_text() for plane in planes]
        reports = survey_kernels(f, planes, t_max=options.t_max)
        return request, {"reports": [_criterion_payload(r) for r in reports]}, 0

    # certify
    request.update(seed=options.seed, budget=options.budget)
    strategy = ScanStrategy(seed=options.seed, trial_budget=options.budget)
    report = certify_max_variation(f, strategy, t_max=options.t_max)
    return request, _certify_payload(report), 0 if report.witness is not None else 1


def _emit_json(**fields) -> None:
    report = {"schema_version": SCHEMA_VERSION, **fields}
    print(json.dumps(report, sort_keys=True, separators=(",", ":")))


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
        try:
            request, result, code = _run(options)
        except MemoryError as exc:  # an allocation no require_memory estimate covers
            raise ResourceLimit(f"the request ran out of memory: {exc}") from None
    except HypersectError as exc:
        error = {"code": exc.code, "message": str(exc)}
        position = getattr(exc, "position", None)
        if position is not None:
            error["position"] = position
        if json_mode:
            _emit_json(error=error)
        print(f"error[{error['code']}]: {error['message']}", file=sys.stderr)
        return 2
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if json_mode:
        _emit_json(command=options.command, request=request, result=result)
    else:
        for line in _human_lines(options.command, result):
            print(line)
    print(f"elapsed_ms: {elapsed_ms:.1f}", file=sys.stderr)
    return code
