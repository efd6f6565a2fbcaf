"""Command line front end: dispatch, JSON shape, exit codes, determinism."""

import io
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from hypersect import is_smooth, make_field, parse_poly
from hypersect.cli import main
from hypersect.fixtures import cubic_threefold_example
from hypersect.linalg import PROBE_PRIME
from helpers import is_smooth_reference

Q = make_field(0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_moduli_dim_json(capsys):
    code, payload, _ = run_json(capsys, "moduli-dim", "--d", "3", "--n", "2")
    assert code == 0
    assert payload["schema_version"] == "1"
    assert payload["command"] == "moduli-dim"
    assert payload["request"] == {"d": 3, "n": 2}
    assert payload["result"] == {"m": 1}


def test_moduli_dim_human(capsys):
    code, out, err = run(capsys, "moduli-dim", "--d", "3", "--n", "2")
    assert code == 0
    assert out == "moduli_dim: 1\n"
    assert err.startswith("elapsed_ms:")


def test_smooth_exit_codes(capsys):
    code, payload, _ = run_json(capsys, "smooth", "--fixture", "fermat", "--n", "3", "--d", "3", "--char", "0")
    assert code == 0 and payload["result"] == {"smooth": True}
    code, payload, _ = run_json(capsys, "smooth", "--f", "x0^3", "--char", "0", "--nvars", "3")
    assert code == 1 and payload["result"] == {"smooth": False}


def test_smooth_inline_infers_nvars(capsys):
    code, payload, _ = run_json(capsys, "smooth", "--f", "x0^2 + x1^2 + x2^2", "--char", "7")
    assert code == 0
    assert payload["request"]["nvars"] == 3
    assert payload["request"]["char"] == 7


def test_smooth_honors_degree_cap(capsys):
    args = ("smooth", "--fixture", "fermat", "--n", "3", "--d", "3", "--char", "0")
    code, payload, _ = run_json(capsys, *args, "--t-max", "4")
    assert code == 1 and payload["result"]["smooth"] is False
    assert payload["request"]["t_max"] == 4
    code, payload, _ = run_json(capsys, *args, "--t-max", "5")
    assert code == 0 and payload["result"]["smooth"] is True


def test_criterion_displayed_cubic(capsys):
    code, payload, _ = run_json(
        capsys, "criterion", "--fixture", "cubic-threefold", "--char", "0", "--h", "x0"
    )
    assert code == 0
    result = payload["result"]
    assert result["status"] == "computed"
    assert result["kernel_dim"] == 2
    assert result["kernel_basis"] == ["x1", "x4"]
    assert result["criterion_form"] == "x1^2"
    assert result["graded_ideal_dim"] == 16
    assert result["hyperplane"] == "x0"


def test_criterion_inline_matches_fixture(capsys):
    _, fixture_payload, _ = run_json(
        capsys, "criterion", "--fixture", "cubic-threefold", "--char", "0", "--h", "x0"
    )
    _, inline_payload, _ = run_json(
        capsys,
        "criterion",
        "--f", "x0^3 + x1^3 + x0*x1^2 + x1*x2^2 + x3^3 + x2*x4^2",
        "--char", "0",
        "--h", "x0",
    )
    assert inline_payload["result"] == fixture_payload["result"]


def test_criterion_tilted_hyperplane(capsys):
    code, payload, _ = run_json(
        capsys, "criterion", "--fixture", "fermat", "--n", "3", "--d", "3",
        "--char", "0", "--h", "x0 + 2*x1",
    )
    assert code == 0
    assert payload["result"]["status"] == "computed"
    assert payload["request"]["h"] == "x0 + 2*x1"


@pytest.mark.parametrize(
    "text,smooth",
    [
        ("100000000000000000000*x0^3 + x1^3 + x2^3", True),
        ("x0^3 + x1^3 + x2^3 + 1/100000000000000000000*x0*x1*x2", True),
        ("100000000000000000000*x0^3 + x1^2*x2", False),  # cusp at (0:0:1)
    ],
)
def test_smooth_coefficients_beyond_int64(capsys, text, smooth):
    # scaled rows of these partials hold entries of 10^20, past int64
    code, payload, _ = run_json(capsys, "smooth", "--char", "0", "--f", text)
    assert payload["result"] == {"smooth": smooth}
    assert code == (0 if smooth else 1)


@pytest.mark.parametrize(
    "text,smooth",
    [
        (f"{PROBE_PRIME}*x0^3 + x0^2*x1 + x1^3 + x2^3 + x3^3", True),
        (f"{3 * PROBE_PRIME}*x0^3 + x0^2*x1 + x1^2*x2 + x2^3", True),
        (f"{PROBE_PRIME}*x0^3 + x0^2*x1 + x1^2*x2", False),
    ],
)
def test_smooth_leading_coefficient_divisible_by_probe_prime(capsys, text, smooth):
    # the x0-partial leads with a multiple of the probe prime, so mod the
    # probe its rows lead with a zero residue and the probe drops rank
    f = parse_poly(text, 4 if "x3" in text else 3, Q)
    assert is_smooth(f) == is_smooth_reference(f) == smooth
    code, payload, _ = run_json(capsys, "smooth", "--char", "0", "--f", text)
    assert payload["result"] == {"smooth": smooth}
    assert code == (0 if smooth else 1)


@pytest.mark.parametrize("scale", [10**20, Fraction(1, 10**20)])
def test_certify_coefficients_beyond_int64(capsys, scale):
    # a nonzero multiple of a form has the same sections and the same witness
    f = cubic_threefold_example(Q)
    text = f.scale(Q.scalar(scale)).to_text()
    code, payload, _ = run_json(capsys, "certify", "--char", "0", "--f", text)
    assert code == 0
    assert payload["result"]["verdict"] == "certified"
    assert payload["result"]["witness"] == "x0 + x1 + 2*x2 + 3*x3 + 4*x4"


def test_certify_displayed_cubic(capsys):
    code, payload, _ = run_json(capsys, "certify", "--fixture", "cubic-threefold", "--char", "0")
    assert code == 0
    result = payload["result"]
    assert result["verdict"] == "certified"
    assert result["witness"] == "x0 + x1 + 2*x2 + 3*x3 + 4*x4"
    assert result["trial_count"] == 10
    assert len(result["trials"]) == 10
    assert payload["request"]["seed"] == 0
    assert payload["request"]["budget"] == 64


def test_certify_inconclusive_exit_code(capsys):
    code, payload, _ = run_json(
        capsys, "certify", "--fixture", "fermat", "--n", "3", "--d", "3",
        "--char", "2", "--budget", "8",
    )
    assert code == 1
    assert payload["result"]["verdict"] == "inconclusive"
    assert payload["result"]["witness"] is None
    assert payload["result"]["trial_count"] == 8


def test_certify_rejects_singular_ambient(capsys):
    # the cyclic quartic threefold has a rational singular point, so there
    # is nothing to certify and the request errors out
    code, payload, err = run_json(
        capsys, "certify", "--fixture", "cyclic-fermat", "--n", "3", "--d", "4", "--char", "0"
    )
    assert code == 2
    assert payload["error"]["code"] == "SingularInput"
    assert "error[SingularInput]" in err


def test_certify_human_output(capsys):
    code, out, _ = run(capsys, "certify", "--fixture", "cubic-threefold", "--char", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verdict: certified"
    assert lines[1] == "witness: x0 + x1 + 2*x2 + 3*x3 + 4*x4"
    assert lines[2] == "trials: 10"


def test_survey_coordinate_planes(capsys):
    code, payload, _ = run_json(
        capsys, "survey", "--fixture", "cubic-threefold", "--char", "0",
        "--h", "x0", "--h", "x1", "--h", "x3",
    )
    assert code == 0
    statuses = [r["status"] for r in payload["result"]["reports"]]
    assert statuses == ["computed", "singular_section", "vacuous"]
    assert payload["request"]["h"] == ["x0", "x1", "x3"]


def test_parse_canonicalizes(capsys):
    code, payload, _ = run_json(capsys, "parse", "--f", "2/4*x0 + x1 + x0", "--char", "0")
    assert code == 0
    result = payload["result"]
    assert result["polynomial"] == "3/2*x0 + x1"
    assert result["nvars"] == 2
    assert result["degree"] == 1
    assert result["homogeneous"] is True
    assert result["term_count"] == 2


def test_parse_zero_degree_is_null(capsys):
    code, payload, _ = run_json(capsys, "parse", "--f", "x0 - x0", "--char", "0")
    assert code == 0
    assert payload["result"]["degree"] is None
    assert payload["result"]["polynomial"] == "0"


def test_fixture_command_prints_polynomial(capsys):
    code, payload, _ = run_json(capsys, "fixture", "--fixture", "cyclic-fermat", "--n", "3", "--d", "4", "--char", "0")
    assert code == 0
    assert payload["result"]["name"] == "cyclic-fermat"
    assert payload["result"]["degree"] == 4
    assert payload["result"]["polynomial"].startswith("x0^4 + x0^3*x1")


def test_fixture_normal_form(capsys):
    code, payload, _ = run_json(
        capsys, "fixture", "--fixture", "cubic-threefold-normal-form", "--char", "0",
        "--a", "1", "--a", "1", "--a", "1", "--a", "1",
        "--g", "x1*x2*x3",
    )
    assert code == 0
    assert payload["result"]["polynomial"] == (
        "x0^3 + x0*x1^2 + x0*x2^2 + x0*x3^2 + x0*x4^2 + x1*x2*x3"
    )


def test_stdin_source(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("x0^3 + x1^3 + x2^3 + x3^3\n"))
    code, payload, _ = run_json(capsys, "smooth", "--f", "-", "--char", "0")
    assert code == 0
    assert payload["result"]["smooth"] is True


def test_flag_order_does_not_matter(capsys):
    a = run_json(capsys, "smooth", "--char", "0", "--fixture", "fermat", "--n", "3", "--d", "3")
    b = run_json(capsys, "smooth", "--fixture", "fermat", "--d", "3", "--n", "3", "--char", "0")
    assert a[:2] == b[:2]


def test_json_output_is_byte_deterministic(capsys):
    args = ("certify", "--fixture", "cubic-threefold", "--char", "0", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert out1.endswith("\n") and out1.count("\n") == 1
    # keys arrive sorted so the bytes are reproducible
    payload = json.loads(out1)
    assert list(payload) == sorted(payload)


def test_timing_goes_to_stderr_not_stdout(capsys):
    _, out, err = run(capsys, "moduli-dim", "--d", "4", "--n", "3", "--json")
    assert "elapsed_ms" not in out
    assert "elapsed_ms" in err


@pytest.mark.parametrize(
    "argv,code",
    [
        (("smooth", "--fixture", "fermat", "--n", "3", "--d", "3"), "UsageError"),  # no --char
        (("smooth", "--f", "x0", "--fixture", "fermat", "--char", "0"), "UsageError"),
        (("smooth", "--char", "0"), "UsageError"),  # no source
        (("smooth", "--f", "x0^2", "--char", "6"), "CompositeCharacteristic"),
        (("smooth", "--f", "x0^2 +", "--char", "0"), "ParseError"),
        (("smooth", "--f", "x0^2", "--char", "0", "--seed", "1"), "UsageError"),
        (("criterion", "--fixture", "fermat", "--n", "3", "--d", "3", "--char", "0"), "UsageError"),
        (("survey", "--fixture", "fermat", "--n", "3", "--d", "3", "--char", "0"), "UsageError"),
        (("moduli-dim", "--d", "3"), "UsageError"),
        (("moduli-dim", "--d", "3", "--n", "2", "--char", "0"), "UsageError"),
        (("fixture", "--f", "x0^2", "--char", "0"), "UsageError"),
        (("smooth", "--f", "x0 + x5", "--char", "0", "--nvars", "2"), "UsageError"),
        (("moduli-dim", "--d", "2", "--n", "3"), "DegreeTooSmall"),
        (("certify", "--fixture", "cubic-threefold", "--char", "0", "--budget", "0"), "UsageError"),
        (("certify", "--fixture", "cubic-threefold", "--char", "0", "--budget", "-5"), "UsageError"),
        (("smooth", "--fixture", "fermat", "--n", "3", "--d", "3", "--char", "0", "--t-max", "-3"), "UsageError"),
        (("certify", "--fixture", "cubic-threefold", "--char", "0", "--t-max", "-1"), "UsageError"),
        (("criterion", "--fixture", "cubic-threefold", "--char", "0", "--h", "x0^2"), "NotHomogeneous"),
        # each fixture takes exactly the parameters of its function
        (("fixture", "--char", "0", "--fixture", "fermat", "--n", "3", "--d", "3", "--a", "1", "--g", "x1^3"),
         "UsageError"),
        (("fixture", "--char", "0", "--fixture", "cubic-threefold", "--a", "1"), "UsageError"),
        (("fixture", "--char", "0", "--fixture", "cubic-threefold-normal-form", "--a", "1", "--a", "1",
          "--a", "1", "--a", "1", "--g", "x1^3+x2^3+x3^3+x4^3", "--n", "3"), "UsageError"),
    ],
)
def test_error_paths_emit_json_and_exit_two(capsys, argv, code):
    exit_code, payload, err = run_json(capsys, *argv)
    assert exit_code == 2
    assert payload["error"]["code"] == code
    assert err.startswith(f"error[{code}]")


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_moduli_dim_past_the_digit_limit_is_a_typed_error(capsys, flags):
    """C(200000, 100000) has over 60,000 digits, past the 4,300 that Python
    converts from one integer to text by default: a typed ResourceLimit
    and exit 2, with or without --json, not a traceback, and the
    process-wide limit stays as it was."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "moduli-dim", "--d", "100000", "--n", "100000", *flags)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(previous)
    assert code == 2
    message = "moduli_dim(100000, 100000) has more than 4300 digits, the most this interpreter prints of one integer"
    assert err == f"error[ResourceLimit]: {message}\n"
    assert (json.loads(out)["error"] if flags else out) == ({"code": "ResourceLimit", "message": message} if flags else "")


def test_moduli_dim_past_the_digit_limit_refuses_at_once(capsys):
    """moduli_dim(10^6, 10^6), C(2,000,000, 1,000,000) less (n+1)^2, has
    about 600,000 digits: its lower bound refuses it within a second,
    without computing it, while the checks of d and n come first and a
    count near the limit is computed and printed exactly."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        started = time.perf_counter()
        code, payload, _ = run_json(capsys, "moduli-dim", "--d", "1000000", "--n", "1000000")
        elapsed = time.perf_counter() - started
        degree_first = run_json(capsys, "moduli-dim", "--d", "2", "--n", "10" * 1000)
        dimension_first = run_json(capsys, "moduli-dim", "--d", "10" * 1000, "--n", "0")
        near = run_json(capsys, "moduli-dim", "--d", "4000", "--n", "4000")  # 2,407 digits
        sys.set_int_max_str_digits(0)
        unlimited = run_json(capsys, "moduli-dim", "--d", "3", "--n", "1" + "0" * 4998 + "1")
    finally:
        sys.set_int_max_str_digits(previous)
    assert code == 2 and elapsed < 1.0, elapsed
    assert payload["error"]["code"] == "ResourceLimit"
    assert degree_first[1]["error"]["code"] == "DegreeTooSmall"
    assert dimension_first[1]["error"]["code"] == "DimensionTooSmall"
    assert near[0] == 0 and near[1]["result"]["m"] == math.comb(8000, 4000) - 4001**2
    n = 10**4999 + 1
    assert unlimited[0] == 0 and unlimited[1]["result"]["m"] == math.comb(n + 3, 3) - (n + 1) ** 2


def test_moduli_dim_without_the_digit_limit_function(capsys, monkeypatch):
    """Python before 3.10.7 has no sys.get_int_max_str_digits and no digit
    limit: moduli-dim reads the limit as 0 and computes exactly."""
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    code, payload, _ = run_json(capsys, "moduli-dim", "--d", "3", "--n", "2")
    assert code == 0 and payload["result"] == {"m": 1}
    code, payload, _ = run_json(capsys, "moduli-dim", "--d", "4000", "--n", "4000")  # 2,407 digits
    assert code == 0 and payload["result"]["m"] == math.comb(8000, 4000) - 4001**2
    assert run_json(capsys, "moduli-dim", "--d", "2", "--n", "3")[1]["error"]["code"] == "DegreeTooSmall"


def test_smooth_refuses_a_piece_past_physical_memory(capsys):
    """x0^3 + x1^3 in 100 variables: the cap piece has C(200, 101), about
    9.0e58, monomials, which no machine lists, so is_smooth refuses it
    with ResourceLimit and exit 2 within two seconds instead of
    enumerating them."""
    started = time.perf_counter()
    code, payload, err = run_json(capsys, "smooth", "--char", "0", "--f", "x0^3 + x1^3", "--nvars", "100")
    assert time.perf_counter() - started < 2.0
    assert code == 2 and payload["error"]["code"] == "ResourceLimit"
    assert payload["error"]["message"].startswith("the degree-101 monomials in 100 variables need more than")
    assert err.startswith("error[ResourceLimit]")


@pytest.mark.parametrize("value", ["1/0", "abc"])
def test_bad_a_value_names_the_typed_text(capsys, value):
    argv = ("fixture", "--char", "0", "--fixture", "cubic-threefold-normal-form",
            "--a", value, "--a", "1", "--a", "1", "--a", "1", "--g", "x1^3")
    exit_code, payload, err = run_json(capsys, *argv)
    assert exit_code == 2
    assert payload["error"] == {"code": "UsageError", "message": f"bad --a value '{value}'"}
    assert err.startswith(f"error[UsageError]: bad --a value '{value}'")


@pytest.mark.parametrize(
    "text, nvars, message",
    [
        ("x0^3", "0", "--nvars 0 is too few: the polynomial needs at least 1 variable for x0"),
        ("x0^3", "-1", "--nvars -1 is too few: the polynomial needs at least 1 variable for x0"),
        ("x0 + x5", "2", "--nvars 2 is too few: the polynomial needs at least 6 variables for x5"),
        ("1", "0", "--nvars 0 is too few: the polynomial needs at least 1 variable"),
    ],
)
def test_too_few_nvars_names_the_count_needed(capsys, text, nvars, message):
    exit_code, payload, err = run_json(capsys, "smooth", "--char", "0", "--nvars", nvars, "--f", text)
    assert exit_code == 2
    assert payload["error"] == {"code": "UsageError", "message": message}
    assert err.startswith(f"error[UsageError]: {message}")


def test_parser_reuse_leaks_no_state(capsys):
    # one parser serves every request in the process
    args = ("survey", "--fixture", "cubic-threefold", "--char", "0")
    assert run_json(capsys, *args, "--h", "x0")[1]["request"]["h"] == ["x0"]
    assert run_json(capsys, *args, "--h", "x1")[1]["request"]["h"] == ["x1"]
    args = ("certify", "--fixture", "cubic-threefold", "--char", "0", "--budget", "1")
    assert run_json(capsys, *args, "--seed", "3")[1]["request"]["seed"] == 3
    assert run_json(capsys, *args)[1]["request"]["seed"] == 0


SOURCE_FLAGS = ["--json", "--char", "--f", "--nvars", "--fixture", "--n", "--d", "--a", "--g"]
COMMAND_FLAGS = {
    "smooth": SOURCE_FLAGS + ["--t-max"],
    "criterion": SOURCE_FLAGS + ["--t-max", "--h"],
    "survey": SOURCE_FLAGS + ["--t-max", "--h"],
    "certify": SOURCE_FLAGS + ["--t-max", "--seed", "--budget"],
    "parse": SOURCE_FLAGS,
    "fixture": SOURCE_FLAGS,
    "moduli-dim": ["--json", "--n", "--d"],
}


@pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
def test_command_help_lists_only_its_flags(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    # option lines of the help text; "-h, --help" starts with -h
    listed = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.MULTILINE)
    assert sorted(listed) == sorted(COMMAND_FLAGS[command])


def test_module_entry_point_matches_main(capsys):
    argv = ["moduli-dim", "--d", "3", "--n", "2", "--json"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-m", "hypersect", *argv], capture_output=True, env=env, timeout=60)
    code, out, _ = run(capsys, *argv)
    assert (proc.returncode, proc.stdout) == (code, out.encode())


def test_unknown_command_is_usage_error(capsys):
    exit_code, payload, _ = run_json(capsys, "frobnicate")
    assert exit_code == 2
    assert payload["error"]["code"] == "UsageError"


def test_parse_error_carries_position(capsys):
    _, payload, _ = run_json(capsys, "parse", "--f", "x0 ++ x1", "--char", "0")
    assert payload["error"]["code"] == "ParseError"
    assert payload["error"]["position"] == 4


def test_error_without_json_prints_nothing_to_stdout(capsys):
    code, out, err = run(capsys, "smooth", "--char", "6", "--f", "x0^2")
    assert code == 2
    assert out == ""
    assert "CompositeCharacteristic" in err


# Kernel bases printed by criterion and survey, recorded as --json stdout.
# Each basis is the reduced form of the criterion map's kernel: free
# columns, leading coefficient 1.  The last two need a lift past one prime
# over Q and the Python-int path mod a prime above 2^31.
_CUBIC = "3*x0^3+x1^3-2*x2^3+x3^3+x0*x1*x2+x1*x2*x3"
KERNEL_BYTES = [
    (
        ["criterion", "--char", "0", "--fixture", "cubic-threefold", "--h", "x0"],
        '{"command":"criterion","request":{"char":0,"fixture":"cubic-threefold","h":"x0","nvars":5,"polynomial":"x0^3 + x0*x1^2 + x1^3 + x1*x2^2 + x2*x4^2 + x3^3"},"result":{"criterion_form":"x1^2","graded_ideal_dim":16,"hyperplane":"x0","kernel_basis":["x1","x4"],"kernel_dim":2,"status":"computed"},"schema_version":"1"}\n',
    ),
    (
        ["criterion", "--char", "0", "--fixture", "cubic-threefold", "--h", "x0+2*x1-x3"],
        '{"command":"criterion","request":{"char":0,"fixture":"cubic-threefold","h":"x0 + 2*x1 - x3","nvars":5,"polynomial":"x0^3 + x0*x1^2 + x1^3 + x1*x2^2 + x2*x4^2 + x3^3"},"result":{"criterion_form":"13*x1^2 - 12*x1*x3 + 3*x3^2","graded_ideal_dim":16,"hyperplane":"x0 + 2*x1 - x3","kernel_basis":["x1 - 1/15*x3"],"kernel_dim":1,"status":"computed"},"schema_version":"1"}\n',
    ),
    (
        ["criterion", "--char", "101", "--fixture", "cubic-threefold", "--h", "x0+x2"],
        '{"command":"criterion","request":{"char":101,"fixture":"cubic-threefold","h":"x0 + x2","nvars":5,"polynomial":"x0^3 + x0*x1^2 + x1^3 + x1*x2^2 + x2*x4^2 + x3^3"},"result":{"criterion_form":"x1^2 + 3*x2^2","graded_ideal_dim":16,"hyperplane":"x0 + x2","kernel_basis":["x1 + 49*x2","x4"],"kernel_dim":2,"status":"computed"},"schema_version":"1"}\n',
    ),
    (
        ["survey", "--char", "0", "--fixture", "fermat", "--n", "3", "--d", "3", "--h", "x0+x1+x2", "--h", "2*x0-x1+3*x3"],
        '{"command":"survey","request":{"char":0,"fixture":"fermat","h":["x0 + x1 + x2","x0 - 1/2*x1 + 3/2*x3"],"nvars":4,"polynomial":"x0^3 + x1^3 + x2^3 + x3^3"},"result":{"reports":[{"criterion_form":"3*x1^2 + 6*x1*x2 + 3*x2^2","graded_ideal_dim":9,"hyperplane":"x0 + x1 + x2","kernel_basis":["x1","x2"],"kernel_dim":2,"status":"computed"},{"criterion_form":"3/4*x1^2 - 9/2*x1*x3 + 27/4*x3^2","graded_ideal_dim":9,"hyperplane":"x0 - 1/2*x1 + 3/2*x3","kernel_basis":["x1","x3"],"kernel_dim":2,"status":"computed"}]},"schema_version":"1"}\n',
    ),
    (
        ["criterion", "--char", "5", "--fixture", "fermat", "--n", "3", "--d", "3", "--h", "x0+2*x1+3*x2+x3"],
        '{"command":"criterion","request":{"char":5,"fixture":"fermat","h":"x0 + 2*x1 + 3*x2 + x3","nvars":4,"polynomial":"x0^3 + x1^3 + x2^3 + x3^3"},"result":{"criterion_form":"2*x1^2 + x1*x2 + 2*x1*x3 + 2*x2^2 + 3*x2*x3 + 3*x3^2","graded_ideal_dim":9,"hyperplane":"x0 + 2*x1 + 3*x2 + x3","kernel_basis":["x2","x1 + x3"],"kernel_dim":2,"status":"computed"},"schema_version":"1"}\n',
    ),
    (
        ["criterion", "--char", "0", "--f", _CUBIC, "--h", "x0+x1-x2+2*x3"],
        '{"command":"criterion","request":{"char":0,"h":"x0 + x1 - x2 + 2*x3","nvars":4,"polynomial":"3*x0^3 + x0*x1*x2 + x1^3 + x1*x2*x3 - 2*x2^3 + x3^3"},"result":{"criterion_form":"9*x1^2 - 17*x1*x2 + 36*x1*x3 + 9*x2^2 - 36*x2*x3 + 36*x3^2","graded_ideal_dim":9,"hyperplane":"x0 + x1 - x2 + 2*x3","kernel_basis":["x1 + 79460669/72576216*x2","x1 + 4674157/5605858*x3"],"kernel_dim":2,"status":"computed"},"schema_version":"1"}\n',
    ),
    (
        ["criterion", "--char", "2147483659", "--f", _CUBIC, "--h", "x0+x1-x2+2*x3"],
        '{"command":"criterion","request":{"char":2147483659,"h":"x0 + x1 + 2147483658*x2 + 2*x3","nvars":4,"polynomial":"3*x0^3 + x0*x1*x2 + x1^3 + x1*x2*x3 + 2147483657*x2^3 + x3^3"},"result":{"criterion_form":"9*x1^2 + 2147483642*x1*x2 + 36*x1*x3 + 9*x2^2 + 2147483623*x2*x3 + 36*x3^2","graded_ideal_dim":9,"hyperplane":"x0 + x1 + 2147483658*x2 + 2*x3","kernel_basis":["x1 + 105423837*x2","x1 + 2099380876*x3"],"kernel_dim":2,"status":"computed"},"schema_version":"1"}\n',
    ),
]


@pytest.mark.parametrize("argv, stdout", KERNEL_BYTES, ids=[" ".join(argv) for argv, _ in KERNEL_BYTES])
def test_kernel_basis_bytes(capsys, argv, stdout):
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert out == stdout
