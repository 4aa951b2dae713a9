import contextlib
import io
import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from radixgraph import cli, expansion
from radixgraph.expansion import Fraction, long_division_oracle
from radixgraph.export import format_expansion

ROOT = Path(__file__).resolve().parents[1]
# M = 10 * 461168601842738853 - 1 is just above the factorization cap
ABOVE_CAP_N = "461168601842738853"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_default_base(capsys):
    code, out, err = run(capsys, "expand", "1/39")
    assert code == 0 and err == ""
    assert out == "0.‾025641 (base 10)\n"


def test_expand_dozenal_ascii(capsys):
    code, out, _ = run(capsys, "expand", "7/20", "--base", "12", "--ascii")
    assert code == 0
    assert out == "0.4(2497)_12\n"


def test_expand_integer(capsys):
    code, out, _ = run(capsys, "expand", "5/1")
    assert code == 0
    assert out == "5\n"


def test_expand_trace(capsys):
    code, out, _ = run(capsys, "expand", "7/20", "--base", "12", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0.4‾2497 (base 12)"
    assert lines[1] == "reduction: shift=1 integer=0 preperiod_value=4 tail=1/5 multiplier=7 n=3"
    assert lines[2] == "period trace of 7/35:"
    assert lines[-1].split() == ["4", "|", "7", "|", "7"]


def test_expand_trace_walks_the_period_once(capsys, monkeypatch):
    walks = []
    real_walk = expansion._walk

    def counting_walk(*args):
        walks.append(args)
        return real_walk(*args)

    monkeypatch.setattr(expansion, "_walk", counting_walk)
    code, out, _ = run(capsys, "expand", "1/10069", "--trace")
    assert code == 0
    assert len(walks) == 1
    assert out.splitlines()[2] == "period trace of 1/10069:"
    assert len(out.splitlines()) == 3 + 1 + 10068


@pytest.mark.parametrize(
    "argv,walks",
    [
        # 2 and 12 have order 62980 mod the prime 62981; in base 12 the
        # digits need the walk, as no conversion writes them
        (("expand", "1/62981", "--base", "2"), 0),
        (("expand", "1/62981", "--base", "2", "--trace"), 1),
        (("expand", "1/62981", "--base", "12"), 1),
        (("expand", "1/62981", "--base", "12", "--trace"), 1),
        (("trace", "1", "31491", "--base", "2"), 1),
        (("trace", "1", "31491", "--base", "2", "--reverse"), 1),
    ],
)
def test_a_long_period_is_walked_only_when_its_remainders_are_read(capsys, monkeypatch, argv, walks):
    calls = []
    real_walk = expansion._walk

    def counting_walk(*args):
        calls.append(args)
        return real_walk(*args)

    monkeypatch.setattr(expansion, "_walk", counting_walk)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == walks
    if argv[0] == "expand":
        base = int(argv[3])
        want = format_expansion(long_division_oracle(Fraction(1, 62981), base))
        assert out.splitlines()[0] == want
    if "--trace" in argv or argv[0] == "trace":
        # one table row per stop of the one walk, whose last argument is its length
        head = {"expand": 4, "trace": 1}[argv[0]] + ("--reverse" in argv)
        assert len(out.splitlines()) == head + calls[0][-1]


def test_expand_trace_terminating(capsys):
    code, out, _ = run(capsys, "expand", "1/4", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0.25 (base 10)"
    assert lines[1] == "reduction: shift=2 integer=0 preperiod_value=25 tail=0/1"
    assert len(lines) == 2


def test_census_command(capsys):
    code, out, _ = run(capsys, "census", "4", "--base", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[0] == "d"
    assert lines[1].split() == ["1", "|", "1", "|", "1", "|", "1"]
    assert lines[-1].split() == ["39", "|", "6", "|", "24", "|", "4"]


def _refused_by_factorize(capsys, *argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_CAPACITY
    assert out == "" and err.startswith("error: refusing to factor 4611686018427388529 > cap")


def test_census_cap_override(capsys):
    _refused_by_factorize(capsys, "census", ABOVE_CAP_N)


def _refused_by_period_cap(capsys, *argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_CAPACITY
    assert out == "" and err.startswith("error: refusing to walk the period")
    assert "more than 1000000 digits" in err


def test_trace_above_factorization_cap(capsys):
    # trace factors nothing, so M above the factorization cap is walked,
    # and the walk from 1 is refused by the period cap
    _refused_by_period_cap(capsys, "trace", "1", ABOVE_CAP_N)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("expand", "1/2000113"), id="argv0-2000112"),
        pytest.param(("expand", "1/1000000007"), id="argv1-1000000006"),
        pytest.param(("expand", "1/1000000007", "--trace"), id="argv2-1000000006"),
        pytest.param(("trace", "1", "600034"), id="argv3-2000112"),
        pytest.param(("trace", "1", "600034", "--reverse"), id="argv4-2000112"),
    ],
)
def test_period_above_cap_is_refused(capsys, argv):
    # each id ends in the length of the period that is refused
    _refused_by_period_cap(capsys, *argv)


@pytest.mark.parametrize(
    "argv",
    [("expand", f"1/{10**3999 + 7}"), ("trace", "1", str(10**3999 + 3)), ("trace", "1", str(10**3999 + 3), "--reverse")],
)
def test_period_of_a_4000_digit_modulus_is_refused(capsys, argv):
    # each stop of these walks is a 4000-digit int, so the step limit is
    # PERIOD_BITS // M.bit_length(), a few thousand
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_CAPACITY
    assert out == "" and err.startswith("error: refusing to walk the period")
    m = int(err.split("/", 1)[1].split(":", 1)[0])
    assert f"more than {expansion.PERIOD_BITS // m.bit_length()} digits" in err


# B = 10^4299 has 4300 digits, the most an argv integer may have; a
# remainder or modulus built from two such numbers has more, and str()
# refuses those
_B = str(10**4299)


@pytest.mark.parametrize(
    "argv,code,err_start",
    [
        (("expand", f"1/{10**4299 + 3}", "--base", _B), 4, "error: refusing to walk the period of"),
        (("trace", "1", str(10**4299 + 7), "--base", _B), 4, "error: refusing to walk the period of 1/"),
        (("trace", "-1", _B, "--base", _B), 3, "error: vertex -1 out of range"),
        (("census", _B, "--base", _B), 4, "error: refusing to factor"),
        (("graph", _B, "--base", _B), 4, "error: graph has"),
    ],
    ids=["expand", "trace", "trace-bad-vertex", "census", "graph"],
)
def test_refusal_names_a_modulus_over_4300_digits(capsys, argv, code, err_start):
    start = time.perf_counter()
    got, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert got == code
    assert out == "" and err.startswith(err_start) and "Traceback" not in err


def test_a_remainder_over_4300_digits_is_written_out_exactly(capsys):
    # the walk of 10^2199 + 1 under B = 10^2200 stops at 10^4399 + 10^2200, then back at 10^2199 + 1
    start = time.perf_counter()
    code, out, err = run(capsys, "trace", str(10**2199 + 1), str(10**2200), "--base", str(10**2200))
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    rows = [line.split(" | ") for line in out.splitlines()[1:]]
    assert [r[1].strip() for r in rows] == ["1" + "0" * 2198 + "1" + "0" * 2200, "1" + "0" * 2198 + "1"]


def test_expand_trace_of_a_preperiod_value_over_4300_digits(capsys):
    code, out, err = run(capsys, "expand", f"1/{2**14000}", "--trace")
    assert code == 0 and err == ""
    line = out.splitlines()[1]
    assert line.startswith("reduction: shift=14000 integer=0 preperiod_value=") and line.endswith(" tail=0/1")
    value = line.split("preperiod_value=")[1].split()[0]
    assert int(Decimal(value)) == 5**14000


@pytest.mark.parametrize(
    "m,base", [("999999999999999999999999999999", 10), ("9999999999999999999", 10), ("2305843009213693951", 2)]
)
def test_expand_short_period_of_a_large_denominator(capsys, m, base):
    # 10^30 - 1, 10^19 - 1 and 2^61 - 1: periods of 30, 19 and 61 digits,
    # which the walk finds without factoring anything
    start = time.perf_counter()
    code, out, err = run(capsys, "expand", f"1/{m}", "--base", str(base))
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert out == format_expansion(long_division_oracle(Fraction(1, int(m)), base)) + "\n"


def test_expand_period_modulus_above_factorization_cap(capsys):
    # M = 9 * (10^18 + 1) is above 2^62, and expand factors nothing
    code, out, err = run(capsys, "expand", "1/1000000000000000001")
    assert code == 0 and err == ""
    want = long_division_oracle(Fraction(1, 10**18 + 1), 10)
    assert len(want.period) == 36
    assert out == format_expansion(want) + "\n"


def test_graph_json_all_fixed_points(capsys):
    # 10 = 1 mod 9, so every vertex of the n=1 graph is fixed
    code, out, _ = run(capsys, "graph", "1", "--base", "10", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["modulus"] == 9
    assert len(doc["cycles"]) == 9
    assert all(len(c) == 1 for c in doc["cycles"])


def test_trace_forward(capsys):
    code, out, _ = run(capsys, "trace", "1", "4", "--base", "10")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [r[2] for r in rows] == ["10", "22", "25", "16", "4", "1"]
    assert [r[4] for r in rows] == ["0", "2", "5", "6", "4", "1"]


def test_trace_reverse(capsys):
    code, out, _ = run(capsys, "trace", "1", "4", "--base", "10", "--reverse")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:-1]]
    assert [r[2] for r in rows] == ["1", "4", "16", "25", "22", "10"]
    assert out.splitlines()[-1] == "(digits read right to left)"


def test_graph_dot(capsys):
    code, out, _ = run(capsys, "graph", "4", "--base", "10")
    assert code == 0
    edges = [l for l in out.splitlines() if "->" in l]
    assert len(edges) == 39


def test_graph_json(capsys):
    code, out, _ = run(capsys, "graph", "12", "--base", "10", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["modulus"] == 119
    assert [row["d"] for row in doc["census"]] == [1, 7, 17, 119]


def test_graph_table_with_labels(capsys):
    code, out, _ = run(capsys, "graph", "3", "--base", "12", "--format", "table")
    assert code == 0
    assert out == (
        "cycle | length | vertices\n"
        "    0 |      1 | 0\n"
        "    1 |     12 | 1 12 4 13 16 17 29 33 11 27 9 3\n"
        "    2 |     12 | 2 24 8 26 32 34 23 31 22 19 18 6\n"
        "    3 |      6 | 5 25 20 30 10 15\n"
        "    4 |      4 | 7 14 28 21\n"
    )
    # the table honours --labels base and marks --highlight
    code, out, _ = run(capsys, "graph", "3", "--base", "12", "--format", "table", "--labels", "base", "--highlight", "7")
    assert code == 0
    assert out == (
        "cycle | length | vertices\n"
        "    0 |      1 | 0\n"
        "    1 |     12 | 1 10 4 11 14 15 25 29 b 23 9 3\n"
        "    2 |     12 | 2 20 8 22 28 2a 1b 27 1a 17 16 6\n"
        "    3 |      6 | 5 21 18 26 a 13\n"
        "    4 |      4 | 7* 12 24 19\n"
    )
    # and refuses a highlight outside the graph, as dot and json do
    code, out, err = run(capsys, "graph", "3", "--format", "table", "--highlight", "99999")
    assert code == cli.EXIT_VALIDATION
    assert out == "" and err == "error: highlight vertex 99999 out of range [0, 29)\n"


def test_graph_deterministic(capsys):
    _, first, _ = run(capsys, "graph", "12", "--base", "10")
    _, second, _ = run(capsys, "graph", "12", "--base", "10")
    assert first == second


def test_sweep_ok(capsys):
    code, out, _ = run(capsys, "sweep", "20", "--bases", "10,12")
    assert code == 0
    cases = 2 * sum(2 * m + 1 for m in range(1, 21))
    assert out == f"{cases} cases, 0 mismatches\n"


def test_sweep_mismatch_exit_code(capsys, monkeypatch):
    # force a disagreement to prove the failure path is wired through
    from radixgraph import expansion

    def broken(f, base):
        result = long_division_oracle(f, base)
        return result if f != Fraction(3, 7) else long_division_oracle(Fraction(2, 7), base)

    monkeypatch.setattr(expansion, "long_division_oracle", broken)
    code, out, _ = run(capsys, "sweep", "7", "--bases", "10")
    assert code == cli.EXIT_MISMATCH
    assert "mismatch at 3/7 base 10" in out


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "expand", "three/four")
    assert code == cli.EXIT_PARSE
    assert "error:" in err


def test_overlong_integer_is_a_parse_error(capsys):
    code, out, err = run(capsys, "expand", "1/" + "7" * 4400)
    assert code == cli.EXIT_PARSE
    assert out == "" and err.startswith("error:")
    assert "Traceback" not in err


def test_expand_above_factorization_cap_terminates(capsys):
    # 1/2^70: the denominator is above the factorization cap but is all base primes
    code, out, err = run(capsys, "expand", f"1/{2**70}", "--base", "2")
    assert code == 0 and err == ""
    assert out == "0." + "0" * 69 + "1 (base 2)\n"


# B = 2 * 3^400 has 635 bits, so PREPERIOD_BITS = 2^16 allows a shift of 103
_B635 = str(2 * 3**400)


@pytest.mark.parametrize(
    "m,base", [(str(2**103), _B635), (str(3 * 2**103), _B635), (str(2**14000), "10")], ids=["2^103", "3*2^103", "2^14000"]
)
def test_preperiod_under_its_cap_matches_oracle(capsys, m, base):
    code, out, err = run(capsys, "expand", f"1/{m}", "--base", base)
    assert code == 0 and err == ""
    assert out == format_expansion(long_division_oracle(Fraction(1, int(m)), int(base))) + "\n"


@pytest.mark.parametrize("m", [str(2**104), str(2**1000)], ids=["2^104", "2^1000"])
def test_preperiod_above_its_cap_is_refused(capsys, m):
    start = time.perf_counter()
    code, out, err = run(capsys, "expand", f"1/{m}", "--base", _B635)
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_CAPACITY
    assert out == "" and err == "error: refusing a preperiod of more than 103 digits (the preperiod cap)\n"


def test_bad_base_list_exit_code(capsys):
    code, _, err = run(capsys, "sweep", "5", "--bases", "10,x")
    assert code == cli.EXIT_PARSE


def test_zero_denominator_exit_code(capsys):
    code, _, err = run(capsys, "expand", "1/0")
    assert code == cli.EXIT_VALIDATION
    assert "not a fraction" in err


def test_vertex_out_of_range_exit_code(capsys):
    code, _, err = run(capsys, "trace", "39", "4", "--base", "10")
    assert code == cli.EXIT_VALIDATION


def test_capacity_exit_code(capsys):
    code, _, err = run(capsys, "graph", "200000", "--base", "10")
    assert code == cli.EXIT_CAPACITY
    assert "error:" in err


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_demo_script_runs():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "demo_expansions.py")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "0.4(2497)_12" in done.stdout


# Sizes at a cap are run in the default base 10 only. In another base the
# same number can mean a period just under the period cap (seconds and
# hundreds of MB with --trace) or a modulus just under 2^62 (minutes of
# trial division).
_AT_A_CAP = [
    "1/2000113",
    "1/1000000007",
    "1/1000000000000000001",
    "1/999999999999999999999999999999",
    ABOVE_CAP_N,
    "600034",
]
_fractions = st.one_of(
    st.builds("{}/{}".format, st.integers(0, 10**6), st.integers(0, 3000)),
    st.sampled_from(_AT_A_CAP[:4] + ["1/0", "x/3", "-1/3", "1/3/"]),
    st.text("0123456789/-x", max_size=8),
)


def _num(lo, hi):
    return st.integers(lo, hi).map(str)


@st.composite
def _argv(draw):
    """argv for one subcommand, with values inside and outside its domain."""

    def base(arg):
        return [] if arg in _AT_A_CAP else ["--base", draw(_num(-3, 60))]

    cmd = draw(st.sampled_from(["expand", "census", "graph", "trace", "sweep", "garbage"]))
    if cmd == "expand":
        f = draw(_fractions)
        return ["expand", f, *base(f), *draw(st.lists(st.sampled_from(["--trace", "--ascii"]), unique=True))]
    if cmd == "census":
        n = draw(st.one_of(_num(-2, 10**5), st.just(ABOVE_CAP_N)))
        return ["census", n, *base(n)]
    if cmd == "graph":
        options = ["--format=json", "--format=table", "--format=png", "--labels=base"]
        flags = draw(st.lists(st.sampled_from(options), max_size=2))
        flags += draw(st.lists(st.builds("--highlight={}".format, st.integers(-2, 5000)), max_size=1))
        return ["graph", draw(_num(-2, 300)), "--base", draw(_num(-2, 40)), *flags]
    if cmd == "trace":
        n = draw(st.one_of(_num(-2, 2000), st.just("600034")))
        return ["trace", draw(_num(-2, 10**4)), n, *base(n), *draw(st.lists(st.just("--reverse"), max_size=1))]
    if cmd == "sweep":
        return ["sweep", draw(_num(-1, 6)), "--bases", draw(st.text("0123456789,x-", min_size=1, max_size=6))]
    words = ["expand", "census", "graph", "trace", "sweep", "--base", "7", "1/7", "-1", "x"]
    return draw(st.lists(st.sampled_from(words)))


@given(_argv())
@settings(deadline=None, max_examples=300)
def test_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: usage on stderr, exit 2
            code = exc.code
    assert code in (0, 2, 3, 4, 5), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code in (2, 3, 4):
        assert "error:" in err.getvalue(), argv
    if code == 0:
        assert err.getvalue() == "", argv
