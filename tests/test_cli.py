import csv
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from parteq.bijection import phi
from parteq.classes import ClassParams, count_partitions, enumerate_A, enumerate_partitions, members_by_k
from parteq import cli
from parteq.cli import main
from parteq.errors import ParteqError
from parteq.qseries import TruncatedSeries, lhs_series, rhs_series

from conftest import EMPTY, weight

LAMBDA_1 = "15^2 12 11 9 8 7^4 6^2 5 3 2^2 1"
KAPPA_1 = "21 18 11 8 7^4 5 4^3 3^3 2^5 1"
KAPPA_2 = "20 17 14^4 7^2 6 4^9 3^7 2^8 1^3"
LAMBDA_2 = "24 21 20 17 15 14^4 9 7^2 2^5 1^3"

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_map_forward_example_1(capsys):
    code, out, _ = run(capsys, "map", LAMBDA_1, "--params", "123,7,3,4")
    assert code == 0
    assert out.strip() == KAPPA_1


def test_map_inverse_example_2(capsys):
    code, out, _ = run(capsys, "map", KAPPA_2, "--params", "189,4,3,7", "--inverse")
    assert code == 0
    assert out.strip() == LAMBDA_2


def test_map_trace_output(capsys):
    code, out, _ = run(capsys, "map", LAMBDA_1, "--params", "123,7,3,4", "--trace")
    assert code == 0
    doc = json.loads(out)
    assert doc["kappa"] == KAPPA_1
    assert doc["epsilon"] == "21 18"
    assert doc["delta"] == "11 8 7^4 5 2^2 1"


# sha256 of `parteq map --trace` stdout on both golden examples; any
# change to the trace's fields, their order or their rendering shows here
@pytest.mark.parametrize(
    "argv, digest",
    [
        pytest.param([LAMBDA_1, "--params", "123,7,3,4"],
                     "4beb221c5dbc4f7cba915fc863c1bb17cdb726e2eaeed7413098aaf15123fd55", id="lambda-1-forward"),
        pytest.param([KAPPA_2, "--params", "189,4,3,7", "--inverse"],
                     "5303630087ba34a13e991d4f003e716c94c9dacf165930191110e9fec3f2ddd4", id="kappa-2-inverse"),
    ],
)
def test_map_trace_bytes_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "map", *argv, "--trace")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_map_not_in_class(capsys):
    code, out, err = run(capsys, "map", "1", "--params", "7,2,2,4")
    assert code == 1
    assert json.loads(err)["error"] == "NotInClassA"


def test_map_parse_error(capsys):
    code, _, err = run(capsys, "map", "3 0", "--params", "7,2,2,4")
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"


def test_map_overlong_params_integer_is_one_short_line(capsys):
    code, out, err = run(capsys, "map", "3", "--params", "3,1,2," + "9" * 5000)
    assert (code, out) == (2, "")
    assert len(err.encode()) < 200 and err.count("\n") == 1
    assert json.loads(err)["error"] == "DomainError"


def test_verify_overlong_range_integer_is_one_short_line(capsys):
    code, out, err = run(capsys, "verify", "--n", "9" * 5000, "--k", "1", "--d", "2", "--m", "1")
    assert (code, out) == (2, "")
    assert len(err.encode()) < 200 and err.count("\n") == 1
    assert json.loads(err)["error"] == "DomainError"


def test_count_enumerate(capsys):
    code, out, _ = run(capsys, "count", "--params", "7,2,2,4", "--class", "A", "--method", "enumerate")
    assert code == 0
    assert out.strip() == "3"


def test_count_series(capsys):
    code, out, _ = run(capsys, "count", "--params", "7,2,2,7", "--class", "B", "--method", "series")
    assert code == 0
    assert out.strip() == "3"


@pytest.mark.parametrize("cls", ["A", "B"])
def test_count_series_at_max_degree(capsys, cls):
    # q^n is read by index at n = MAX_DEGREE. At k = 1, d = 2, m = 1, A is one
    # even part plus ones and B is parts <= 2 with at least two 1s: floor(n/2) each
    code, out, _ = run(capsys, "count", "--params", "1000000,1,2,1", "--class", cls, "--method", "series")
    assert code == 0
    assert out.strip() == "500000"


def test_count_methods_agree(capsys):
    values = []
    for method in ("enumerate", "series"):
        code, out, _ = run(capsys, "count", "--params", "6,1,3,2", "--class", "A", "--method", method)
        assert code == 0
        values.append(out.strip())
    assert values[0] == values[1]


def test_count_budget_exceeded(capsys):
    code, _, err = run(capsys, "count", "--params", "40,1,2,4", "--class", "A", "--budget", "10")
    assert code == 3
    assert json.loads(err)["error"] == "BudgetExceeded"


def test_series_eq2_both_branches(capsys):
    code, out, _ = run(capsys, "series", "--k", "7", "--d", "3", "--m", "4", "--N", "60")
    assert code == 0 and "agree" in out
    code, out, _ = run(capsys, "series", "--k", "4", "--d", "3", "--m", "7", "--N", "60")
    assert code == 0 and "agree" in out


def test_series_eq1(capsys):
    code, out, _ = run(capsys, "series", "--eq1", "--k", "3", "--N", "100")
    assert code == 0 and "agree" in out


def test_verify_monthly_row(capsys):
    code, out, _ = run(capsys, "verify", "--n", "7", "--k", "2", "--d", "2", "--m", "4..8", "--json")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert len(records) == 5
    for rec in records:
        assert rec["count_A"] == rec["count_B"] == 3
        assert rec["coeff_lhs"] == rec["coeff_rhs"] == 3
        assert rec["bijection"] is True
        assert rec["pass"] is True


def test_verify_trivial_point(capsys):
    code, out, _ = run(capsys, "verify", "--n", "0", "--k", "1", "--d", "2", "--m", "1", "--json")
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["count_A"] == rec["count_B"] == 0
    assert rec["pass"] is True


def test_verify_budget_error_is_per_point(capsys):
    code, out, _ = run(capsys, "verify", "--n", "0..45", "--k", "1", "--d", "2", "--m", "2",
                       "--budget", "1000", "--json")
    assert code == 3
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert any("error" in rec for rec in records)
    assert any(rec["pass"] for rec in records)  # small n still verified


def test_verify_counts_each_n_once(capsys):
    # every n past 64 is settled by the count of 64 alone, so the sweep
    # needs the counts of 0..64 and nothing else
    count_partitions.cache_clear()
    code, _, _ = run(capsys, "verify", "--n", "0..3000", "--k", "1", "--d", "2", "--m", "1",
                     "--budget", "1000", "--json")
    assert code == 3
    assert count_partitions.cache_info().misses <= 65


def test_verify_splits_each_n_d_m_once(monkeypatch, capsys):
    # one members_by_k pass per (n, d, m) within the budget serves every k;
    # p(9) = 30 and p(10) = 42, so n = 10 and 11 are over the budget
    calls = Counter()

    def counting(partitions, d, m):
        calls[weight(partitions[0]), d, m] += 1
        return members_by_k(partitions, d, m)

    monkeypatch.setattr(cli, "members_by_k", counting)
    code, out, _ = run(capsys, "verify", "--n", "0..11", "--k", "1..3", "--d", "1..2", "--m", "1..3",
                       "--budget", "30", "--json")
    assert code == 3
    assert len(out.splitlines()) == 12 * 3 * 2 * 3
    assert calls == Counter({(n, d, m): 1 for n in range(10) for d in (1, 2) for m in (1, 2, 3)})


def record_series_degrees(monkeypatch):
    """Make cli's two series builders record the degree N of every build."""
    degrees = []
    for name in ("lhs_series", "rhs_series"):
        build = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda k, d, m, N, build=build: degrees.append(N) or build(k, d, m, N))
    return degrees


def test_verify_builds_series_to_the_last_verified_n(monkeypatch, capsys):
    # verify_point reads q^n by index, so both series must reach every
    # verified n; p(9) = 30 and p(10) = 42, so the last one is 9
    degrees = record_series_degrees(monkeypatch)
    code, out, _ = run(capsys, "verify", "--n", "3..12", "--k", "1", "--d", "2", "--m", "2", "--budget", "30", "--json")
    assert code == 3
    assert degrees == [9, 9]
    records = [json.loads(line) for line in out.splitlines()]
    assert [rec["pass"] for rec in records] == [True] * 7 + [False] * 3


def test_verify_builds_no_series_when_no_n_is_within_the_budget(monkeypatch, capsys):
    # p(11) = 56: every n is refused, and no record reads a series
    degrees = record_series_degrees(monkeypatch)
    code, out, _ = run(capsys, "verify", "--n", "11..12", "--k", "1", "--d", "2", "--m", "2", "--budget", "30", "--json")
    assert code == 3
    assert degrees == []
    records = [json.loads(line) for line in out.splitlines()]
    assert [rec["error"].startswith("BudgetExceeded: ") for rec in records] == [True, True]


def test_verify_points_with_no_members(capsys):
    # kd > n empties both classes: A needs k parts of at least d, B a part
    # kd or d copies of k; φ is checked on the empty class all the same
    code, out, _ = run(capsys, "verify", "--n", "0..6", "--k", "1..6", "--d", "1..6", "--m", "1..6", "--json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    empty = [rec for rec in records if rec["k"] * rec["d"] > rec["n"]]
    # 41 of the 7 · 36 triples (n, k, d) have kd <= n; each holds for 6 values of m
    assert len(records) == 7 * 6**3 and len(empty) == (7 * 36 - 41) * 6
    for rec in empty:
        assert rec == {
            "n": rec["n"], "k": rec["k"], "d": rec["d"], "m": rec["m"],
            "count_A": 0, "count_B": 0, "coeff_lhs": 0, "coeff_rhs": 0,
            "bijection": True if rec["d"] >= 2 else None, "pass": True,
        }


def test_emit_json_writes_json_dumps_of_each_record():
    # every kind of value a record holds, and an error message that needs
    # escaping: a quote, a backslash, a control character, a non-ASCII letter
    point = {"n": 3, "k": 1, "d": 2, "m": 2}
    records = [
        {**point, "count_A": None, "count_B": None, "coeff_lhs": None, "coeff_rhs": None, "bijection": None,
         "pass": False, "error": 'NotInClassB: "3" \\ \x01 \u00e9', "elapsed": 0.0},
        {**point, "count_A": 2**64 + 1, "count_B": 2**64 + 1, "coeff_lhs": 2**64 + 1, "coeff_rhs": 2**64 + 1,
         "bijection": True, "pass": True, "elapsed": 1.25e-06},
        {**point, "count_A": 1, "count_B": 1, "coeff_lhs": 1, "coeff_rhs": 1, "bijection": False, "pass": False,
         "elapsed": 0.1 + 0.2},
    ]
    buf = io.StringIO()
    cli._emit(iter(records), "json", buf)
    assert buf.getvalue() == "".join(json.dumps(rec) + "\n" for rec in records)


def test_verify_rejects_huge_n_quickly():
    # counting the partitions of n, or building series to n, would take
    # far longer than the timeout
    proc = subprocess.run(
        [sys.executable, "-m", "parteq.cli", "verify", "--n", "100000", "--k", "1", "--d", "2", "--m", "1", "--json"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 3
    [line] = proc.stdout.splitlines()
    rec = json.loads(line)
    assert rec["n"] == 100000 and rec["error"].startswith("BudgetExceeded: ")


@pytest.mark.parametrize(
    "flag, value", [("--n", "-1..5"), ("--d", "-2..3"), ("--k", "0"), ("--d", "0"), ("--m", "0")]
)
def test_verify_bad_bound_fails_before_the_budget_walk(monkeypatch, capsys, flag, value):
    # with a budget this large the walk would count the partitions of
    # every n in the range, at O(n²) apiece; a bad bound is refused first
    checked = []
    check_budget = cli.check_budget
    monkeypatch.setattr(cli, "check_budget", lambda n, cap: checked.append(n) or check_budget(n, cap))
    flags = {"--n": "0..5", "--k": "1", "--d": "2", "--m": "1", flag: value}
    # "--n=-1..5" and "--n -1..5" alike: a separate value that starts with
    # a minus and a digit is the flag's value, not a flag of its own
    joined = [f"{name}={text}" for name, text in flags.items()]
    separate = [word for name, text in flags.items() for word in (name, text)]
    for argv in (joined, separate):
        code, out, err = run(capsys, "verify", *argv, "--budget", str(10**60), "--json")
        assert code == 2
        assert out == "" and checked == []
        [line] = err.splitlines()
        error = json.loads(line)
        assert error["error"] == "DomainError"
        assert error["message"].startswith(f"{flag[2:]} must be >= ")


def test_verify_refuses_a_grid_over_the_cap_before_the_budget_walk(monkeypatch, capsys):
    checked = []
    check_budget = cli.check_budget
    monkeypatch.setattr(cli, "check_budget", lambda n, cap: checked.append(n) or check_budget(n, cap))
    monkeypatch.setattr(cli, "MAX_POINTS", 8)
    code, out, _ = run(capsys, "verify", "--n", "3", "--k", "1..2", "--d", "1..2", "--m", "1..2", "--json")
    assert code == 0 and len(out.splitlines()) == 8 and checked == [3]
    code, out, err = run(capsys, "verify", "--n", "3", "--k", "1..2", "--d", "1..2", "--m", "1..3", "--json")
    assert code == 2
    assert out == "" and checked == [3]
    assert err == json.dumps({"error": "DomainError", "message": "the k, d and m ranges make more than 8 points"}) + "\n"


def test_start_up_imports_no_heavy_module():
    # dataclasses pulls in inspect, ast, dis and tokenize; typing and csv
    # are large too, and a parteq process pays for each before any work.
    # -S keeps a .pth file in site-packages from importing typing first
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import parteq.cli; parteq.cli.build_parser()\n"
        "print(' '.join(sorted({'dataclasses', 'inspect', 'typing', 'csv'} & set(sys.modules))))"
    )
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, SRC], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


SWEEP_FROM_0 = ["verify", "--k", "1", "--d", "2", "--m", "1", "--budget", "0", "--json", "--n"]


class LineCount:
    """A stdout that keeps only the number of lines written to it."""

    def __init__(self):
        self.lines = 0

    def write(self, text):
        self.lines += text.count("\n")

    def flush(self):
        pass


def test_verify_memory_is_flat_in_the_range(monkeypatch):
    # every n is over a budget of 0, so each record is made and written
    # alone; a sweep ten times as long must not hold more
    def peak(hi):
        sink = LineCount()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main([*SWEEP_FROM_0, f"0..{hi}"])
            used = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and sink.lines == hi + 1
        return used

    peak(1000)  # warm-up: imports, caches
    assert peak(10000) - peak(1000) <= 256 * 1024


def test_verify_writes_the_first_record_before_walking_the_range(monkeypatch):
    class FirstWrite(Exception):
        pass

    class Refusing:
        def write(self, text):
            raise FirstWrite

    checked = []
    check_budget = cli.check_budget
    monkeypatch.setattr(cli, "check_budget", lambda n, cap: checked.append(n) or check_budget(n, cap))
    monkeypatch.setattr(sys, "stdout", Refusing())
    with pytest.raises(FirstWrite):
        main([*SWEEP_FROM_0, "0..200000"])
    assert len(checked) <= 2


def test_verify_closed_pipe_exits_141():
    # the records fill far more than a pipe's buffer, so the writes after
    # the reader has gone fail
    proc = subprocess.Popen(
        [sys.executable, "-m", "parteq.cli", *SWEEP_FROM_0, "0..100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    first = json.loads(proc.stdout.readline())
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert first["n"] == 0 and first["error"].startswith("BudgetExceeded: ")


# a large output breaks on a write; a small one, still in the buffer,
# breaks on main's flush
@pytest.mark.parametrize("failing", ["write", "flush"])
def test_broken_pipe_exits_141_and_silences_stdout(monkeypatch, capsys, failing):
    read_end, write_end = os.pipe()
    os.set_blocking(read_end, False)  # a pipe with a writer left must not hang the test

    def broken(*args):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    class ClosedPipe:
        def write(self, text):
            pass

        def flush(self):
            pass

        def fileno(self):
            return write_end

    setattr(ClosedPipe, failing, broken)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        assert main([*SWEEP_FROM_0, "0..5"]) == 141
        # write_end now names devnull: the pipe has no writer left
        assert os.read(read_end, 1) == b""
    finally:
        os.close(read_end)
        os.close(write_end)
    assert capsys.readouterr().err == ""


def test_verify_failure_outranks_budget(monkeypatch, capsys):
    # the failure is at n = 4, within the budget; n = 5..12 are over it
    monkeypatch.setattr("parteq.cli.phi", lambda lam, params: (EMPTY, None))
    code, out, _ = run(capsys, "verify", "--n", "4..12", "--k", "1", "--d", "2", "--m", "2", "--budget", "5", "--json")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0]["error"].startswith("NotInClassB: ")
    assert records[-1]["error"].startswith("BudgetExceeded: ")


def test_verify_bijection_error_is_per_point(monkeypatch, capsys):
    monkeypatch.setattr("parteq.cli.phi", lambda lam, params: (EMPTY, None))
    code, out, _ = run(capsys, "verify", "--n", "3..4", "--k", "1", "--d", "1..2", "--m", "2", "--json")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    assert [rec["pass"] for rec in records] == [True, False, True, False]
    assert records[1]["error"].startswith("NotInClassB: ")
    assert records[1]["count_A"] == records[1]["coeff_rhs"] == 1


# n=6, k=1, d=2, m=2 has four A members and four B members
BIJECTION_POINT = ["verify", "--n", "6", "--k", "1", "--d", "2", "--m", "2", "--json"]


def verify_bijection_record(capsys):
    code, out, _ = run(capsys, *BIJECTION_POINT)
    [line] = out.splitlines()
    return code, json.loads(line)


def test_verify_bijection_false_when_round_trip_fails(monkeypatch, capsys):
    fixed = next(enumerate_A(ClassParams(6, 1, 2, 2)))
    monkeypatch.setattr("parteq.cli.phi_inverse", lambda kappa, params: (fixed, None))
    code, rec = verify_bijection_record(capsys)
    assert code == 1
    assert rec["bijection"] is False and rec["pass"] is False and "error" not in rec
    assert rec["count_A"] == rec["count_B"] == rec["coeff_lhs"] == rec["coeff_rhs"] == 4


def test_verify_bijection_false_when_images_miss_b(monkeypatch, capsys):
    # every round trip closes, but all members share the first one's
    # image, so the image set is smaller than B
    seen = []

    def one_image(lam, params):
        seen.append(lam)
        return phi(seen[0], params)

    monkeypatch.setattr("parteq.cli.phi", one_image)
    monkeypatch.setattr("parteq.cli.phi_inverse", lambda kappa, params: (seen[-1], None))
    code, rec = verify_bijection_record(capsys)
    assert code == 1
    assert len(seen) == 4
    assert rec["bijection"] is False and rec["pass"] is False and "error" not in rec
    assert rec["count_A"] == rec["count_B"] == rec["coeff_lhs"] == rec["coeff_rhs"] == 4


def rhs_off_at_5(k, d, m, N):
    coeffs = list(rhs_series(k, d, m, N).coefficients)
    coeffs[5] += 1
    return TruncatedSeries(tuple(coeffs))


def without_last_b_member(partitions, d, m):
    a, b = members_by_k(partitions, d, m)
    return a, {k: members[:-1] for k, members in b.items()}


@pytest.mark.parametrize("name, patch", [("rhs_series", rhs_off_at_5), ("members_by_k", without_last_b_member)],
                         ids=["coefficient", "count"])
def test_verify_fails_when_oracles_disagree_with_no_phi_fault(monkeypatch, capsys, name, patch):
    # φ and φ⁻¹ are sound here: the numbers alone fail the n = 5 points
    monkeypatch.setattr(cli, name, patch)
    code, out, _ = run(capsys, "verify", "--n", "4..6", "--k", "1", "--d", "1..2", "--m", "2", "--json")
    assert code == 1
    records = [json.loads(line) for line in out.splitlines()]
    at_5 = [rec for rec in records if rec["n"] == 5]
    assert [rec["d"] for rec in at_5] == [1, 2]
    for rec in at_5:
        assert rec["pass"] is False and "error" not in rec
    if name == "members_by_k":
        assert [rec["bijection"] for rec in at_5] == [None, False]
        assert all(rec["count_B"] == rec["count_A"] - 1 for rec in at_5)
    else:
        assert [rec["bijection"] for rec in at_5] == [None, True]
        assert all(rec["pass"] is True for rec in records if rec["n"] != 5)


def test_verify_point_takes_the_two_coefficients():
    # (6, 1, 2, 2) has four members in each class; verify_point is handed
    # the q^n coefficients, and the record compares all four numbers
    partitions = list(enumerate_partitions(6))
    a, b = members_by_k(partitions, 2, 2)
    assert len(a[1]) == len(b[1]) == 4
    params = ClassParams(6, 1, 2, 2)
    rec = cli.verify_point(params, a[1], b[1], 4, 4).to_record(None)
    assert rec == {"n": 6, "k": 1, "d": 2, "m": 2, "count_A": 4, "count_B": 4, "coeff_lhs": 4, "coeff_rhs": 4,
                   "bijection": True, "pass": True}
    rec = cli.verify_point(params, a[1], b[1], 4, 5).to_record(None)
    assert rec["coeff_rhs"] == 5 and rec["bijection"] is True and rec["pass"] is False and "error" not in rec
    a, b = members_by_k(partitions, 1, 2)
    rec = cli.verify_point(ClassParams(6, 1, 1, 2), a[1], b[1], len(a[1]), len(b[1])).to_record(0.5)
    assert rec["bijection"] is None and rec["pass"] is True and rec["elapsed"] == 0.5


def test_series_reports_first_difference(monkeypatch, capsys):
    def off_at_5(k, d, m, N):
        coeffs = list(rhs_series(k, d, m, N).coefficients)
        coeffs[5] += 1
        return TruncatedSeries(tuple(coeffs))

    monkeypatch.setattr("parteq.cli.rhs_series", off_at_5)
    a = lhs_series(2, 2, 2, 10).coefficients[5]
    code, out, err = run(capsys, "series", "--k", "2", "--d", "2", "--m", "2", "--N", "10")
    assert code == 1
    assert err == ""
    assert out == f"eq2 k=2 d=2 m=2 N=10: differ at q^5: lhs={a} rhs={a + 1}\n"


def test_verify_csv_keeps_every_error(monkeypatch, capsys):
    monkeypatch.setattr("parteq.cli.phi", lambda lam, params: (EMPTY, None))
    argv = ["verify", "--n", "3..4", "--k", "1", "--d", "1..2", "--m", "2"]
    _, out, _ = run(capsys, *argv, "--json")
    records = [json.loads(line) for line in out.splitlines()]
    code, out, _ = run(capsys, *argv, "--csv")
    assert code == 1
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == len(records) == 4
    # the message names B(3, 1, 2, 2), commas and all
    assert "," in records[1]["error"]
    assert [row["error"] for row in rows] == [rec.get("error", "") for rec in records]


def test_verify_output_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "--n", "1..9", "--k", "1..2", "--d", "2", "--m", "2", "--json")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_verify_csv_header(capsys):
    code, out, _ = run(capsys, "verify", "--n", "5", "--k", "1", "--d", "2", "--m", "2", "--csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("n,k,d,m,count_A,count_B")


def test_verify_table_default(capsys):
    code, out, _ = run(capsys, "verify", "--n", "5", "--k", "1", "--d", "2", "--m", "2")
    assert code == 0
    assert "count_A" in out.splitlines()[0]


def test_usage_error_exit_code(capsys):
    code, out, err = run(capsys, "map")  # missing required args
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "DomainError"


def test_internal_error_exits_1(monkeypatch, capsys):
    # an empty Glaisher image leaves kappa light, so phi's membership
    # check of kappa fails
    monkeypatch.setattr("parteq.bijection._glaisher_forward", lambda entries, d, m: ())
    code, out, err = run(capsys, "map", LAMBDA_1, "--params", "123,7,3,4")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "InternalError"


def test_default_budget_is_ten_million(capsys):
    code, out, err = run(capsys, "count", "--params", "100,1,2,4", "--class", "A")
    assert code == 3
    assert out == ""
    assert err == json.dumps({"error": "BudgetExceeded",
                              "message": "190569292 partitions of 100 exceeds budget 10000000"}) + "\n"


@pytest.mark.parametrize(
    "N, argv",
    [
        pytest.param(2**64, ["series", "--k", "3", "--d", "2", "--m", "2", "--N", str(2**64)], id="series-N-2pow64"),
        pytest.param(10**18, ["series", "--k", "3", "--d", "2", "--m", "2", "--N", str(10**18)], id="series-N-1e18"),
        pytest.param(2**64, ["count", "--params", f"{2**64},1,2,1", "--class", "A", "--method", "series"],
                     id="count-series-n-2pow64"),
        pytest.param(10**6 + 1, ["series", "--k", "3", "--d", "2", "--m", "2", "--N", str(10**6 + 1)],
                     id="series-N-past-max"),
        pytest.param(10**6 + 1, ["count", "--params", f"{10**6 + 1},1,2,1", "--class", "A", "--method", "series"],
                     id="count-series-n-past-max"),
    ],
)
def test_series_degree_too_large_to_allocate_exits_2(capsys, N, argv):
    # a degree past qseries.MAX_DEGREE is refused before anything is allocated
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == json.dumps({"error": "DomainError",
                              "message": f"series degree N = {N} is too large to allocate"}) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["verify", "--n", "x", "--k", "1", "--d", "2", "--m", "2"], id="verify-range-x"),
        pytest.param(["verify", "--n", "3", "--k", "1..", "--d", "2", "--m", "2"], id="verify-range-open"),
        pytest.param(["verify", "--n", "3", "--k", "1", "--d", "2", "--m", "2", "--N", "-1"], id="verify-N"),
        pytest.param(["verify", "--n", "3", "--k", "1", "--d", "2", "--m", "2", "--budget", "-1"],
                     id="verify-budget"),
        pytest.param(["count", "--params", "7,2,2,4", "--class", "A", "--method", "series", "--N", "-1"],
                     id="count-N"),
        pytest.param(["count", "--params", "7,2,2,4", "--class", "A", "--method", "series", "--budget", "-1"],
                     id="count-series-budget"),
        pytest.param(["series", "--k", "2", "--d", "2", "--m", "2", "--N", "-1"], id="series-N"),
        pytest.param(["verify", "--n", "3", "--k", "1", "--d", "2", "--m", "2", "--N", "abc"],
                     id="verify-N-x"),
        pytest.param(["verify", "--n", "3", "--k", "1", "--d", "2", "--m", "2", "--budget", "x"],
                     id="verify-budget-x"),
        pytest.param(["series", "--k", "x", "--d", "2", "--m", "2"], id="series-k-x"),
        pytest.param(["series", "--k", "2"], id="series-missing-d-m"),
        pytest.param(["series", "--eq1", "--k", "3", "--d", "2", "--N", "10"], id="series-eq1-d"),
        pytest.param(["series", "--eq1", "--k", "3", "--m", "2", "--N", "10"], id="series-eq1-m"),
        pytest.param(["verify", "--k", "1", "--d", "2", "--m", "2"], id="verify-missing-n"),
        pytest.param(["verify", "--n", "-1..2", "--k", "1", "--d", "2", "--m", "2"],
                     id="verify-range-negative"),
        pytest.param(["verify", "--n", "5..3", "--k", "1", "--d", "2", "--m", "2"], id="verify-range-reversed"),
        pytest.param(["verify", "--n", "3", "--k", "0", "--d", "2", "--m", "2"], id="verify-k-0"),
        pytest.param(["verify", "--n", "1_0", "--k", "1", "--d", "2", "--m", "2"], id="verify-n-underscore"),
        pytest.param(["verify", "--n", "5", "--k", "1", "--d", "2", "--m", "1", "--json", "--csv"], id="verify-json-csv"),
        # a (k, d, m) grid past cli.MAX_POINTS, refused before product() copies
        # the ranges: too long for len() (10^20), too long to copy (10^18), or
        # three ranges in bounds
        pytest.param(["verify", "--n", "0", "--k", f"1..{10**20}", "--d", "2", "--m", "1"], id="verify-k-huge"),
        pytest.param(["verify", "--n", "0", "--k", "1", "--d", f"1..{10**18}", "--m", "1"], id="verify-d-huge"),
        pytest.param(["verify", "--n", "0", "--k", "1", "--d", "2", "--m", f"1..{10**20}"], id="verify-m-huge"),
        pytest.param(["verify", "--n", "0", "--k", "1..100", "--d", "1..100", "--m", "1..101"], id="verify-grid-over-cap"),
        pytest.param(["map", "3", "--params", "\u0663,1,2,2"], id="params-arabic-digit"),
        pytest.param(["series", "--k", "\u0663", "--d", "2", "--m", "2"], id="series-k-arabic-digit"),
    ],
)
def test_malformed_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "DomainError"


def _error_types(cls=ParteqError):
    """ParteqError and every subclass defined in parteq.errors, recursively."""
    if cls.__module__ == "parteq.errors":
        yield cls
    for sub in cls.__subclasses__():
        yield from _error_types(sub)


ERROR_TYPES = sorted(set(_error_types()), key=lambda cls: cls.__name__)
# the status of each type that does not exit 2
EXIT_CODES = {"NotInClassA": 1, "NotInClassB": 1, "InternalError": 1, "BudgetExceeded": 3}


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_every_error_type_exits_with_its_status(monkeypatch, capsys, cls):
    def raise_it(args):
        raise cls("boom")

    monkeypatch.setattr("parteq.cli.cmd_series", raise_it)
    code, out, err = run(capsys, "series", "--k", "1", "--d", "1", "--m", "1")
    assert code == EXIT_CODES.get(cls.__name__, 2)
    assert out == ""
    assert err == json.dumps({"error": cls.__name__, "message": "boom"}) + "\n"


def test_map_modulus_1_is_conjugation(capsys):
    assert run(capsys, "map", "4 2 1", "--params", "7,3,1,5") == (0, "3 2 1^2\n", "")
    assert run(capsys, "map", "3 2 1^2", "--params", "7,3,1,5", "--inverse") == (0, "4 2 1\n", "")


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(["verify", "--n", "3", "--k", "1", "--d", "2", "--m", "2", "--budget", "x"], "--budget",
                     id="verify-budget"),
        pytest.param(["count", "--params", "7,2,2,4", "--class", "A", "--budget", "x"], "--budget", id="count-budget"),
        pytest.param(["series", "--k", "x", "--d", "2", "--m", "2"], "--k", id="series-k"),
        pytest.param(["series", "--k", "2", "--d", "x", "--m", "2"], "--d", id="series-d"),
        pytest.param(["series", "--k", "2", "--d", "2", "--m", "x"], "--m", id="series-m"),
        pytest.param(["series", "--k", "2", "--d", "2", "--m", "2", "--N", "x"], "--N", id="series-N"),
    ],
)
def test_integer_flag_message_says_integer(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    message = f"argument {flag}: invalid integer value: 'x'"
    assert err == json.dumps({"error": "DomainError", "message": message}) + "\n"


def test_integer_flag_quotes_a_long_value_by_prefix_and_length(capsys):
    code, out, err = run(capsys, "series", "--k", "x" * 5000, "--d", "2", "--m", "2")
    assert code == 2
    assert out == ""
    message = "argument --k: invalid integer value: 'xxxxxxxxxxxxxxxxxxxx'... (5000 characters)"
    assert err == json.dumps({"error": "DomainError", "message": message}) + "\n"


# n = 11 and n = 12 have more partitions than this budget allows
BUDGET_SWEEP = ["--n", "0..12", "--k", "1..2", "--d", "1..2", "--m", "2", "--budget", "50", "--json"]


# sha256 of the stdout of each sweep; any change to a record's bytes shows here
@pytest.mark.parametrize(
    "argv, exit_code, digest",
    [
        pytest.param(["--n", "0..10", "--k", "1..6", "--d", "1..4", "--m", "1..8", "--json"], 0,
                     "5f3da6b74182abf2140a9ec11c4b7f26f988d9b673b24af7f2c737ceb72ae2b2", id="json"),
        pytest.param(["--n", "0..6", "--k", "1..3", "--d", "1..3", "--m", "1..4", "--csv"], 0,
                     "c8d3d9de34719dd4888b6a1908fc2d661bc7e10dc4dcd28cb2990661c85b9bb0", id="csv"),
        pytest.param(["--n", "0..6", "--k", "1..3", "--d", "1..3", "--m", "1..4"], 0,
                     "db36dd0e905f49b7ba91a368fcb0583536b803a9050d7adb139e8dc89a94c9f3", id="table"),
        pytest.param(BUDGET_SWEEP, 3,
                     "1a01956881ed4ae9ece2678298a8c608b3ddd86fdbfcdb3362e2e8deee886a6c", id="budget"),
        # exact counts up to n = 128, "128 alone has" past it
        pytest.param(["--n", "77..300", "--k", "1..2", "--d", "2", "--m", "1..2", "--budget", "10000000", "--json"], 3,
                     "93c6c4fb2f5acc2835a064f29d282d70b04a09c10915e26e7095b25c1c8755e0", id="budget-both-forms"),
    ],
)
def test_verify_output_bytes_pinned(capsys, argv, exit_code, digest):
    code, out, _ = run(capsys, "verify", *argv)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_timing_adds_only_elapsed(capsys):
    plain_code, plain, _ = run(capsys, "verify", *BUDGET_SWEEP)
    code, out, _ = run(capsys, "verify", *BUDGET_SWEEP, "--timing")
    assert code == plain_code == 3
    records = [json.loads(line) for line in out.splitlines()]
    assert any("error" in rec for rec in records)
    for rec in records:
        assert list(rec)[-1] == "elapsed"
        elapsed = rec.pop("elapsed")
        assert isinstance(elapsed, float) and elapsed >= 0
    assert "".join(json.dumps(rec) + "\n" for rec in records) == plain


def test_verify_makes_each_record_once(monkeypatch, capsys):
    # 13 n · 2 k · 2 d: the 44 points of n <= 10 are verified, and the 8 of
    # n = 11, 12 refused; to_record alone makes every record and its verdict
    calls = Counter()
    verify_point, to_record = cli.verify_point, cli.VerifyReport.to_record

    def counting_point(*args):
        calls["verify_point"] += 1
        return verify_point(*args)

    def counting_record(report, elapsed):
        calls["to_record"] += 1
        return to_record(report, elapsed)

    monkeypatch.setattr(cli, "verify_point", counting_point)
    monkeypatch.setattr(cli.VerifyReport, "to_record", counting_record)
    code, out, _ = run(capsys, "verify", *BUDGET_SWEEP, "--timing")
    assert code == 3
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 52 and sum("error" in rec for rec in records) == 8
    assert calls == Counter({"verify_point": 44, "to_record": 52})


def test_verify_checks_each_n_against_the_budget_once(monkeypatch, capsys):
    # p(10) = 42 and p(11) = 56: the walk checks 0..11 and stops at 11,
    # then the refusals check 11 and 12, each for its own message
    calls = Counter()
    check_budget = cli.check_budget

    def counting(n, cap):
        calls[n] += 1
        return check_budget(n, cap)

    monkeypatch.setattr(cli, "check_budget", counting)
    code, _, _ = run(capsys, "verify", *BUDGET_SWEEP)
    assert code == 3
    assert calls == Counter({**{n: 1 for n in range(11)}, 11: 2, 12: 1})


def test_verify_every_parameter_to_n_12(capsys):
    # k, d, m in 1..12 at each n <= 12 covers every (k, d, m) there: at
    # kd > n both classes are empty, and m >= n gives the classes of m = n
    # (test_classes.py::test_finitely_many_cases_at_each_weight); tests/deep.py runs
    # the same sweep to n = 28
    code, out, _ = run(capsys, "verify", "--n", "0..12", "--k", "1..12", "--d", "1..12", "--m", "1..12", "--json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 13 * 12**3 == 22464
    assert all(rec["pass"] is True for rec in records)
    assert hashlib.sha256(out.encode()).hexdigest() == "bc7b24a1638cea0da0d3af48527e8a93d33a489eb720b56c9452ea8de1cafc91"
