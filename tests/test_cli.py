import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from parteq.bijection import phi
from parteq.classes import ClassParams, count_partitions, enumerate_A
from parteq.cli import main
from parteq.qseries import TruncatedSeries, lhs_series, rhs_series

from conftest import EMPTY

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


def test_count_enumerate(capsys):
    code, out, _ = run(capsys, "count", "--params", "7,2,2,4", "--class", "A", "--method", "enumerate")
    assert code == 0
    assert out.strip() == "3"


def test_count_series(capsys):
    code, out, _ = run(capsys, "count", "--params", "7,2,2,7", "--class", "B", "--method", "series")
    assert code == 0
    assert out.strip() == "3"


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


def test_verify_rejects_huge_n_quickly():
    # counting the partitions of n, or building series to n, would take
    # far longer than the timeout
    proc = subprocess.run(
        [sys.executable, "-m", "parteq.cli", "verify", "--n", "100000", "--k", "1", "--d", "2", "--m", "1", "--json"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC, "PARTEQ_BUDGET": ""},
    )
    assert proc.returncode == 3
    [line] = proc.stdout.splitlines()
    rec = json.loads(line)
    assert rec["n"] == 100000 and rec["error"].startswith("BudgetExceeded: ")


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


def test_series_reports_first_difference(monkeypatch, capsys):
    def off_at_5(k, d, m, N):
        coeffs = list(rhs_series(k, d, m, N).coefficients)
        coeffs[5] += 1
        return TruncatedSeries(tuple(coeffs))

    monkeypatch.setattr("parteq.cli.rhs_series", off_at_5)
    a = lhs_series(2, 2, 2, 10).coefficient(5)
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
    # an empty Glaisher image makes phi's own weight check fail
    monkeypatch.setattr("parteq.bijection.finite_glaisher_forward", lambda o, d, m: EMPTY)
    code, out, err = run(capsys, "map", LAMBDA_1, "--params", "123,7,3,4")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "InternalError"


def test_env_budget(monkeypatch, capsys):
    monkeypatch.setenv("PARTEQ_BUDGET", "10")
    code, _, err = run(capsys, "count", "--params", "30,1,2,4", "--class", "A")
    assert code == 3


@pytest.mark.parametrize(
    "env, argv",
    [
        pytest.param(None, ["verify", "--n", "x", "--k", "1", "--d", "2", "--m", "2"], id="verify-range-x"),
        pytest.param(None, ["verify", "--n", "3", "--k", "1..", "--d", "2", "--m", "2"], id="verify-range-open"),
        pytest.param(None, ["verify", "--n", "3", "--k", "1", "--d", "2", "--m", "2", "--N", "-1"], id="verify-N"),
        pytest.param(None, ["verify", "--n", "3", "--k", "1", "--d", "2", "--m", "2", "--budget", "-1"],
                     id="verify-budget"),
        pytest.param("abc", ["count", "--params", "7,2,2,4", "--class", "A"], id="count-env-budget"),
        pytest.param(None, ["count", "--params", "7,2,2,4", "--class", "A", "--method", "series", "--N", "-1"],
                     id="count-N"),
        pytest.param(None, ["series", "--k", "2", "--d", "2", "--m", "2", "--N", "-1"], id="series-N"),
        pytest.param(None, ["verify", "--n", "3", "--k", "1", "--d", "2", "--m", "2", "--N", "abc"],
                     id="verify-N-x"),
        pytest.param(None, ["verify", "--n", "3", "--k", "1", "--d", "2", "--m", "2", "--budget", "x"],
                     id="verify-budget-x"),
        pytest.param(None, ["series", "--k", "x", "--d", "2", "--m", "2"], id="series-k-x"),
        pytest.param(None, ["series", "--k", "2"], id="series-missing-d-m"),
        pytest.param(None, ["series", "--eq1", "--k", "3", "--d", "2", "--N", "10"], id="series-eq1-d"),
        pytest.param(None, ["series", "--eq1", "--k", "3", "--m", "2", "--N", "10"], id="series-eq1-m"),
        pytest.param(None, ["verify", "--k", "1", "--d", "2", "--m", "2"], id="verify-missing-n"),
        pytest.param(None, ["verify", "--n", "-1..2", "--k", "1", "--d", "2", "--m", "2"],
                     id="verify-range-negative"),
        pytest.param(None, ["verify", "--n", "5..3", "--k", "1", "--d", "2", "--m", "2"], id="verify-range-reversed"),
        pytest.param(None, ["verify", "--n", "3", "--k", "0", "--d", "2", "--m", "2"], id="verify-k-0"),
        pytest.param(None, ["verify", "--n", "1_0", "--k", "1", "--d", "2", "--m", "2"], id="verify-n-underscore"),
        pytest.param(None, ["map", "3", "--params", "\u0663,1,2,2"], id="params-arabic-digit"),
        pytest.param(None, ["series", "--k", "\u0663", "--d", "2", "--m", "2"], id="series-k-arabic-digit"),
        pytest.param("\uff11\uff10\uff10\uff10", ["count", "--params", "7,2,2,4", "--class", "A"],
                     id="env-budget-fullwidth"),
    ],
)
def test_malformed_input_exits_2(monkeypatch, capsys, env, argv):
    if env is None:
        monkeypatch.delenv("PARTEQ_BUDGET", raising=False)
    else:
        monkeypatch.setenv("PARTEQ_BUDGET", env)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "DomainError"


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
