"""Property test of the exit contract: main(argv) for all four commands.

Command lines are drawn from a pool of tokens, bad and good: integers
that are negative, too long for int() to read from text, non-ASCII or
written with underscores; reversed and open ranges; malformed
partitions and params, and partitions outside their class. Whatever the
input, main returns 0, 1, 2 or 3 and raises nothing, and a run that
exits 2 writes nothing to stdout and one JSON line to stderr. That line
stays short however long the token it rejects.

Ranges are a few values wide, n and N small and the budget low, so each
call takes milliseconds. A huge integer appears only where it is
rejected or settled at once: as a single value, as the bad end of a
reversed range, or inside partition text and params.
"""

import contextlib
import io
import json

import hypothesis.strategies as st
from hypothesis import example, given, settings

from parteq.cli import main

# more digits than int() reads from text by default (4300)
LONG = "9" * 5000
# a non-integer of the same length, which no integer check reads as digits
WORDY = "x" * 5000
# past what a series can allocate, and settled by the budget check as an n
BIG = "99999999999999999999"

LAMBDA_1 = "15^2 12 11 9 8 7^4 6^2 5 3 2^2 1"
KAPPA_1 = "21 18 11 8 7^4 5 4^3 3^3 2^5 1"

SMALL = ["0", "1", "2", "3", "4"]
BAD_INTEGERS = ["-1", "-12", LONG, "-" + LONG, BIG, "٣", "１０", "1_0", "x", WORDY, ""]
RANGES = ["0..3", "1..2", "2..4", "1..4"]
BAD_RANGES = ["3..1", "4..-1", f"{LONG}..2", f"2..-{LONG}", f"{BIG}..3", f"1..{WORDY}", "1..", "..3", "..", "-1..2", "1...3"]
# members and non-members of the classes of PARAMS
PARTITIONS = ["", "3", "4", "2 1", "2 1^2", "1^4", "5^2", LAMBDA_1, KAPPA_1]
BAD_PARTITIONS = ["3 3", "2 3", "3^1", "0", "x", "٣", LONG, f"5^{LONG}", f"{LONG} 1", WORDY, f"3 {WORDY}"]
PARAMS = ["3,1,2,4", "4,1,2,1", "4,2,2,1", "4,1,2,2", "123,7,3,4", "3,1,1,2"]
BAD_PARAMS = ["1,2,3", "1,2,3,4,5", "", "a,b,c,d", f"1,1,2,{LONG}", f"1,1,2,{WORDY}", WORDY]
# a budget that lets p(123) through would enumerate for hours
BUDGETS = ["0", "50"]
BAD_BUDGETS = ["-1", "x", "1_0", "٣", LONG, WORDY]


def token(good, bad):
    """A token from good five times in six, else one from bad."""
    return st.integers(0, 5).flatmap(lambda i: st.sampled_from(bad if i == 0 else good))


integer = token(SMALL, BAD_INTEGERS)
budget = token(BUDGETS, BAD_BUDGETS)
integer_or_range = token(SMALL + RANGES, BAD_INTEGERS + BAD_RANGES)
params = st.one_of(token(PARAMS, BAD_PARAMS), st.lists(integer, min_size=4, max_size=4).map(",".join))


def optional(*tokens):
    """The flag and its value, or nothing."""
    return st.one_of(st.just([]), st.tuples(*tokens).map(list))


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["verify", "map", "count", "series"]))
    argv = [command]
    if command == "verify":
        for flag in ("--n", "--k", "--d", "--m"):
            argv += [flag, draw(integer_or_range)]
        argv += draw(optional(st.just("--budget"), budget))
        argv += draw(st.sampled_from([[], ["--json"], ["--csv"], ["--timing", "--json"]]))
    elif command == "map":
        argv += [draw(token(PARTITIONS, BAD_PARTITIONS)), "--params", draw(params)]
        argv += draw(st.sampled_from([[], ["--inverse"], ["--trace"], ["--inverse", "--trace"]]))
    elif command == "count":
        argv += ["--params", draw(params), "--class", draw(token(["A", "B"], ["C", WORDY]))]
        argv += draw(optional(st.just("--method"), token(["enumerate", "series"], ["x", WORDY])))
        argv += draw(optional(st.just("--budget"), budget))
    else:
        argv += ["--k", draw(integer)]
        for flag in ("--d", "--m", "--N"):
            argv += draw(optional(st.just(flag), integer))
        argv += draw(st.sampled_from([[], ["--eq1"]]))
    # now and then one token goes missing: a flag without its value, a
    # value without its flag, or no command at all
    if draw(st.integers(0, 9)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(command_lines())
@example(["map", LONG, "--params", "1,1,2,1"])
@example(["map", WORDY, "--params", "1,1,2,1"])
@example(["verify", "--n", "1", "--k", "1", "--d", "2", "--m", "1", "--budget", LONG])
@example(["count", "--params", "3,1,2,1", "--class", "A", WORDY])
@example(["map", "3", "--params", "3,1,2,4"])
@settings(max_examples=300, deadline=None)
def test_every_command_line_keeps_the_exit_contract(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3)
    # an error leaves as one short JSON line naming its type; a run
    # without one writes nothing to stderr
    if err:
        assert err.endswith("\n") and err.count("\n") == 1
        assert len(err.encode()) < 300
        assert set(json.loads(err)) == {"error", "message"}
    if code == 2:
        assert out == ""
        assert err
