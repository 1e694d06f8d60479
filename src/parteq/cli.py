"""Command-line front end: verify, map, count, series.

Output is deterministic: records are ordered by parameter tuple and carry
no timestamps; timing is only included when --timing is passed. Exit
statuses: 0 all checks passed, 1 a checked claim failed, 2 usage or parse
error, 3 enumeration budget exceeded, 141 the reader closed stdout early;
an error's status is declared on its type in errors.py.
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
import sys
import time

from .bijection import phi, phi_inverse
from .classes import (
    ClassParams,
    check_budget,
    enumerate_A,
    enumerate_B,
    enumerate_partitions,
    integer,
    members_by_k,
)
from .errors import BudgetExceeded, DomainError, ParteqError, check_int, quote
from .partition import Partition
from .qseries import first_difference, lhs_series, rhs_series, solutionI_sides

EXIT_PASS = 0
EXIT_FAIL = 1

DEFAULT_BUDGET = 10_000_000
# the most (k, d, m) points verify takes, 45 times CI's largest grid (28³):
# it refuses a grid whose points and series cannot be allocated, not a slow one
MAX_POINTS = 10**6

# A verify record with no error as the line json.dumps writes: its values
# are ints, true, false, null and the float elapsed, none of which needs
# escaping. A record with an error goes through json, as its message can
# hold any character
_RECORD_JSON = (
    '{"n": %d, "k": %d, "d": %d, "m": %d, "count_A": %d, "count_B": %d, '
    '"coeff_lhs": %d, "coeff_rhs": %d, "bijection": %s, "pass": %s%s}\n'
)
_ELAPSED_JSON = ', "elapsed": %r'
_LITERAL = {True: "true", False: "false", None: "null"}


class VerifyReport:
    """Outcome of one grid point, made once from plain values."""

    def __init__(self, params: ClassParams, numbers: tuple, bijection_ok: bool | None, error: str | None):
        self.params = params
        self.numbers = numbers  # (count_A, count_B, coeff_lhs, coeff_rhs), which the verdict compares
        self.bijection_ok = bijection_ok  # None when d = 1: verify skips phi there, so those records keep their pinned bytes
        self.error = error

    def to_record(self, elapsed: float | None) -> dict:
        """The record, with elapsed unless None; it passes with no error, four equal numbers, no failed bijection."""
        p = self.params
        count_a, count_b, coeff_lhs, coeff_rhs = numbers = self.numbers
        rec = {
            "n": p.n, "k": p.k, "d": p.d, "m": p.m,
            "count_A": count_a, "count_B": count_b, "coeff_lhs": coeff_lhs, "coeff_rhs": coeff_rhs,
            "bijection": self.bijection_ok,
            "pass": self.error is None and len(set(numbers)) == 1 and self.bijection_ok is not False,
        }
        if self.error is not None:
            rec["error"] = self.error
        if elapsed is not None:
            rec["elapsed"] = elapsed
        return rec


def verify_point(params: ClassParams, members_a: list, members_b: list, coeff_lhs: int, coeff_rhs: int) -> VerifyReport:
    """Check one grid point: counts, series coefficients, bijection round trip.

    members_a and members_b are the point's members of A and of B, split
    from the partitions of params.n by members_by_k; coeff_lhs and
    coeff_rhs are the q^n coefficients of the two sides of the identity
    at its (k, d, m). The caller times the point.
    """
    bijection_ok = error = None
    if params.d >= 2:
        try:
            # the images and B as entry tuples, which hash and compare in C
            # where a Partition goes through Value's hooks
            images = set()
            closed = True
            for lam in members_a:
                kappa, _ = phi(lam, params)
                images.add(kappa.entries)
                back, _ = phi_inverse(kappa, params)
                if back.entries != lam.entries:
                    closed = False
            # an empty B builds no set: most points of a sweep have no members
            bijection_ok = closed and (images == {p.entries for p in members_b} if members_b else not images)
        except ParteqError as exc:
            error = f"{type(exc).__name__}: {exc}"
    return VerifyReport(params, (len(members_a), len(members_b), coeff_lhs, coeff_rhs), bijection_ok, error)


def _emit(records, fmt: str, out) -> None:
    """Write an iterable of records as JSON lines, CSV or a table.

    JSON writes each record as it arrives. CSV and the table collect them
    first: the CSV header has an error column only when some record has
    one, and a record can get one mid-sweep; the table sizes its columns
    to every record.
    """
    if fmt == "json":
        import json  # here, not at the top: only --json, --trace and an error need it, and every start-up would pay for it

        # a record is a flat dict, so no check for a circular reference is
        # needed, and the bytes are those of json.dumps(rec)
        encode = json.JSONEncoder(check_circular=False).encode
        for rec in records:
            if "error" in rec:
                out.write(encode(rec) + "\n")
            else:
                elapsed = rec.get("elapsed")
                out.write(_RECORD_JSON % (
                    rec["n"], rec["k"], rec["d"], rec["m"],
                    rec["count_A"], rec["count_B"], rec["coeff_lhs"], rec["coeff_rhs"],
                    _LITERAL[rec["bijection"]], _LITERAL[rec["pass"]],
                    "" if elapsed is None else _ELAPSED_JSON % elapsed,
                ))
        return
    records = list(records)
    # A record has an error key only when it has an error, and elapsed is
    # in all records or none, so the longest has every column, in order
    keys = list(max(records, key=len))
    if fmt == "csv":
        import csv  # here, not at the top: only --csv needs it, and every start-up would pay for it

        writer = csv.DictWriter(out, keys, lineterminator="\n")
        writer.writeheader()
        writer.writerows(records)
        return
    widths = {k: max(len(k), *(len(str(rec.get(k))) for rec in records)) for k in keys}
    out.write("  ".join(k.ljust(widths[k]) for k in keys) + "\n")
    for rec in records:
        out.write("  ".join(str(rec.get(k)).ljust(widths[k]) for k in keys) + "\n")


def _parse_range(text: str) -> range:
    """The inclusive range written as 'lo..hi' or as a single value."""
    lo, sep, hi = text.partition("..")
    lo, hi = integer(lo), integer(hi if sep else lo)
    if hi < lo:
        raise DomainError(f"upper bound {hi} below lower bound {lo}")
    return range(lo, hi + 1)


def cmd_verify(args) -> int:
    ns, ks, ds, ms = map(_parse_range, (args.n, args.k, args.d, args.m))
    # ClassParams rejects n < 0 and k, d, m < 1; the first point carries
    # every lower bound, so a bad one fails here, before the budget walk,
    # which counts the partitions of each n at O(n²) apiece
    ClassParams(ns[0], ks[0], ds[0], ms[0])
    # sized from the bounds: len() of a range longer than 2^63 raises OverflowError
    if (ks.stop - ks.start) * (ds.stop - ds.start) * (ms.stop - ms.start) > MAX_POINTS:
        raise DomainError(f"the k, d and m ranges make more than {MAX_POINTS} points")
    kdms = list(itertools.product(ks, ds, ms))
    # p(n) never decreases, so the n within the budget are a prefix of the
    # range, and the walk stops at the first n over it (a bad cap is a DomainError here)
    within = 0
    for n in ns:
        try:
            check_budget(n, args.budget)
        except BudgetExceeded:
            break
        within += 1
    status = BudgetExceeded.exit_code if ns[within:] else EXIT_PASS
    # each (k, d, m) with the coefficient tuples of its two series, built to the
    # last n within the budget, so q^n is read by index and needs no check; with
    # no n within it, no record reads a series and none is built
    points = []
    if within:
        top = ns[within - 1]
        points = [(kdm, lhs_series(*kdm, top).coefficients, rhs_series(*kdm, top).coefficients) for kdm in kdms]

    def records():
        nonlocal status
        for n in ns[:within]:
            partitions = list(enumerate_partitions(n))
            # one split per (d, m) serves every k; it is made when a point
            # first needs it and counts in that point's elapsed
            splits = {}
            for (k, d, m), lhs, rhs in points:
                params = ClassParams._trusted(n, k, d, m)
                start = time.perf_counter()
                split = splits.get((d, m))
                if split is None:
                    split = splits[d, m] = members_by_k(partitions, d, m)
                a, b = split
                report = verify_point(params, a.get(k, []), b.get(k, []), lhs[n], rhs[n])
                rec = report.to_record(time.perf_counter() - start if args.timing else None)
                if not rec["pass"]:
                    status = EXIT_FAIL
                yield rec
        # every later n is over the budget too; each gets its own message
        for n in ns[within:]:
            try:
                check_budget(n, args.budget)
            except BudgetExceeded as exc:
                for kdm in kdms:
                    report = VerifyReport(ClassParams._trusted(n, *kdm), (None,) * 4, None, f"BudgetExceeded: {exc}")
                    yield report.to_record(0.0 if args.timing else None)

    _emit(records(), args.format, sys.stdout)
    return status


def cmd_map(args) -> int:
    params = ClassParams.parse(args.params)
    p = Partition.parse(args.partition)
    if args.inverse:
        image, trace = phi_inverse(p, params)
    else:
        image, trace = phi(p, params)
    if args.trace:
        import json

        # the field order is written once, in to_json's line; this indents it
        print(json.dumps(json.loads(trace.to_json()), indent=2))
    else:
        print(image.render())
    return EXIT_PASS


def cmd_count(args) -> int:
    params = ClassParams.parse(args.params)
    # --method series never reaches check_budget, and a bad budget is
    # still bad input there
    check_int("budget", args.budget, 0)
    if args.method == "enumerate":
        check_budget(params.n, args.budget)
        members = enumerate_A if args.cls == "A" else enumerate_B
        value = sum(1 for _ in members(params))
    else:
        build = lhs_series if args.cls == "A" else rhs_series
        value = build(params.k, params.d, params.m, params.n).coefficients[params.n]
    print(value)
    return EXIT_PASS


def cmd_series(args) -> int:
    N = args.N
    if args.eq1:
        if args.d is not None or args.m is not None:
            raise DomainError("--d and --m do not apply to --eq1")
        lhs, rhs = solutionI_sides(args.k, N)
        label = f"eq1 k={args.k} N={N}"
    else:
        if args.d is None or args.m is None:
            raise DomainError("--d and --m are required unless --eq1 is given")
        lhs = lhs_series(args.k, args.d, args.m, N)
        rhs = rhs_series(args.k, args.d, args.m, N)
        label = f"eq2 k={args.k} d={args.d} m={args.m} N={N}"
    diff = first_difference(lhs, rhs)
    if diff is None:
        print(f"{label}: agree")
        return EXIT_PASS
    e, a, b = diff
    print(f"{label}: differ at q^{e}: lhs={a} rhs={b}")
    return EXIT_FAIL


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as DomainError, like any other bad input."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token like "-1..5" is a value: no parteq option starts with a
        # digit, so "--n -1..5" names the bad bound instead of reading it
        # as a flag (argparse's own pattern takes only whole numbers)
        self._negative_number_matcher = re.compile(r"-\d")

    def error(self, message):
        # an unknown choice or a stray argument is echoed whole by argparse
        if len(message) > 200:
            message = f"{message[:100]}... ({len(message)} characters)"
        raise DomainError(message)


def _integer_flag(text: str) -> int:
    """integer() as an argparse type, in argparse's words but with a long value quoted short."""
    try:
        return integer(text)
    except DomainError:
        raise argparse.ArgumentTypeError(f"invalid integer value: {quote(text)}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="parteq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="sweep a parameter grid and cross-check all oracles")
    p_verify.add_argument("--n", required=True, help="range lo..hi or single value")
    p_verify.add_argument("--k", required=True)
    p_verify.add_argument("--d", required=True)
    p_verify.add_argument("--m", required=True)
    p_verify.add_argument("--budget", type=_integer_flag, default=DEFAULT_BUDGET)
    p_verify.add_argument("--timing", action="store_true", help="include elapsed seconds per point")
    formats = p_verify.add_mutually_exclusive_group()
    formats.add_argument("--json", dest="format", action="store_const", const="json", default="table")
    formats.add_argument("--csv", dest="format", action="store_const", const="csv")
    p_verify.set_defaults(func=cmd_verify)

    p_map = sub.add_parser("map", help="apply the bijection (or its inverse) to one partition")
    p_map.add_argument("partition", help="partition in canonical text form")
    p_map.add_argument("--params", required=True, help="n,k,d,m")
    p_map.add_argument("--inverse", action="store_true")
    p_map.add_argument("--trace", action="store_true", help="print the full trace as JSON")
    p_map.set_defaults(func=cmd_map)

    p_count = sub.add_parser("count", help="count one class by enumeration or series")
    p_count.add_argument("--params", required=True, help="n,k,d,m")
    p_count.add_argument("--class", dest="cls", choices=["A", "B"], required=True)
    p_count.add_argument("--method", choices=["enumerate", "series"], default="enumerate")
    p_count.add_argument("--budget", type=_integer_flag, default=DEFAULT_BUDGET)
    p_count.set_defaults(func=cmd_count)

    p_series = sub.add_parser("series", help="compare both sides of an identity coefficientwise")
    p_series.add_argument("--k", type=_integer_flag, required=True)
    p_series.add_argument("--d", type=_integer_flag, default=None)
    p_series.add_argument("--m", type=_integer_flag, default=None)
    p_series.add_argument("--N", type=_integer_flag, default=60)
    p_series.add_argument("--eq1", action="store_true", help="check the classical identity instead")
    p_series.set_defaults(func=cmd_series)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()
        return status
    except ParteqError as exc:
        import json

        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return exc.exit_code
    except BrokenPipeError:
        # the reader closed stdout early, which is no verdict: 128 + SIGPIPE.
        # stdout now points at devnull, so the last flush cannot fail again
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
