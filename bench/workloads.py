"""The three benchmark workloads and their correctness gates.

Each workload is closed-loop and single-threaded: one caller, and the next
op starts only after the previous one completes. A workload runs in
rounds; every round repeats the same seeded ops, so the exact counts a
round reports must repeat from round to round. A round has at least
1000 ops, so that at least 10 lie beyond the p99 of their latencies. Gates run outside the
timed region and turn each wrong or raising op into a failed op.

parteq is reached through its module objects (`bijection.phi`, not a
name imported from it) so that the traced run, which swaps module
attributes, sees every call the workload makes.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import re
import time
import traceback
from dataclasses import dataclass, field

import inputs
from parteq import bijection, classes, cli, qseries
from parteq.partition import Partition

clock = time.perf_counter


@dataclass
class Round:
    """What one round did: program time, per-op latencies, gate results, exact counts."""

    busy_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    raw_busy_s: float = 0.0
    raw_latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    stdout_bytes: int = 0
    errors: list[str] = field(default_factory=list)

    def timed(self, raw: float, scale: float) -> None:
        """Record one op's latency, measured and at reference speed (see speed.py)."""
        self.raw_latencies.append(raw)
        self.latencies.append(raw * scale)
        self.raw_busy_s += raw
        self.busy_s += raw * scale

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.errors) < 5:
            self.errors.append(message)


class VerifyGrid:
    """One in-process `parteq verify ... --json` sweep; one op is one grid point.

    The grid is the input, so the seed is ignored. The warm-up sweep runs
    the plain command and its stdout must match DIGEST byte for byte.
    Timed sweeps add --timing, whose per-point `elapsed` (measured by
    verify_point itself) gives the per-op latency; with that key removed
    their stdout must match the same digest. The speed probe runs inside
    the sweep (Speed.during); its time is taken out of the sweep's, and
    adds to the `elapsed` of the few points it interrupts.
    """

    name = "verify-grid"
    N_MAX = 14
    ARGV = ["verify", "--n", f"0..{N_MAX}", "--k", "1..6", "--d", "1..4", "--m", "1..8", "--json"]
    POINTS = [(n, k, d, m) for n in range(N_MAX + 1) for k in inputs.GRID_K for d in inputs.GRID_D for m in inputs.GRID_M]
    # sha256 of the plain sweep's stdout at the commit that added this benchmark.
    DIGEST = "b72925f986e5ecac5daf99ecd648d2a44f5cc37a5b322036fea49f8eb78f15df"
    _ELAPSED = re.compile(r', "elapsed": [-+.e0-9]+\}$', re.M)

    def __init__(self, seed: int):
        pass  # the grid is the input

    def round(self, warmup: bool, speed) -> Round:
        argv = self.ARGV if warmup else self.ARGV + ["--timing"]
        r = Round(attempted=len(self.POINTS))
        buf = io.StringIO()
        with speed.during() as probes:
            start = clock()
            try:
                with contextlib.redirect_stdout(buf):
                    status = cli.main(argv)
            except Exception:
                status = None
                r.fail(traceback.format_exc(), len(self.POINTS))
            wall = clock() - start
        r.raw_busy_s = wall - probes["probe_s"]
        r.busy_s = r.raw_busy_s * probes["scale"]
        if status is None:
            return r
        out = buf.getvalue()
        r.stdout_bytes = len(out.encode())
        if status != 0:
            r.fail(f"exit status {status}", len(self.POINTS))
            return r
        lines = out.splitlines()
        if len(lines) != len(self.POINTS):
            r.fail(f"{len(lines)} records for {len(self.POINTS)} grid points", len(self.POINTS))
            return r
        plain = out if warmup else self._ELAPSED.sub("}", out)
        if hashlib.sha256(plain.encode()).hexdigest() != self.DIGEST:
            r.fail("stdout digest differs from the recorded one", len(self.POINTS))
            return r
        records = [json.loads(line) for line in lines]
        members = 0
        for rec, line, point in zip(records, lines, self.POINTS):
            counts = {rec["count_A"], rec["count_B"], rec["coeff_lhs"], rec["coeff_rhs"]}
            if (rec["n"], rec["k"], rec["d"], rec["m"]) != point or not rec["pass"] or len(counts) != 1:
                r.fail(f"bad record {line}")
                continue
            members += rec["count_A"]
        r.counts = {"grid_points": len(lines), "members_A": members}
        if not warmup:
            self._scale_latencies(r, [rec["elapsed"] for rec in records], probes["probes"], wall)
        return r

    @staticmethod
    def _scale_latencies(r: Round, elapsed: list[float], probes: list[tuple[float, float]], wall: float) -> None:
        """Scale each point's latency by the probe taken last before the point ran.

        Records carry no start time, so a point is placed at its share of
        the summed `elapsed` of the points before it, stretched to the
        sweep's wall time.
        """
        offsets = [offset for offset, _ in probes]
        stretch = wall / sum(elapsed)
        done = 0.0
        for x in elapsed:
            _, scale = probes[bisect.bisect_right(offsets, done * stretch) - 1]
            r.raw_latencies.append(x)
            r.latencies.append(x * scale)
            done += x


class MapStream:
    """Round trips through the bijection at n = 60..200; one op is one round trip.

    An A-start op is parse -> phi -> render -> parse -> phi_inverse, a
    B-start op the same in the inverse order; both serialise their two
    traces to JSON, which is what `parteq map --trace` prints.
    """

    name = "map-stream"
    OPS = 2000

    def __init__(self, seed: int):
        self.ops = inputs.map_stream_ops(seed, self.OPS)

    def round(self, warmup: bool, speed) -> Round:
        r = Round(attempted=len(self.ops))
        parse = Partition.parse
        for start, text, params in self.ops:
            forward, backward = (bijection.phi, bijection.phi_inverse) if start == "A" else (bijection.phi_inverse, bijection.phi)
            scale = speed.tick()
            t0 = clock()
            try:
                cp = classes.ClassParams(*params)
                image, first = forward(parse(text), cp)
                image_text = image.render()
                reparsed = parse(image_text)
                back, second = backward(reparsed, cp)
                traces = first.to_json(), second.to_json()
            except Exception:
                r.timed(clock() - t0, scale)
                r.fail(f"{start} {text!r} {params}: {traceback.format_exc()}")
                continue
            r.timed(clock() - t0, scale)
            target = inputs.in_B if start == "A" else inputs.in_A
            if (
                inputs.render(dict(back.entries)) != text
                or reparsed != image
                or not target(inputs.parse(image_text), *params)
                or any({doc["lambda"], doc["kappa"]} != {text, image_text} for doc in map(json.loads, traces))
            ):
                r.fail(f"{start} {text!r} {params}: round trip gave {image_text!r} -> {dict(back.entries)}")
        r.counts = {"round_trips": len(self.ops), "parts_in": sum(len(t.split()) for _, t, _ in self.ops)}
        return r


class SeriesDeep:
    """Exact identity checks at large truncation degree; one op is one check.

    An eq2 op builds both sides of the finite identity for one (k,d,m), an
    eq1 op both sides of the classical identity; each compares them with
    first_difference. The first LOW coefficients of both sides must also
    equal a knapsack count of A written in inputs.py, so two equal but
    wrong series still fail.
    """

    name = "series-deep"
    LOW = 40

    def __init__(self, seed: int):
        self.ops = inputs.series_deep_ops(seed)
        self.expected = {}
        for ident, k, d, m, _ in self.ops:
            key = (k, 2, None) if ident == "eq1" else (k, d, m)
            if key not in self.expected:
                self.expected[key] = inputs.count_A_table(*key, self.LOW)

    def round(self, warmup: bool, speed) -> Round:
        r = Round(attempted=len(self.ops))
        for ident, k, d, m, N in self.ops:
            scale = speed.tick()
            t0 = clock()
            try:
                if ident == "eq1":
                    lhs, rhs = qseries.solutionI_sides(k, N)
                else:
                    lhs, rhs = qseries.lhs_series(k, d, m, N), qseries.rhs_series(k, d, m, N)
                diff = qseries.first_difference(lhs, rhs)
            except Exception:
                r.timed(clock() - t0, scale)
                r.fail(f"{ident} k={k} d={d} m={m} N={N}: {traceback.format_exc()}")
                continue
            r.timed(clock() - t0, scale)
            want = self.expected[(k, 2, None) if ident == "eq1" else (k, d, m)]
            low = [list(side.coefficients[: self.LOW + 1]) for side in (lhs, rhs)]
            if diff is not None or lhs.truncation_degree != N or low != [want, want]:
                r.fail(f"{ident} k={k} d={d} m={m} N={N}: first difference {diff}")
        r.counts = {"identity_checks": len(self.ops), "coefficients_compared": sum(op[4] + 1 for op in self.ops)}
        return r


WORKLOADS = {w.name: w for w in (VerifyGrid, MapStream, SeriesDeep)}
