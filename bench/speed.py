"""Machine-speed probe: a fixed pure-Python loop, timed between ops.

The shared machines this benchmark runs on change speed by 20-50% from
one second to the next and from one minute to the next, far more than
the regressions it must catch. Longer runs and medians do not remove
that: whole runs land in slow spells. So every timing is scaled to a
reference speed: the probe below is timed between ops (at most every
INTERVAL_S of work; inside a long call, from a timer signal), and a
time t measured while the probe took p seconds is reported as
t * NOMINAL_S / p, the time it would have taken on a machine where the
probe takes NOMINAL_S.

The probe mixes the two kinds of work parteq does: small dicts, tuples
and strings (partitions) and additions of growing integers (series).
It imports nothing from parteq, so no change to parteq can move it, and
it runs with the garbage collector off, so objects parteq leaves alive
cannot slow it either. Do not edit it: that would rescale every timing.
"""

from __future__ import annotations

import contextlib
import gc
import random
import signal
import time

NOMINAL_S = 0.00085  # the probe's median time on a 2-core Xeon KVM guest, Python 3.11
INTERVAL_S = 0.1


def probe() -> None:
    rng = random.Random(0)
    for _ in range(30):
        acc: dict[int, int] = {}
        for _ in range(12):
            p = rng.randrange(1, 40)
            acc[p] = acc.get(p, 0) + 1
        " ".join(f"{p}^{c}" if c > 1 else str(p) for p, c in sorted(acc.items(), reverse=True))
    c = [1] + [0] * 600
    for e in range(1, 11):
        for i in range(e, 601):
            c[i] += c[i - e]


def probe_seconds(samples: int = 2) -> float:
    """The fastest of `samples` timed probes, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(samples):
            start = time.perf_counter()
            probe()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Scale from measured to reference-speed seconds, refreshed every INTERVAL_S."""

    def __init__(self, interrupt: bool = True):
        self.interrupt = interrupt  # False: during() probes only before and after its block
        self.scales: list[float] = []
        self._due = 0.0
        self.scale = 1.0

    def tick(self, force: bool = False) -> float:
        """The current scale; probes first if INTERVAL_S has passed since the last probe."""
        if force or time.perf_counter() >= self._due:
            self.scale = NOMINAL_S / probe_seconds()
            self.scales.append(self.scale)
            self._due = time.perf_counter() + INTERVAL_S
        return self.scale

    @contextlib.contextmanager
    def during(self):
        """Probe every INTERVAL_S of wall time inside one long call, from a SIGALRM handler.

        Yields a dict that, once the block ends, holds "probes": (offset
        from the block's start in seconds, scale) for the probe before
        the block and each probe inside it; "scale": the mean of those
        and the probe after the block; and "probe_s": the wall time the
        probes inside the block took, to subtract from the block's.
        """
        out = {"probe_s": 0.0, "probes": [(0.0, self.tick(force=True))]}
        start = time.perf_counter()

        def handler(signum, frame):
            begin = time.perf_counter()
            out["probes"].append((begin - start, NOMINAL_S / probe_seconds()))
            out["probe_s"] += time.perf_counter() - begin

        if self.interrupt:
            previous = signal.signal(signal.SIGALRM, handler)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield out
        finally:
            if self.interrupt:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            scales = [scale for _, scale in out["probes"]] + [self.tick(force=True)]
            self.scales.extend(scales[1:-1])
            out["scale"] = sum(scales) / len(scales)
