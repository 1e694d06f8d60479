"""The deep checks: what tier-1 leaves out for time, each with its pinned value.

    python tests/deep.py                       # every check
    python tests/deep.py full_grid count_n50   # the checks named

Prints one line per check with its time, and exits 1 if any check finds
another value than the pinned one (2 for an unknown name). The name keeps
this file out of pytest's collection. `parteq` runs as a subprocess from
this checkout's src/, as CI runs it; the checks that call test helpers
import them from this directory.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

FULL_GRID = ["--n", "0..28", "--k", "1..6", "--d", "1..4", "--m", "1..8"]
FULL_GRID_DIGEST = "0070e41f93687e5863be0dd031a9608f380c45d19e6219b9c5479662acc990d6"
_ELAPSED_RE = re.compile(rb', "elapsed": [-+.e0-9]+\}$')


def parteq(*argv: str) -> subprocess.Popen:
    """`python -m parteq.cli` on this checkout's src/, its stdout a binary pipe."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-m", "parteq.cli", *argv], stdout=subprocess.PIPE, env=env)


def verify_digest(*argv: str, strip_elapsed: bool = False) -> tuple[int, int, str]:
    """(exit status, lines, sha256) of `parteq verify argv --json`, read line by line.

    With strip_elapsed every line must end in its elapsed key, which is
    cut off before the line is hashed.
    """
    digest = hashlib.sha256()
    lines = 0
    with parteq("verify", *argv, "--json") as proc:
        for line in proc.stdout:
            lines += 1
            if strip_elapsed:
                line, cut = _ELAPSED_RE.subn(b"}", line)
                if not cut:
                    return -1, lines, f"line {lines} has no elapsed key"
            digest.update(line)
    return proc.returncode, lines, digest.hexdigest()


def stdout_of(*argv: str) -> tuple[int, str]:
    """(exit status, stdout) of one `parteq` command."""
    with parteq(*argv) as proc:
        out = proc.stdout.read().decode()
    return proc.returncode, out


def full_grid():
    """Every record of the standard grid to n = 28, in generator order."""
    return verify_digest(*FULL_GRID), (0, 5568, FULL_GRID_DIGEST)


def full_grid_timing():
    """The same records with --timing: each carries elapsed, and without it they hash the same."""
    return verify_digest(*FULL_GRID, "--timing", strip_elapsed=True), (0, 5568, FULL_GRID_DIGEST)


def grid_29_32():
    """The standard grid at n = 29..32, past tier-1's n = 28."""
    got = verify_digest("--n", "29..32", "--k", "1..6", "--d", "1..4", "--m", "1..8")
    return got, (0, 768, "1240558f55978fc3250212c655da94fe07721be6b26de2c736002e0cb5d07f1c")


def all_params_28():
    """Every (k, d, m) at each n <= 28: k, d, m in 1..28 cover them all (about 30 s)."""
    # kd > n empties both classes and m >= n gives the classes of m = n, as
    # tests/test_classes.py::test_finitely_many_cases_at_each_weight checks
    got = verify_digest("--n", "0..28", "--k", "1..28", "--d", "1..28", "--m", "1..28")
    return got, (0, 636608, "f4e9fb236413fda6f35cd563231d5035e07db64d25d5a49d28c928252a857ddf")


SERIES_DEEP = {
    ("--k", "7", "--d", "3", "--m", "4", "--N", "2000"): "eq2 k=7 d=3 m=4 N=2000: agree\n",
    ("--k", "4", "--d", "3", "--m", "7", "--N", "2000"): "eq2 k=4 d=3 m=7 N=2000: agree\n",
    ("--eq1", "--k", "3", "--N", "500"): "eq1 k=3 N=500: agree\n",
}


def series_deep():
    """Both sides of each identity at degrees tier-1 never reaches."""
    got = [stdout_of("series", *argv) for argv in SERIES_DEEP]
    return got, [(0, out) for out in SERIES_DEEP.values()]


# A and B at n = 50, past tier-1's n = 28: both B branches (m < k and m >= k) and d = 2..4
COUNTS_N50 = {"3,2,4": 9953, "7,3,4": 3866, "2,4,8": 43676, "6,2,1": 1231}


def count_n50():
    """Each class at four points of n = 50, counted by enumeration and by series."""
    got, want = {}, {}
    for kdm, count in COUNTS_N50.items():
        got[kdm] = [
            stdout_of("count", "--params", f"50,{kdm}", "--class", cls, "--method", method)
            for cls in "AB"
            for method in ("enumerate", "series")
        ]
        want[kdm] = [(0, f"{count}\n")] * 4
    return got, want


def refined_claim_28():
    """The refined claim to n = 28, past tier-1's n = 18, weight by weight.

    |o(λ)| over A, δ(κ) over B and the factored series agree at every grid
    (k, d, m), and φ keeps |o(λ)| = δ(φ(λ)) on every A member; so do the
    joint statistics (|o(λ)|, λ's largest part divisible by d) and
    (δ(κ), t(κ)), with their product count.
    """
    from test_refined_claim import weight_distributions

    return weight_distributions(28), (4176, 245575)


def inverse_without_input_check_18():
    """φ⁻¹ without its input check to n = 18, past tier-1's n = 12.

    It returns exactly on the reference members of B and raises on every
    other partition, so its final membership check of λ, together with
    _glaisher_inverse's multiplicity check on δ, catches all that its
    input check would have.
    """
    from test_bijection import inverse_without_input_check

    return inverse_without_input_check(18), 20486


def trace_invariants_18():
    """Every trace of φ on an A member and of φ⁻¹ on a B member to n = 18, 2 × 20,486.

    Its pieces add up, μ and o share no part, and every ε part exceeds m·d.
    """
    from test_bijection import trace_invariants

    return trace_invariants(18), 40972


CHECKS = {
    check.__name__: check
    for check in (
        full_grid,
        full_grid_timing,
        grid_29_32,
        all_params_28,
        series_deep,
        count_n50,
        refined_claim_28,
        inverse_without_input_check_18,
        trace_invariants_18,
    )
}


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        print(f"unknown check {', '.join(unknown)}; the checks are: {' '.join(CHECKS)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    status = 0
    for name in names or CHECKS:
        start = time.perf_counter()
        got, want = CHECKS[name]()
        seconds = time.perf_counter() - start
        if got == want:
            print(f"{name}: ok, {got!r} ({seconds:.1f} s)", flush=True)
        else:
            print(f"{name}: MISMATCH, got {got!r}, pinned {want!r} ({seconds:.1f} s)", flush=True)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
