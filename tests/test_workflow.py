"""The CI workflow runs what the repository asks of it."""

import json
import re
from collections import Counter
from pathlib import Path

import deep

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_ci_runs_every_deep_check_once():
    # read as text, so no YAML parser is needed; a check added to deep.py
    # but to no CI step would never run there
    runs = re.findall(r"python tests/deep\.py(.*)", WORKFLOW.read_text())
    names = [name for args in runs for name in args.split()]
    assert runs and all(args.split() for args in runs), "a bare `python tests/deep.py` runs every check again"
    assert Counter(names) == Counter(list(deep.CHECKS))


def test_ci_benchmark_smoke_runs_every_workload():
    # one loop is traced and one untraced; a workload added to
    # BENCHMARK.json but not to a loop would never run there in CI
    benchmark = json.loads((WORKFLOW.parents[2] / "BENCHMARK.json").read_text())
    loops = re.findall(
        r"for workload in ([^;\n]*); do\n\s*python3 bench/run\.py --workload \"\$workload\" [^\n]*--trace (\d)\n",
        WORKFLOW.read_text(),
    )
    assert sorted(trace for _, trace in loops) == ["0", "1"]
    for names, _ in loops:
        assert Counter(names.split()) == Counter(w["name"] for w in benchmark["workloads"])
