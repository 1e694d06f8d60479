"""The CI workflow runs what the repository asks of it."""

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
