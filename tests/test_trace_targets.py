"""The traced benchmark patches parteq by name; every name it patches must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(module)
        if "." in attr:
            # Tracer.install reads methods from the class __dict__, not by inheritance
            cls_name, attr = attr.split(".")
            assert attr in vars(getattr(owner, cls_name)), f"{module}.{cls_name}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{module}.{attr}"
