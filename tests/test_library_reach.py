"""What the `parteq` command reaches of the library, and which errors it can report.

Every command, output format and error path runs in-process under
sys.setprofile. The library functions that none of them enters are listed
below, each with the reason it stays; a function that joins them is code
no command needs, and an error type that no input reports is one the
command cannot raise.
"""

import json
import sys

from parteq import bijection, classes, cli, errors, partition, qseries
from parteq.errors import ParteqError

MODULES = (errors, partition, classes, bijection, qseries, cli)

UNENTERED = {
    "errors.Value.__init_subclass__": "runs at import, when each value class is defined",
    "errors.Value.__repr__": "the value contract",
    "errors.Value.__setattr__": "the value contract",
    "errors.Value.__delattr__": "the value contract",
    "partition.Partition.__init__": "the validating guard of the public class",
    "partition.Partition.from_pairs": "pinned by the benchmark's trace targets",
    "partition.Partition.from_parts": "pinned by the benchmark's trace targets",
    "partition.Partition.conjugate": "pinned by the benchmark's trace targets",
    "bijection.finite_glaisher_forward": "pinned by the benchmark's trace targets",
    "bijection.finite_glaisher_inverse": "pinned by the benchmark's trace targets",
}

LAMBDA = "15^2 12 11 9 8 7^4 6^2 5 3 2^2 1"
KAPPA = "21 18 11 8 7^4 5 4^3 3^3 2^5 1"
GRID = ("verify", "--n", "0..6", "--k", "1..2", "--d", "1..2", "--m", "1..2")

COMMANDS = [
    (*GRID, "--json", "--timing"),
    (*GRID, "--csv"),
    GRID,
    # p(8) = 22 is over the budget, so n = 8 gets refusal records
    ("verify", "--n", "5..8", "--k", "1", "--d", "2", "--m", "1", "--budget", "15", "--json"),
    ("map", LAMBDA, "--params", "123,7,3,4"),
    ("map", LAMBDA, "--params", "123,7,3,4", "--trace"),
    ("map", KAPPA, "--params", "123,7,3,4", "--inverse"),
    ("map", KAPPA, "--params", "123,7,3,4", "--inverse", "--trace"),
    *(
        ("count", "--params", "6,1,3,2", "--class", cls, "--method", method)
        for cls in ("A", "B")
        for method in ("enumerate", "series")
    ),
    ("series", "--k", "2", "--d", "2", "--m", "3", "--N", "20"),
    ("series", "--eq1", "--k", "2", "--N", "20"),
    # one malformed input per error type the command reports
    ("map", "3x", "--params", "3,1,2,1"),
    ("series", "--k", "x"),
    ("map", "3", "--params", "3,1,2,4"),
    ("map", "3", "--params", "3,1,2,4", "--inverse"),
    ("count", "--params", "40,1,2,4", "--class", "A", "--budget", "10"),
]


def library_functions() -> dict:
    """Each function and method defined in the library, by code object, as 'module.qualname'."""
    names = {}
    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[1]
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            for member in vars(obj).values() if isinstance(obj, type) else (obj,):
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                member = getattr(member, "__wrapped__", member)  # count_partitions' cache
                if hasattr(member, "__code__"):
                    names[member.__code__] = f"{short}.{member.__qualname__}"
    return names


def test_commands_reach_all_but_the_listed_functions_and_report_every_error(capsys):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    # a cached count would answer without entering count_partitions
    classes.count_partitions.cache_clear()
    reported = set()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in COMMANDS:
            cli.main(list(argv))
            err = capsys.readouterr().err
            reported.update(json.loads(line)["error"] for line in err.splitlines())
    finally:
        sys.setprofile(previous)

    unentered = {name for code, name in library_functions().items() if code not in entered}
    assert unentered == set(UNENTERED)
    error_types = {
        name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, ParteqError)
    }
    # InternalError is raised only when a self-check of the bijection fails
    assert reported == error_types - {"ParteqError", "InternalError"}
