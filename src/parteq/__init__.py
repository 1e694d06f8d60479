"""Partition class equinumerosity: enumeration, bijection, q-series oracles."""

from .bijection import (
    BijectionTrace,
    finite_glaisher_forward,
    finite_glaisher_inverse,
    glaisher_forward,
    glaisher_inverse,
    phi,
    phi_inverse,
)
from .classes import (
    ClassParams,
    count_partitions,
    enumerate_A,
    enumerate_B,
    enumerate_partitions,
    is_in_A,
    is_in_B,
)
from .partition import EMPTY, Partition
from .qseries import (
    PochhammerSpec,
    TruncatedSeries,
    first_difference,
    lhs_series,
    rhs_series,
    solutionI_check,
)

__version__ = "0.1.0"

__all__ = [
    "BijectionTrace",
    "ClassParams",
    "EMPTY",
    "Partition",
    "PochhammerSpec",
    "TruncatedSeries",
    "count_partitions",
    "enumerate_A",
    "enumerate_B",
    "enumerate_partitions",
    "finite_glaisher_forward",
    "finite_glaisher_inverse",
    "first_difference",
    "glaisher_forward",
    "glaisher_inverse",
    "is_in_A",
    "is_in_B",
    "lhs_series",
    "phi",
    "phi_inverse",
    "rhs_series",
    "solutionI_check",
]
