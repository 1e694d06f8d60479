"""Partition class equinumerosity: enumeration, bijection, q-series oracles."""
