import copy
import pickle

import pytest

from parteq.errors import ParseError
from parteq.partition import Partition

from conftest import EMPTY, largest_part


def test_weight_empty():
    assert EMPTY.weight() == 0


def test_weight_worked_examples():
    p = Partition.parse("15^2 12 11 9 8 7^4 6^2 5 3 2^2 1")
    assert p.weight() == 123
    p = Partition.parse("24 21 20 17 15 14^4 9 7^2 2^5 1^3")
    assert p.weight() == 189


def test_conjugate_worked_examples():
    p = Partition.parse("15^2 12 9 6^2 3")
    assert p.conjugate() == Partition.parse("7^3 6^3 4^3 3^3 2^3")
    p = Partition.parse("24 21 15 9")
    assert p.conjugate() == Partition.parse("4^9 3^6 2^6 1^3")


def test_conjugate_empty():
    assert EMPTY.conjugate() == EMPTY


def test_conjugate_single_column():
    assert Partition.parse("1^5").conjugate() == Partition.parse("5")


def test_add_identity():
    p = Partition.parse("4 2 1")
    assert EMPTY + p == p
    assert p + EMPTY == p


def test_add_worked_example():
    mu = Partition.parse("15^2 12 9 6^2 3")
    o = Partition.parse("11 8 7^4 5 2^2 1")
    assert mu + o == Partition.parse("15^2 12 11 9 8 7^4 6^2 5 3 2^2 1")


def test_add_merges_multiplicities():
    assert Partition.parse("2") + Partition.parse("2") == Partition.parse("2^2")


def test_parse_worked_example():
    p = Partition.parse("15^2 12 11 9 8 7^4 6^2 5 3 2^2 1")
    assert p.multiplicity(15) == 2
    assert p.multiplicity(7) == 4
    assert sum(mult for _, mult in p.entries) == 17


def test_parse_empty():
    assert Partition.parse("") == EMPTY
    assert EMPTY.render() == ""


def test_parse_rejects_zero_part():
    with pytest.raises(ParseError):
        Partition.parse("3 0")


@pytest.mark.parametrize(
    "bad",
    ["3 3", "2 3", "3^1", "3^0", "03", "3^02", "3  2", " 3", "3 ", "a", "3^", "-2", "٣", "5 ٣", "３^2"],
)
def test_parse_rejects_noncanonical(bad):
    with pytest.raises(ParseError):
        Partition.parse(bad)


def test_parse_error_position():
    with pytest.raises(ParseError) as info:
        Partition.parse("5 x")
    assert info.value.position == 2


def test_render_round_trip():
    for text in ["", "1", "9^3", "7 5^2 3 1^4"]:
        assert Partition.parse(text).render() == text


def test_largest_part_and_counts():
    p = Partition.parse("6 4^2 1")
    assert largest_part(p) == 6
    assert sum(mult for _, mult in p.entries) == 4
    assert tuple(part for part, mult in p.entries for _ in range(mult)) == (6, 4, 4, 1)


def test_invalid_construction():
    with pytest.raises(ValueError):
        Partition(((2, 0),))
    with pytest.raises(ValueError):
        Partition(((0, 1),))
    with pytest.raises(ValueError):
        Partition(((2, 1), (3, 1)))
    with pytest.raises(ValueError):
        Partition(((3, 0),))
    with pytest.raises(ValueError):
        Partition(((1, 1), (2, 1)))
    with pytest.raises(ValueError):
        Partition.from_pairs([(0, 1)])
    with pytest.raises(ValueError):
        Partition.from_pairs([(3, -1)])
    # a negative multiplicity is rejected even when another pair for the
    # same part would make up the deficit
    with pytest.raises(ValueError):
        Partition.from_pairs([(3, -1), (3, 2)])
    with pytest.raises(ValueError):
        Partition.from_pairs([(5, -2), (5, 3), (1, 1)])


@pytest.mark.parametrize(
    "entries",
    [[(3, 1), (1, 2)], ((2.5, 1),), ((2, 1.0),), ((True, 1),), ([3, 1],), ((3,),), ((3, 1, 1),), "31"],
)
def test_constructor_rejects_entries_not_int_pair_tuples(entries):
    with pytest.raises(ValueError):
        Partition(entries)


def test_weight_field_stays_out_of_repr_eq_and_hash():
    p = Partition(((2, 1),))
    assert repr(p) == "Partition(entries=((2, 1),))"
    trusted = Partition._trusted(((2, 1),))
    assert trusted == p
    assert hash(trusted) == hash(p)
    assert trusted.weight() == p.weight() == 2
    # once read, the cached weight still stays out of repr, eq and hash,
    # whether or not the other side has read its own
    fresh = Partition(((2, 1),))
    assert repr(trusted) == repr(p) == repr(fresh) == "Partition(entries=((2, 1),))"
    assert trusted == fresh and p == fresh
    assert hash(trusted) == hash(fresh)
    # copies are equal and keep the weight, read or not
    for original in (trusted, fresh, Partition._trusted(((3, 2), (1, 1)))):
        for copied in (pickle.loads(pickle.dumps(original)), copy.copy(original)):
            assert copied == original
            assert hash(copied) == hash(original)
            assert copied.weight() == original.weight()
