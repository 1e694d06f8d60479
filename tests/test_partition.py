import copy
import pickle
import re

import pytest

from parteq.bijection import finite_glaisher_forward, finite_glaisher_inverse, phi, phi_inverse
from parteq.classes import ClassParams, enumerate_partitions
from parteq.errors import DomainError, ParseError, Value
from parteq.partition import Partition, _weigh
from parteq.qseries import TruncatedSeries

from conftest import EMPTY, field, largest_part, multiplicity, union, weight


def test_weight_empty():
    assert _weigh(EMPTY.entries) == weight(EMPTY) == 0


def test_weight_worked_examples():
    p = Partition.parse("15^2 12 11 9 8 7^4 6^2 5 3 2^2 1")
    assert _weigh(p.entries) == weight(p) == 123
    p = Partition.parse("24 21 20 17 15 14^4 9 7^2 2^5 1^3")
    assert _weigh(p.entries) == weight(p) == 189


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
    assert union(EMPTY, p) == p
    assert union(p, EMPTY) == p


def test_add_worked_example():
    mu = Partition.parse("15^2 12 9 6^2 3")
    o = Partition.parse("11 8 7^4 5 2^2 1")
    assert union(mu, o) == Partition.parse("15^2 12 11 9 8 7^4 6^2 5 3 2^2 1")


def test_add_merges_multiplicities():
    assert union(Partition.parse("2"), Partition.parse("2")) == Partition.parse("2^2")


def test_parse_worked_example():
    p = Partition.parse("15^2 12 11 9 8 7^4 6^2 5 3 2^2 1")
    assert multiplicity(p, 15) == 2
    assert multiplicity(p, 7) == 4
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


@pytest.mark.parametrize("text", [None, 0, []], ids=["None", "zero", "empty-list"])
def test_parse_rejects_non_str(text):
    # falsy, so none may pass as the empty text ''
    with pytest.raises(DomainError, match="expected partition text"):
        Partition.parse(text)


# more digits than int() reads from text by default (4300)
LONG = "9" * 5000


# the bad token follows multi-character tokens, so an offset counted in
# tokens (2) or one off by a space (6, 8) differs from the true 7; the
# match is anchored at both ends, so 70..79 cannot pass for 7 either
@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param("12^3 7 x", "malformed token 'x' at position 7", id="malformed"),
        pytest.param("12^3 7 7", "parts must be strictly descending at position 7", id="not-descending"),
        pytest.param("12^3 7 " + LONG, "integer too long in token at position 7", id="overlong"),
    ],
)
def test_parse_error_position(text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        Partition.parse(text)


@pytest.mark.parametrize("text", [pytest.param(f"7 {LONG}", id="part"), pytest.param(f"7 5^{LONG}", id="multiplicity")])
def test_parse_rejects_overlong_integer_at_its_token(text):
    with pytest.raises(ParseError, match="^integer too long in token at position 2$"):
        Partition.parse(text)


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


def test_trusted_and_validated_partitions_are_interchangeable():
    p = Partition(((2, 1),))
    trusted = Partition._trusted(((2, 1),))
    assert repr(trusted) == repr(p) == "Partition(entries=((2, 1),))"
    assert trusted == p
    assert hash(trusted) == hash(p)
    for original in (trusted, p, Partition._trusted(((3, 2), (1, 1)))):
        for copied in (pickle.loads(pickle.dumps(original)), copy.copy(original)):
            assert copied == original
            assert hash(copied) == hash(original)
            assert repr(copied) == repr(original)


def test_trusted_and_validated_params_are_interchangeable():
    params = ClassParams(123, 7, 3, 4)
    trusted = ClassParams._trusted(123, 7, 3, 4)
    assert trusted == params and params == trusted
    assert hash(trusted) == hash(params)
    assert repr(trusted) == repr(params) == "ClassParams(n=123, k=7, d=3, m=4)"
    assert list(vars(trusted).items()) == list(vars(params).items()) == [("n", 123), ("k", 7), ("d", 3), ("m", 4)]
    for value in (trusted, params):
        for name in ("n", "k", "d", "m"):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
        assert vars(value) == {"n": 123, "k": 7, "d": 3, "m": 4}


@pytest.mark.parametrize(
    "make, fields, text",
    [
        (ClassParams, (123, 7, 3, 4), "ClassParams(n=123, k=7, d=3, m=4)"),
        (TruncatedSeries, ((1, 0),), "TruncatedSeries(coefficients=(1, 0))"),
        (Partition, (((2, 1),),), "Partition(entries=((2, 1),))"),
    ],
    ids=["ClassParams", "TruncatedSeries", "Partition"],
)
def test_immutable_values(make, fields, text):
    value = make(*fields)
    assert value == make(*fields) and hash(value) == hash(make(*fields))
    assert value != fields and fields != value
    assert repr(value) == text
    [name, *_] = vars(value)
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert repr(value) == text
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert copied == value and hash(copied) == hash(value) and repr(copied) == text


@pytest.mark.parametrize("cls", [ClassParams, Partition, TruncatedSeries])
def test_value_policy_is_written_once(cls):
    # equality, hash, repr and the two guards come from Value alone
    methods = {"__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"}
    assert issubclass(cls, Value)
    assert methods <= set(vars(Value))
    assert not methods & set(vars(cls))


def test_partition_holds_only_its_entries():
    # every way a partition is built leaves nothing in the instance dict
    # but the one field
    params = ClassParams(123, 7, 3, 4)
    kappa, forward = phi(Partition.parse("15^2 12 11 9 8 7^4 6^2 5 3 2^2 1"), params)
    lam, _ = phi_inverse(Partition.parse("21 18 11 8 7^4 5 4^3 3^3 2^5 1"), params)
    built = [
        Partition(((5, 2), (3, 1))),
        Partition(),
        Partition._trusted(((4, 1), (1, 3))),
        Partition.parse("15^2 12 11 9 8 7^4 6^2 5 3 2^2 1"),
        Partition.from_pairs([(2, 3), (7, 1), (2, 1)]),
        Partition.from_parts([4, 2, 2, 1]),
        Partition.parse("6 4^2 1").conjugate(),
        union(Partition.parse("6 4^2 1"), Partition.parse("5 4 2")),
        finite_glaisher_forward(Partition.parse("3^5 1^7"), 2, 4),
        finite_glaisher_inverse(Partition.parse("8 6 3 2 1"), 2, 4),
        kappa,
        lam,
        field(forward, "mu_star"),
    ]
    for n in range(13):
        built.extend(enumerate_partitions(n))
    for p in built:
        assert vars(p) == {"entries": p.entries}


@pytest.mark.parametrize("pairs", [[3], [(3, 1, 1)]], ids=["int", "triple"])
def test_from_pairs_rejects_item_not_a_pair(pairs):
    with pytest.raises(DomainError, match=r"expected a \(part, multiplicity\) pair"):
        Partition.from_pairs(pairs)


def test_from_pairs_accepts_any_two_item_iterable():
    assert Partition.from_pairs([[3, 1], iter((1, 2))]) == Partition.parse("3 1^2")
