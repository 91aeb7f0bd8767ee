import pytest

from frobgraph.errors import InvalidPermutation, ParseError
from frobgraph.perm import Permutation, format_cycles, parse_cycles


def test_identity_and_composition():
    p = Permutation.from_cycles(3, [(0, 1)])
    q = Permutation.from_cycles(3, [(0, 1, 2)])
    assert (p * p).is_identity()
    assert (p * q).images != (q * p).images
    # function composition: right factor acts first
    assert (p * q)(0) == p(q(0))


def test_inverse_and_order():
    q = Permutation.from_cycles(5, [(0, 1, 2), (3, 4)])
    assert (q * q.inverse()).is_identity()
    assert q.order() == 6
    assert q ** 6 == Permutation.identity(5)
    assert q ** -1 == q.inverse()


def test_associativity_random():
    import random

    rng = random.Random(7)
    for _ in range(50):
        a, b, c = (
            Permutation(tuple(rng.sample(range(6), 6))) for _ in range(3)
        )
        assert (a * b) * c == a * (b * c)


def test_not_bijective_rejected():
    with pytest.raises(InvalidPermutation):
        Permutation((0, 0, 1))
    with pytest.raises(InvalidPermutation):
        Permutation((0, 2))


def test_cycle_type():
    q = Permutation.from_cycles(6, [(0, 1, 2), (3, 4)])
    assert q.cycle_type() == (1, 2, 3)


def test_format_parse_roundtrip():
    q = Permutation.from_cycles(5, [(0, 1), (2, 3, 4)])
    text = format_cycles(q)
    assert text == "(1,2)(3,4,5)"
    assert parse_cycles(text, degree=5) == q
    assert format_cycles(Permutation.identity(4)) == "()"
    assert parse_cycles("()", degree=4) == Permutation.identity(4)
    # whitespace between cycles is skipped
    assert parse_cycles("(1,2) (3,4)", degree=5) == Permutation.from_cycles(5, [(0, 1), (2, 3)])


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_cycles("(1,2,3,4,5)", degree=4)  # point out of range
    with pytest.raises(ParseError):
        parse_cycles("(1,2)(2,3)", degree=4)  # repeated point
    with pytest.raises(ParseError):
        parse_cycles("(1,2", degree=4)  # unterminated
    with pytest.raises(ParseError, match="1-based"):
        parse_cycles("(0,1)", degree=4)
    with pytest.raises(ParseError, match="expected '\\('"):
        parse_cycles("1,2", degree=4)  # no parentheses
    with pytest.raises(ParseError, match="empty permutation"):
        parse_cycles("", degree=4)
    err = None
    try:
        parse_cycles("(1,x)", degree=4, line=3)
    except ParseError as exc:
        err = exc
    assert err is not None and err.line == 3
