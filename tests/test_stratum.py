import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tensortopo import (StratumDescriptor, StratumSyntaxError, format_stratum,
                        parse_stratum)

CANONICAL = [
    "rank:r=1;shape=3,4,5;field=real",
    "rank:r=2;shape=3,3,3;field=complex",
    "brank:r=3;shape=2,2,2;field=real",
    "mrank:r=2,2,2;shape=3,3,3;field=real",
    "mrank:r=4,2,2;shape=4,2,2;field=real",
    "sym-rank:d=3;n=4;r=2;field=real",
    "sym-mrank:d=2;n=4;r=3;field=real",
]


@pytest.mark.parametrize("text", CANONICAL)
def test_round_trip_canonical(text):
    assert format_stratum(parse_stratum(text)) == text


def test_key_order_does_not_matter():
    a = parse_stratum("sym-mrank:r=3;d=2;n=4;field=real")
    b = parse_stratum("sym-mrank:d=2;n=4;r=3;field=real")
    assert a == b


def test_parsed_fields():
    s = parse_stratum("mrank:r=4,2,2;shape=5,2,2;field=real")
    assert s.kind == "mrank"
    assert s.rank == (4, 2, 2)
    assert s.shape == (5, 2, 2)
    assert s.field == "real"
    t = parse_stratum("sym-rank:d=3;n=4;r=2;field=complex")
    assert (t.dim, t.order, t.rank, t.field) == (4, 3, 2, "complex")


BAD = [
    ("", 0),
    ("nope:r=1;field=real", 0),
    ("rank:r=1;shape=3", 16),
    ("rank:r=x;shape=3,4;field=real", 7),
    ("rank:r=1;shape=3,4;field=quaternion", 25),
    ("sym-brank:d=4;n=3;r=2;field=complex", 0),
]


@pytest.mark.parametrize("text,position", BAD)
def test_syntax_errors_carry_position(text, position):
    with pytest.raises(StratumSyntaxError) as info:
        parse_stratum(text)
    assert info.value.position == position


def test_mrank_requires_matching_lengths():
    with pytest.raises(StratumSyntaxError):
        parse_stratum("mrank:r=2,2;shape=3,3,3;field=real")


def test_invalid_values_rejected():
    with pytest.raises(StratumSyntaxError):
        parse_stratum("rank:r=-1;shape=3,4;field=real")
    with pytest.raises(StratumSyntaxError):
        parse_stratum("rank:r=1;shape=3,0;field=real")
    with pytest.raises(StratumSyntaxError):
        # inadmissible: 3^2 > 3 * 1 * 1
        parse_stratum("mrank:r=3,1,1;shape=3,2,2;field=real")
    with pytest.raises(StratumSyntaxError):
        parse_stratum("mrank:r=4,2,2;shape=3,2,2;field=real")


asym_kinds = st.sampled_from(["rank", "brank"])
sym_kinds = st.sampled_from(["sym-rank", "sym-mrank"])
fields = st.sampled_from(["real", "complex"])
dims = st.integers(min_value=1, max_value=9)


@st.composite
def descriptors(draw):
    branch = draw(st.integers(min_value=0, max_value=2))
    field = draw(fields)
    if branch == 0:
        shape = tuple(draw(st.lists(dims, min_size=2, max_size=4)))
        return StratumDescriptor(draw(asym_kinds), field,
                                 draw(st.integers(1, 9)), shape=shape)
    if branch == 1:
        shape = tuple(draw(st.lists(dims, min_size=2, max_size=4)))
        ranks = tuple(draw(st.integers(1, n)) for n in shape)
        total = math.prod(ranks)
        assume(all(r * r <= total for r in ranks))
        return StratumDescriptor("mrank", field, ranks, shape=shape)
    return StratumDescriptor(draw(sym_kinds), field, draw(st.integers(1, 9)),
                             dim=draw(dims), order=draw(st.integers(2, 6)))


@settings(max_examples=200, deadline=None)
@given(descriptors())
def test_format_parse_round_trip(s):
    assert parse_stratum(format_stratum(s)) == s
