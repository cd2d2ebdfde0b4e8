"""The bitmask relation core, checked against the set-of-pairs reference in
``support``."""

from hypothesis import given, settings, strategies as st

import support
from litmusdiff.relations import bits, is_acyclic
from support import from_pairs, pairs


@st.composite
def relations(draw, max_size=10):
    """(size, pairs) over events ``0 .. size-1``, dense enough to hold
    cycles, self-loops and isolated events often."""
    size = draw(st.integers(0, max_size))
    if size == 0:
        return 0, set()
    event = st.integers(0, size - 1)
    return size, draw(st.sets(st.tuples(event, event), max_size=2 * size))


@settings(max_examples=200, deadline=None)
@given(relations())
def test_pairs_round_trip(relation):
    size, edges = relation
    rows = from_pairs(edges, size)
    assert len(rows) == size
    assert pairs(rows) == edges
    assert from_pairs(pairs(rows), size) == rows


@given(st.integers(0, 2 ** 70))
def test_bits_lists_set_bits_lowest_first(mask):
    assert list(bits(mask)) == [b for b in range(mask.bit_length())
                                if mask >> b & 1]


@settings(max_examples=300, deadline=None)
@given(relations(), st.integers(0, 2 ** 10 - 1))
def test_is_acyclic_matches_reference(relation, mask):
    size, edges = relation
    rows = from_pairs(edges, size)
    assert is_acyclic(rows) == support.pair_acyclic(edges, set(range(size)))
    nodes = {n for n in range(size) if mask >> n & 1}
    assert is_acyclic(rows, mask) == support.pair_acyclic(edges, nodes)


def test_is_acyclic_edge_cases():
    assert is_acyclic([])
    assert is_acyclic([0] * 5)
    assert not is_acyclic(from_pairs({(2, 2)}, 4))          # self-loop
    assert is_acyclic(from_pairs({(2, 2)}, 4), 0b1011)       # masked out
    # two disconnected parts, a chain and a cycle
    rows = from_pairs({(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)}, 6)
    assert not is_acyclic(rows)
    assert is_acyclic(rows, 0b000111)
    assert not is_acyclic(rows, 0b111000)
    # a chain running down in id order takes several sweeps
    assert is_acyclic(from_pairs({(5, 4), (4, 3), (3, 2), (2, 1)}, 6))

