"""Every derived result is computed once per object and kept on it."""

import pytest

import frobgraph.group as group_module
from frobgraph.chartab import character_table
from frobgraph.frobenius import _hclass_of, _mackey_intersections, frobenius_matrix
from frobgraph.group import (
    Subgroup,
    conjugacy_classes,
    derived_subgroup,
    group_from_generators,
    is_solvable,
    normalizer,
)
from frobgraph.perm import parse_cycles
from frobgraph.subgroups import enumerate_subgroup_classes


def fresh(degree, *cycles):
    """A new group object each call, so nothing is kept on it yet."""
    return group_from_generators(degree, [parse_cycles(c, degree=degree) for c in cycles])


def s4_and_subgroup():
    G = fresh(4, "(1,2)", "(1,2,3,4)")
    return G, G.subgroup([parse_cycles("(1,2)(3,4)", degree=4)])


# (attribute, call, object the result is kept on)
CALLS = [
    ("_classdata", lambda G, H: conjugacy_classes(G), lambda G, H: G),
    ("_normalizer", lambda G, H: normalizer(G, H), lambda G, H: H),
    ("_derived", lambda G, H: derived_subgroup(G), lambda G, H: G),
    ("_solvable", lambda G, H: is_solvable(G), lambda G, H: G),
    ("_sorted", lambda G, H: H.sorted_indices(), lambda G, H: H),
    ("_as_group", lambda G, H: H.as_group(), lambda G, H: H),
    ("_chartable", lambda G, H: character_table(G), lambda G, H: G),
    ("_conj_values", lambda G, H: character_table(G).conj_values(),
     lambda G, H: character_table(G)),
    ("_fmatrix", lambda G, H: frobenius_matrix(G, H), lambda G, H: H),
    ("_hclass_of", lambda G, H: _hclass_of(H), lambda G, H: H),
    ("_mackey", lambda G, H: _mackey_intersections(G, H), lambda G, H: H),
    ("_subgroup_classes", lambda G, H: enumerate_subgroup_classes(G), lambda G, H: G),
]


@pytest.mark.parametrize("attr, call, owner", CALLS, ids=[c[0] for c in CALLS])
def test_second_call_returns_the_kept_object(attr, call, owner):
    G, H = s4_and_subgroup()
    first = call(G, H)
    assert owner(G, H).__dict__[attr] is first
    assert call(G, H) is first


def test_falsy_result_is_not_recomputed(monkeypatch):
    calls = []
    original = group_module.derived_subset

    def counting(G, gens):
        calls.append(gens)
        return original(G, gens)

    monkeypatch.setattr(group_module, "derived_subset", counting)
    A5 = fresh(5, "(1,2,3)", "(1,2,3,4,5)")
    assert is_solvable(A5) is False
    assert calls
    before = len(calls)
    assert is_solvable(A5) is False
    assert len(calls) == before


def test_equal_subgroups_keep_their_own_results():
    G, H = s4_and_subgroup()
    twin = Subgroup(G, H.indices, H.generator_indices)
    assert twin is not H and twin.indices == H.indices
    for attr, call, owner in CALLS:
        if owner(G, H) is not H:
            continue
        mine, theirs = call(G, H), call(G, twin)
        assert mine is not theirs, attr
        assert H.__dict__[attr] is mine and twin.__dict__[attr] is theirs
    assert normalizer(G, twin).indices == normalizer(G, H).indices
    assert frobenius_matrix(G, twin).entries == frobenius_matrix(G, H).entries
