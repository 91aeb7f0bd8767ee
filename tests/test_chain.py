"""The stabilizer chain behind group closure, cap refusals and |G'|.

The closure oracle is a schoolbook breadth-first search over image tuples,
written here apart from the library's chain and its `orbit` helper.
"""

from itertools import combinations

import pytest
from helpers import group

from frobgraph import group as group_module
from frobgraph.catalog import CATALOG_SPECS, construct, expected_order, parse_group_spec
from frobgraph.cli import main
from frobgraph.errors import DeskScaleExceeded, InternalInconsistency
from frobgraph.group import (
    PermGroup,
    conjugacy_classes,
    derived_order,
    derived_subset,
    group_from_generators,
    normal_closure_order,
)
from frobgraph.perm import Permutation

SURVEY = (
    "PSL2:16", "PSL2:17", "PSL2:19", "PSL2:23", "PSL2:25", "PSL2:27",
    "A7", "Named:M11", "S7", "SL2:13", "SL2:17", "SL2:19",
)
SPECS = [s.label() for s in CATALOG_SPECS] + list(SURVEY)
ABOVE_THE_CUTOFF = [s for s in SPECS if expected_order(parse_group_spec(s)) > 2048]
SIMPLE = ("Named:M11", "A7", "PSL2:16", "PSL2:17", "PSL2:19", "PSL2:23", "PSL2:25", "PSL2:27")
CAP_MESSAGE = "group closure exceeded order cap 10080"


def schoolbook_closure(degree, generators):
    """Every product of the generators, by breadth-first search from the
    identity; p * g composed point by point."""
    start = tuple(range(degree))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = tuple(p[g.images[x]] for x in range(degree))
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


@pytest.mark.parametrize("spec", SPECS)
def test_chain_closure_equals_a_schoolbook_closure(spec):
    G = group(spec)
    assert G.order == expected_order(parse_group_spec(spec))
    assert set(G.elements) == schoolbook_closure(G.degree, G.generators)


def test_closure_of_degenerate_generator_lists():
    one = Permutation.identity(1)
    for G in (group_from_generators(1, []), group_from_generators(1, [one, one])):
        assert G.order == 1 and G.elements == (one.images,)
    e = Permutation.identity(5)
    G = group_from_generators(5, [e, e])
    assert G.order == 1 and G.generators == (e, e)
    c = Permutation.from_cycles(4, [(0, 1, 2, 3)])
    t = Permutation.from_cycles(4, [(0, 1)])
    G = group_from_generators(4, [c, c, t, c, t])
    assert G.order == 24 and len(G.generator_indices) == 5
    assert set(G.elements) == schoolbook_closure(4, [c, t])


def _refuse_to_list(monkeypatch):
    def listed(*args):
        raise AssertionError("a refused closure built a PermGroup")
    monkeypatch.setattr(group_module, "PermGroup", listed)


def test_cap_refusal_lists_no_element(monkeypatch):
    cycle = Permutation.from_cycles(128, [tuple(range(128))])
    swap = Permutation.from_cycles(128, [(0, 1)])
    _refuse_to_list(monkeypatch)
    with pytest.raises(DeskScaleExceeded) as s128:
        group_from_generators(128, [cycle, swap])
    with pytest.raises(DeskScaleExceeded) as sl2_23:
        construct(parse_group_spec("SL2:23"))
    assert str(s128.value) == str(sl2_23.value) == CAP_MESSAGE


def test_cli_refuses_sl2_23_at_the_cap(capsys, monkeypatch):
    _refuse_to_list(monkeypatch)
    assert main(["table", "--group", "SL2:23"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {CAP_MESSAGE}\n"


@pytest.mark.parametrize("spec", ["S4", "S7"])
def test_a_repeated_element_is_refused(spec):
    # S4 is read through its table index, S7 through its base-image dict
    G = group(spec)
    with pytest.raises(InternalInconsistency, match="repeated element"):
        PermGroup(G.degree, G.generators, G.elements + G.elements[-1:])


@pytest.mark.parametrize("spec", SIMPLE)
def test_every_nontrivial_class_has_the_whole_group_as_normal_closure(spec):
    G = group(spec)
    reps = conjugacy_classes(G).rep_indices[1:]
    assert all(normal_closure_order(G, [r]) == G.order for r in reps)


@pytest.mark.parametrize("spec", ABOVE_THE_CUTOFF)
def test_chain_derived_order_equals_the_derived_subset(spec):
    G = group(spec)
    gens = G.generator_indices
    inv = G.inverse
    comms = [G.mult(G.mult(inv(a), inv(b)), G.mult(a, b)) for a, b in combinations(gens, 2)]
    assert normal_closure_order(G, comms) == derived_order(G) == len(derived_subset(G, gens))


def test_normal_closure_of_a_proper_normal_subgroup():
    # the double transpositions of S4 close to the Klein four-group, a 3-cycle to A4
    G = group("S4")
    pos = lambda *cycles: G.position(Permutation.from_cycles(4, cycles).images)
    assert normal_closure_order(G, [pos((0, 1), (2, 3))]) == 4
    assert normal_closure_order(G, [pos((0, 1, 2))]) == 12
    assert normal_closure_order(G, [0]) == 1
