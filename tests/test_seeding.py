"""Perfect-subgroup seeding: the two facts it rests on, and its output pinned.

Every perfect subgroup lies in the solvable residual D (the last term of the
derived series), and a perfect group has no subgroup of index 2, 3 or 4.
The golden file holds, per class of each enumeration, the order, the class
length, the representative's generator indices and a sha256 of its sorted
element indices.  It was recorded while seeding still closed pairs of all
of G up to order |G|/2, so it checks that the bounded search finds the same
classes with the same generators.  Regenerate it with
`PYTHONPATH=src python tests/test_seeding.py`, and only when a change is
meant to alter the enumeration.
"""

import hashlib
import json
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from helpers import group

from frobgraph.cli import main
from frobgraph.group import derived_subset, solvable_residual
from frobgraph.subgroups import classify_subgroups, enumerate_subgroup_classes

GOLDEN = Path(__file__).resolve().parent / "golden"
SEEDING_GOLDEN = GOLDEN / "seeding_classes.json"
S6_ALL_CLASSES = GOLDEN / "analyze_S6_all_classes.txt"

# every nonsolvable group of SCAN_SPECS, then larger ones and a direct
# product whose residual A5 is too small to hold a proper perfect subgroup
PINNED = (
    "S5", "S6", "A5", "A6", "SL2:5", "SL2:7", "SL2:9", "SL2:11", "PSL3:2",
    "PSL2:8", "PSL2:11", "PSL2:13", "A7", "PSL2:17", "S7", "S3xA5",
)
PERFECT = ("A5", "PSL3:2", "SL2:5", "A6", "PSL2:8", "PSL2:11", "SL2:7", "PSL2:13")


def class_records(G):
    """Per class: order, length, generator indices, sha256 of the sorted indices."""
    return [
        [
            c.order,
            c.length,
            list(c.rep.generator_indices),
            hashlib.sha256(repr(c.rep.sorted_indices()).encode()).hexdigest(),
        ]
        for c in enumerate_subgroup_classes(G)
    ]


def analyze_s6_all_classes():
    """Text stdout of `frobgraph analyze --group S6 --all-classes`."""
    out = StringIO()
    with redirect_stdout(out):
        assert main(["analyze", "--group", "S6", "--all-classes"]) == 0
    return out.getvalue()


@pytest.mark.parametrize("spec", PINNED)
def test_enumeration_matches_the_golden(spec):
    assert class_records(group(spec)) == json.loads(SEEDING_GOLDEN.read_text())[spec]


def test_s6_all_classes_output_matches_the_golden():
    assert analyze_s6_all_classes() == S6_ALL_CLASSES.read_text()


@pytest.mark.parametrize("spec", PERFECT)
def test_perfect_groups_have_no_subgroup_of_index_2_3_or_4(spec):
    G = group(spec)
    assert solvable_residual(G)[0] == frozenset(range(G.order))
    assert all(G.order // c.order > 4 for c in enumerate_subgroup_classes(G)
               if c.order < G.order)


@pytest.mark.parametrize("spec", ("S5", "S6", "S3xA5", "S7"))
def test_perfect_classes_lie_in_the_solvable_residual(spec):
    G = group(spec)
    D, gens = solvable_residual(G)
    assert derived_subset(G, gens) == D and len(D) < G.order
    perfect = [c for c in enumerate_subgroup_classes(G)
               if c.order > 1 and len(derived_subset(G, c.rep.generator_indices)) == c.order]
    assert perfect and any(c.rep.indices == D for c in perfect)
    assert all(c.rep.indices <= D for c in perfect)


def test_solvable_groups_have_a_trivial_residual():
    for spec in ("S4", "Named:G351", "AGL1:25"):
        assert solvable_residual(group(spec))[0] == frozenset((0,))


# (n, g, m, maximal rich orders) of the survey groups too slow for Tier-1
SURVEY_ROWS = {
    "PSL2:23": (23, 11, 5, [6, 6, 8, 11, 12]),
    "Named:M11": (39, 10, 7, [4, 5, 6, 6, 6, 8, 8]),
    "PSL2:25": (37, 19, 9, [8, 10, 10, 12, 12, 12, 12, 12, 13]),
    "PSL2:27": (16, 10, 6, [9, 12, 13, 14, 14, 14]),
}


@pytest.mark.slow
@pytest.mark.parametrize("spec", SURVEY_ROWS)
def test_survey_rows(spec):
    report = classify_subgroups(group(spec))
    assert (report.n, report.g, report.m, report.maximal_rich_orders) == SURVEY_ROWS[spec]


if __name__ == "__main__":
    SEEDING_GOLDEN.write_text(json.dumps(
        {spec: class_records(group(spec)) for spec in PINNED}, indent=0) + "\n")
    S6_ALL_CLASSES.write_text(analyze_s6_all_classes())
