import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import Hang, deadline

from frobgraph.catalog import CATALOG_SPECS, construct, expected_order, parse_group_spec
from frobgraph.cli import main
from frobgraph.group import derived_subgroup
from frobgraph.subgroups import enumerate_subgroup_classes


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


GOLDEN_TABLE_ROWS = Path(__file__).resolve().parent / "golden" / "table_rows.json"


@pytest.mark.parametrize("spec", ["SL2:5", "C12"])
def test_table_rows_are_printed_at_the_least_conductor(capsys, spec):
    # both tables hold values that descend: 1 + z(5)^2 + z(5)^3, z(3)^1
    code, out, _ = run_cli(capsys, "table", "--group", spec, "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"] == json.loads(GOLDEN_TABLE_ROWS.read_text())[spec]


def test_analyze_s3_order2(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--group", "S3", "--subgroup-order", "2"
    )
    assert code == 0
    assert "diameter 4" in out
    assert "depth: 3" in out
    assert "rich: no" in out


def test_analyze_g80_order4_classes(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--group", "Named:G80", "--subgroup-order", "4"
    )
    assert code == 0
    assert out.count("class ") == 7
    assert out.count("diameter three: yes") == 1


def test_analyze_d12_sylow(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--group", "Named:D12", "--sylow", "2")
    assert code == 0
    assert "components 2" in out
    assert "depth: 3" in out


def test_analyze_explicit_generators(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--group", "S4", "--subgroup", "(1,2);(3,4)"
    )
    assert code == 0
    assert "subgroup <(1,2);(3,4)>" in out


def test_scan_a5(capsys):
    code, out, _ = run_cli(capsys, "scan", "--group", "A5")
    assert code == 0
    assert "n=9 g=2 m=2" in out


def test_scan_agl194_no_diameter_three(capsys):
    code, out, _ = run_cli(capsys, "scan", "--group", "AGL1:9:4")
    assert code == 0
    assert "n=10 g=0 m=0" in out  # no rich subgroup at all, so no diameter 3


def test_scan_check_minimal(capsys):
    code, out, _ = run_cli(capsys, "scan", "--group", "A4", "--check-minimal")
    assert code == 0
    assert "minimal with a nontrivial rich subgroup: True" in out


def test_scan_check_minimal_json(capsys):
    code, out, _ = run_cli(capsys, "scan", "--group", "A4", "--check-minimal", "--format", "json")
    assert code == 0
    assert json.loads(out)["minimal_rich"] is True


def test_scan_refuses_perfect_seeding_at_order_3600(capsys):
    code, out, err = run_cli(capsys, "scan", "--group", "A5xA5")
    assert code == 1 and out == ""
    assert err == "error: perfect-subgroup seeding is only guaranteed below order 3600\n"


def test_scan_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "scan", "--group", "A4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1 and payload["n"] == 5
    from frobgraph.cli import render_json

    rendered = render_json({k: v for k, v in payload.items() if k != "schema"})
    assert rendered == out


def test_table_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "table", "--group", "S3")
    assert code == 0 and "T=4 k=3 b=2" in out
    code, out, _ = run_cli(capsys, "table", "--group", "S3", "--format", "json")
    payload = json.loads(out)
    assert payload["order"] == 6
    assert payload["rows"][0] == ["1", "1", "1"]


def test_table_of_m11(capsys):
    # oracle: the ATLAS degrees of M11; M11 is simple, so it is perfect
    code, out, _ = run_cli(capsys, "table", "--group", "Named:M11", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 7920 and len(payload["class_sizes"]) == 10
    degrees = sorted(int(row[0]) for row in payload["rows"])
    assert degrees == [1, 10, 10, 10, 11, 16, 16, 44, 45, 55]
    G = construct(parse_group_spec("Named:M11"))
    assert derived_subgroup(G).is_whole()


def test_dot_output(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--group", "S3", "--subgroup-order", "2", "--format", "dot"
    )
    assert code == 0
    assert out.startswith("graph frobenius {")


def test_analyze_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--group", "S3", "--subgroup-order", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["analyses"][0]["diameter"] == 4
    assert payload["analyses"][0]["depth"]["minimal_depth"] == 3
    from frobgraph.cli import render_json

    assert render_json({k: v for k, v in payload.items() if k != "schema"}) == out


def test_analyze_all_classes_json_covers_every_proper_class(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--group", "S4", "--all-classes", "--format", "json")
    assert code == 0
    orders = [a["subgroup_order"] for a in json.loads(out)["analyses"]]
    assert orders == [1, 2, 2, 3, 4, 4, 4, 6, 8, 12]
    G = construct(parse_group_spec("S4"))
    assert orders == [c.order for c in enumerate_subgroup_classes(G) if not c.rep.is_whole()]


@pytest.mark.parametrize("argv, message", [
    (["scan", "--group", "A5", "--format", "dot"], "invalid choice: 'dot'"),
    (["table", "--group", "S3", "--format", "dot"], "invalid choice: 'dot'"),
    (["catalog", "--format", "dot"], "invalid choice: 'dot'"),
    (["catalog", "--cap", "5"], "unrecognized arguments: --cap 5"),
    (["analyze", "--group", "S4", "--sylow", "2", "--subgroup-order", "3"],
     "argument --subgroup-order: not allowed with argument --sylow"),
    (["analyze", "--group", "Named:G80", "--subgroup-order", "4", "--all-classes"],
     "argument --all-classes: not allowed with argument --subgroup-order"),
])
def test_options_a_command_would_ignore_are_refused(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("usage: frobgraph")
    assert message in out.err


def test_catalog_listing(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    assert "Named:G351" in out and "order 351" in out


def test_catalog_json_lists_every_spec(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--format", "json")
    assert code == 0
    listed = [(row["spec"], row["order"]) for row in json.loads(out)["catalog"]]
    assert listed == [(spec.label(), expected_order(spec)) for spec in CATALOG_SPECS]
    assert len(listed) == 40


def test_seed_file(tmp_path, capsys):
    f = tmp_path / "grp.txt"
    f.write_text("degree 3\n(1,2)\n(1,2,3)\n")
    code, out, _ = run_cli(
        capsys, "analyze", "--seed-file", str(f), "--subgroup-order", "2"
    )
    assert code == 0
    assert "order 6" in out


def test_seed_file_over_the_degree_cap_fails(tmp_path, capsys):
    f = tmp_path / "grp.txt"
    f.write_text("degree 129\n(1,2)\n")
    code, out, err = run_cli(capsys, "analyze", "--seed-file", str(f), "--prime-order")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "degree 129" in err


@pytest.mark.parametrize("source", ["--seed-file", "--group"])
def test_generator_file_of_degree_zero_fails(tmp_path, capsys, source):
    f = tmp_path / "grp.txt"
    f.write_text("degree 0\n")
    arg = str(f) if source == "--seed-file" else f"file:{f}"
    code, out, err = run_cli(capsys, "table", source, arg)
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: degree must be at least 1"]


def test_subgroup_generator_outside_the_group_fails(capsys):
    code, out, err = run_cli(capsys, "analyze", "--group", "A4", "--subgroup", "(1,2)")
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: generator (1,2) is not in the group"]


@pytest.mark.parametrize("source", ["--seed-file", "--group"])
@pytest.mark.parametrize("content", [None, b"\xd0\xff"], ids=["missing", "binary"])
def test_unreadable_generator_file_fails(tmp_path, capsys, source, content):
    f = tmp_path / "boxed.txt"
    if content is not None:
        f.write_bytes(content)
    arg = str(f) if source == "--seed-file" else f"file:{f}"
    code, out, err = run_cli(capsys, "table", source, arg)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and str(f) in err


def test_prime_order_selector(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--group", "A4", "--prime-order"
    )
    assert code == 0
    assert out.count("subgroup class") == 2  # one class each of order 2, 3


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--group", "NoSuch99x"],
        ["analyze", "--group", "S5"],
        ["analyze"],
        ["analyze", "--group", "S5", "--subgroup", "(0,1)"],
        ["analyze", "--group", "S5", "--subgroup", "1,2"],
        ["analyze", "--group", "S5", "--subgroup", ";"],
        ["analyze", "--seed-file", "{comment_only}", "--prime-order"],
    ],
    ids=[
        "unknown-group", "no-selector", "no-group", "zero-point", "no-parenthesis",
        "empty-permutation", "no-degree-header",
    ],
)
def test_error_exit_code(tmp_path, capsys, argv):
    comment_only = tmp_path / "grp.txt"
    comment_only.write_text("# generators of S5\n")
    argv = [a.format(comment_only=comment_only) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert "error:" in err
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_show_tables(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze", "--group", "S3", "--subgroup-order", "2", "--show-tables",
    )
    assert code == 0
    assert "character table of G:" in out


@pytest.mark.parametrize("spec, seconds", [("EA:5:3", 5), ("C64", 2)])
def test_large_abelian_tables_answer_in_time(spec, seconds):
    # a fresh interpreter, so no kept table answers; measured at about 1.2 s
    # (EA:5:3) and 0.2 s (C64) wall on a 2-CPU machine
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    try:
        with deadline(seconds):
            proc = subprocess.run(
                [sys.executable, "-m", "frobgraph", "table", "--group", spec, "--format", "json"],
                capture_output=True, text=True, env=env,
            )
    except Hang:
        pytest.fail(f"table --group {spec} ran past {seconds} s")
    assert proc.returncode == 0
    table = json.loads(proc.stdout)
    degrees = [int(row[0]) for row in table["rows"]]
    assert sum(d * d for d in degrees) == table["order"]


def test_sylow_one_fails_without_hanging():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "frobgraph", "analyze", "--group", "S4", "--sylow", "1"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 1
    assert "takes a prime" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["catalog"],
    ["analyze", "--group", "Named:D12", "--all-classes"],
])
def test_closed_stdout_fails_quietly(argv):
    # the read end is closed before the child starts, so its first write to
    # stdout meets a broken pipe
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "frobgraph", *argv],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60, env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


@pytest.mark.parametrize("p", ["4", "0", "-2", "5", "1000000000000000003"])
def test_sylow_must_be_a_prime_divisor(capsys, p):
    code, out, err = run_cli(capsys, "analyze", "--group", "S4", "--sylow", p)
    assert code == 1
    assert "takes a prime" in err
    assert out == ""


def test_selector_matching_nothing_fails(capsys):
    code, out, err = run_cli(capsys, "analyze", "--group", "S4", "--subgroup-order", "7")
    assert code == 1
    assert "no subgroup class matches" in err
    assert out == ""


def test_prime_order_does_not_enumerate(capsys, monkeypatch):
    def refuse(G):
        raise AssertionError("full enumeration is not needed for --prime-order")

    monkeypatch.setattr("frobgraph.cli.enumerate_subgroup_classes", refuse)
    code, out, _ = run_cli(capsys, "analyze", "--group", "A4", "--prime-order")
    assert code == 0
    assert out.count("subgroup class") == 2


# "²" (superscript two) passes str.isdigit but not int()
@pytest.mark.parametrize("argv, text, message", [
    (["--seed-file", "{f}", "--prime-order"], "degree ²\n(1,2)\n", 'first line must be "degree N"'),
    (["--seed-file", "{f}", "--prime-order"], "degree 3\n(1,²)\n", "bad point '²'"),
    (["--group", "file:{f}", "--prime-order"], "degree 3\n(1,²)\n", "bad point '²'"),
    (["--group", "S3", "--subgroup", "(1,²)"], "", "bad point '²'"),
])
def test_unicode_digit_is_a_parse_error(tmp_path, capsys, argv, text, message):
    f = tmp_path / "grp.txt"
    f.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", *(a.format(f=f) for a in argv))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: " + message)


_FUZZ_SEEDS = [
    "S3", "S4", "A4", "A5", "C6", "C12", "D8", "Named:D12", "EA:2:3", "EA:3:2",
    "AGL1:5", "AGL1:7", "AGL1:9:4", "SL2:3", "PSL3:2", "S3xC4", "C2xA4", "Named:G80",
]
# the same digit as a fullwidth, Arabic-Indic, NKo or superscript character:
# int() reads the first three, str.isdecimal rejects the last
_ODD_DIGITS = [
    lambda d: chr(0xFF10 + d),
    lambda d: chr(0x0660 + d),
    lambda d: chr(0x07C0 + d),
    lambda d: "⁰¹²³⁴⁵⁶⁷⁸⁹"[d],
]


def _mutate(spec, rng):
    """spec with two digits swapped, or one number field retyped in other
    digits, signed, emptied or blown up.

    No digit takes a new value short of a huge number, which the caps
    refuse: a small changed value can name a valid abelian group such as
    EA:5:3, whose table takes about a second (most of it the exact
    verification), which is a cost of the table and not of the parser under
    test here."""
    digits = [i for i, c in enumerate(spec) if c.isdigit()]
    a, b = rng.choice([m.span() for m in re.finditer(r"\d+", spec)])
    field = spec[a:b]
    op = rng.randrange(5)
    if op == 0 and len(digits) > 1:
        i, j = sorted(rng.sample(digits, 2))
        return spec[:i] + spec[j] + spec[i + 1:j] + spec[i] + spec[j + 1:]
    if op <= 1:
        new = "".join(rng.choice(_ODD_DIGITS)(int(c)) for c in field)
    elif op == 2:
        new = rng.choice("-+") + field
    elif op == 3:
        new = ""
    else:
        new = str(10 ** rng.randrange(6, 40) + rng.randrange(10))
    return spec[:a] + new + spec[b:]


def test_mutated_table_specs_answer_or_fail_cleanly(capsys):
    # every mutant is either a group whose table prints as JSON or one
    # error line with exit code 1, within a few seconds
    rng = random.Random(20261019)
    mutants = [_mutate(rng.choice(_FUZZ_SEEDS), rng) for _ in range(40)]
    codes = []
    for spec in mutants:
        try:
            with deadline(3):
                code, out, err = run_cli(capsys, "table", f"--group={spec}", "--format", "json")
        except Hang:
            pytest.fail(f"table --group {spec!r} ran past 3 s")
        if code == 0:
            assert json.loads(out)["order"] >= 1, spec
        else:
            assert code == 1 and out == "", spec
            assert len(err.splitlines()) == 1 and err.startswith("error: "), spec
        codes.append(code)
    assert 0 in codes and 1 in codes
