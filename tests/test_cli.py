import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from frobgraph.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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
        capsys, "analyze", "--group", "Named:G80", "--subgroup-order", "4", "--all-classes"
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


def test_catalog_listing(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    assert "Named:G351" in out and "order 351" in out


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


def test_prime_order_selector(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--group", "A4", "--prime-order"
    )
    assert code == 0
    assert out.count("subgroup class") == 2  # one class each of order 2, 3


def test_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "analyze", "--group", "NoSuch99x")
    assert code == 1
    assert "error:" in err


def test_show_tables(capsys):
    code, out, _ = run_cli(
        capsys,
        "analyze", "--group", "S3", "--subgroup-order", "2", "--show-tables",
    )
    assert code == 0
    assert "character table of G:" in out


def test_sylow_one_fails_without_hanging():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "frobgraph", "analyze", "--group", "S4", "--sylow", "1"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 1
    assert "takes a prime" in proc.stderr


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
