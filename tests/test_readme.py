"""The README's library example and CLI commands run as written."""

import re
import shlex
from pathlib import Path

from frobgraph.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    M, G, H = namespace["M"], namespace["G"], namespace["H"]
    assert (M.n_rows, M.n_cols) == (9, 15)
    assert namespace["frobenius_graph"](M).diameter == 4
    assert namespace["is_rich"](G, H).ok


def test_readme_cli_commands_succeed(capsys):
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"## CLI\n\n```sh\n(.*?)```", text, re.S)
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv and argv[0] == "frobgraph"]
    assert len(commands) == 8
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        capsys.readouterr()
