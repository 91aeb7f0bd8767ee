"""The README's library example runs as written."""

import re
from pathlib import Path

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
