"""The Python examples in the README run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) >= 2
    namespace = {}  # later blocks use the names earlier ones define
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
