"""Every ```python block of README.md runs as written, each on its own in a
temporary directory."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_the_recipes_are_code_blocks():
    # the end-to-end example and the recipe for the state between samples
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("i", range(len(BLOCKS)), ids=lambda i: f"block{i + 1}")
def test_readme_block_runs(i, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PTB_OUTPUT_DIR", raising=False)
    exec(compile(BLOCKS[i], f"README.md, python block {i + 1}", "exec"), {"__name__": "readme"})
