"""The README quick example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_example_runs(capsys):
    text = README.read_text()
    block = re.search(r"Quick example:\n\n```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["elliptic", "True"]
