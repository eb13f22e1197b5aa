"""README's code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text()
    block = re.search(r"^```python\n(.*?)^```$", text, re.S | re.M)
    # the first python block is the one of the "Library quick start" section
    section = text[:block.start()].rsplit("\n## ", 1)[-1]
    assert section.startswith("Library quick start")
    exec(compile(block.group(1), f"{README.name} quick start", "exec"), {})
    assert capsys.readouterr().out
