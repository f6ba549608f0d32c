"""The README's library sketch runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _library_sketch() -> str:
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    m = re.search(r"^## Library sketch\n+```python\n(.*?)^```$", text,
                  re.MULTILINE | re.DOTALL)
    assert m, "README has no python block under '## Library sketch'"
    return m.group(1)


def test_library_sketch_runs():
    # the block asserts a complete result with the ten points itself
    sketch = _library_sketch()
    assert "assert result.complete" in sketch
    exec(compile(sketch, "README.md", "exec"), {})
