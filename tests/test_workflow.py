"""The CI workflow's inline Python compiles, and the files it names exist.

.github/workflows/tests.yml runs Python scripts written inline in its
`run: |` blocks: heredocs (`python - ... <<'EOF'`) and `python -c '...'`
bodies.  Each block is read as the runner's shell gets it, with the
block's indentation stripped, and each script is compiled from there, so
an indentation slip or a syntax error fails here and not only on a
runner.  Standard library only: the block scalars are read by their
indentation, not by a YAML parser.
"""

import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tests.yml")

BLOCK = re.compile(r"\brun: \|$")
HEREDOC = re.compile(r"\bpython3? - .*<<'EOF'$")
INLINE = re.compile(r"\bpython3? -c '([^']*)'")
PATHS = re.compile(r"\b(tests/fixtures/[\w.-]+\.json|bench/[\w.-]+\.py)\b")


def _text():
    with open(WORKFLOW, encoding="utf-8") as fh:
        return fh.read()


def run_blocks(text):
    """The shell text of every `run: |` block, its indentation stripped."""
    lines = text.splitlines()
    blocks = []
    for i, line in enumerate(lines):
        if not BLOCK.search(line):
            continue
        body = []
        indent = None
        for nxt in lines[i + 1:]:
            if not nxt.strip():
                body.append("")
                continue
            width = len(nxt) - len(nxt.lstrip(" "))
            if indent is None:
                indent = width
            if width < indent:
                break
            body.append(nxt[indent:])
        blocks.append("\n".join(body).rstrip("\n") + "\n")
    return blocks


def inline_scripts(text):
    """(where, source) of each heredoc and `python -c` body of the
    workflow, as its shell would pass it to Python."""
    out = []
    for n, block in enumerate(run_blocks(text)):
        lines = block.splitlines()
        for i, line in enumerate(lines):
            if HEREDOC.search(line):
                end = lines.index("EOF", i + 1)
                out.append(("block %d heredoc at line %d" % (n, i),
                            "\n".join(lines[i + 1:end]) + "\n"))
        for m in INLINE.finditer(block):
            out.append(("block %d python -c" % n, m.group(1)))
    return out


def test_every_inline_script_compiles():
    scripts = inline_scripts(_text())
    # three heredocs (the bound-200 job and its check, the golden-report
    # check) and four `python -c` readers of bench/run.py's last line
    assert sum("heredoc" in where for where, _ in scripts) == 3
    assert sum("python -c" in where for where, _ in scripts) == 4
    for where, source in scripts:
        compile(source, "tests.yml: " + where, "exec")


@pytest.mark.parametrize("bad", ["import json\n  x = 1\n", "print(\n"])
def test_a_broken_script_is_caught(bad):
    # the check itself: an indented line or an open bracket in a heredoc
    text = ("    steps:\n      - run: |\n          python - <<'EOF'\n"
            + "".join("          " + line + "\n" for line in bad.splitlines())
            + "          EOF\n")
    (where, source), = inline_scripts(text)
    with pytest.raises(SyntaxError):
        compile(source, where, "exec")


def test_named_fixtures_and_bench_scripts_exist():
    named = sorted(set(PATHS.findall(_text())))
    assert "tests/fixtures/flynn.json" in named and "bench/run.py" in named
    missing = [path for path in named
               if not os.path.isfile(os.path.join(ROOT, path))]
    assert not missing
