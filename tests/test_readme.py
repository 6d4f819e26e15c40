"""The Python examples of README.md run and print what their comments say."""

import contextlib
import io
import re
import tokenize
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
QUOTES = str.maketrans("", "", "'\"")


def printed_comments(code):
    """The comment of every line that starts with print(, without its #
    and its quotes."""
    lines = code.splitlines()
    return [tok.string.lstrip("#").strip().translate(QUOTES)
            for tok in tokenize.generate_tokens(io.StringIO(code).readline)
            if tok.type == tokenize.COMMENT
            and lines[tok.start[0] - 1].lstrip().startswith("print(")]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block{i + 1}" for i in range(len(BLOCKS))])
def test_readme_example_prints_its_comments(code):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
    printed = out.getvalue().splitlines()
    expected = printed_comments(code)
    assert len(printed) == len(expected)
    for line, comment in zip(printed, expected):
        assert comment.startswith(line), (line, comment)
