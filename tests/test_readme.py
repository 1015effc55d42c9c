"""The README's library examples run as written and print what they say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_blocks():
    """The python blocks of the README's "## Library" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_blocks_print_what_their_comments_say(tmp_path, monkeypatch):
    blocks = _library_blocks()
    assert len(blocks) == 5
    # the trace-cache example writes its directory under the working directory
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        # each print(...) line ends in a comment holding the line it prints
        expected = [line.split("#")[-1].strip() for line in block.splitlines()
                    if line.startswith("print(")]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        assert out.getvalue().splitlines() == expected, block
    assert (tmp_path / "traces").is_dir()
