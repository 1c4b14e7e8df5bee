"""The README's library tour runs as written and prints what it says."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
TOUR_OUTPUT = ["('<A>', '<R>')", "('<B>', '<L>')", "('<A>', '<R>')", "['()']"]


def test_readme_library_tour_runs_as_written():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue().splitlines() == TOUR_OUTPUT
