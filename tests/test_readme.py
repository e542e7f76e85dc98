"""README's library quick tour runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_tour_prints_what_it_says():
    text = README.read_text()
    block = re.search(r"## Library quick tour\n\n```python\n(.*?)```", text, re.S).group(1)
    assert "# NullTwoType (0.0, 0.0, 1.0)" in block
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    verdict, *report = out.getvalue().splitlines()
    assert verdict == "NullTwoType (0.0, 0.0, 1.0)"
    assert report[0] == "operator: SecondForm"
    assert "verdict: SIMinimal" in report
