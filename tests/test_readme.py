"""The README's library example runs and prints the values it claims."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    block = re.search(r"## Library example\s+```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(block.group(1), {})
    f, t, v = map(float, printed.getvalue().split())
    assert (f"{f:.3g}", f"{t:.3g}", f"{v:.3g}") == ("0.738", "1.17", "0.504")
