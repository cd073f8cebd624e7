"""The README's library quickstart runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs():
    text = README.read_text()
    block = re.search(r"```python\n(.*?)```", text, flags=re.DOTALL)
    assert block, "README has no python block"
    # pad with blank lines so tracebacks point at README line numbers
    source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
    namespace = {}
    exec(compile(source, str(README), "exec"), namespace)
    assert namespace["slack"].size
