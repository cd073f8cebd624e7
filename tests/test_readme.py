"""The README runs against the current API: its library quickstart, the constants it names
and the size of the output comparison it describes."""

import importlib
import pkgutil
import re
from pathlib import Path

import pdhglab
from compare_outputs import CONFIGS

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


def test_readme_names_only_constants_that_pdhglab_defines():
    # an upper-case constant the README names in backticks (`STEP_BLOCK`,
    # say) is defined in a pdhglab module, so a deleted one cannot linger
    names = set(re.findall(r"`([A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+)`", README.read_text()))
    modules = [
        importlib.import_module(f"pdhglab.{info.name}")
        for info in pkgutil.iter_modules(pdhglab.__path__)
    ]
    assert names
    assert {name for name in names if not any(hasattr(m, name) for m in modules)} == set()


def test_readme_states_how_many_configs_compare_outputs_runs():
    stated = re.search(r"`tests/compare_outputs\.py OLD_SRC NEW_SRC` runs (\d+) configs", README.read_text())
    assert stated, "README does not say how many configs compare_outputs.py runs"
    assert int(stated.group(1)) == len(CONFIGS)
