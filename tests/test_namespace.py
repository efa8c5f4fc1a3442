"""The package namespace resolves each public name on first access, so
``import parkres`` loads no submodule and every name is the object its
submodule defines."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import parkres

ROOT = Path(__file__).resolve().parent.parent


def fresh(code, stdin=None) -> str:
    """Stdout of ``code`` in a fresh interpreter without site packages,
    importing the package from this checkout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, input=stdin, capture_output=True, text=True, check=True,
    ).stdout


def test_import_loads_no_submodule():
    out = fresh("import parkres, sys; print(sorted(m for m in sys.modules if m.startswith('parkres')))")
    assert out.strip() == "['parkres']"


def test_dir_covers_all_before_first_access():
    out = fresh("import parkres; print(sorted(set(parkres.__all__) - set(dir(parkres))))")
    assert out.strip() == "[]"


def test_every_public_name_is_its_submodule_object():
    namespace = {}
    exec("from parkres import *", namespace)
    assert set(parkres.__all__) <= set(namespace)
    submodules = [m for name, m in sys.modules.items() if name.startswith("parkres.")]
    for name in parkres.__all__:
        obj = getattr(parkres, name)
        assert namespace[name] is obj
        assert any(getattr(m, name, None) is obj for m in submodules), name


def test_submodules_resolve_as_attributes():
    out = fresh("import parkres; print(parkres.core.park((1, 1), 2).occupancy, parkres.brute.__name__)")
    assert out.split() == ["(1,", "2)", "parkres.brute"]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        parkres.no_such_name
    assert getattr(parkres, "BACKEND", "unknown") == "unknown"


def test_readme_examples_print_their_values():
    readme = (ROOT / "README.md").read_text()
    blocks = [b for b in re.findall(r"```python\n(.*?)```", readme, re.S) if ">>> import parkres" in b]
    assert blocks
    code = (
        "import doctest, sys; "
        "test = doctest.DocTestParser().get_doctest(sys.stdin.read(), {}, 'README', 'README.md', 0); "
        "runner = doctest.DocTestRunner(); runner.run(test); "
        "print(runner.summarize(verbose=False))"
    )
    for block in blocks:
        out = fresh(code, stdin=block)
        assert out.strip().splitlines()[-1].startswith("TestResults(failed=0,"), out
