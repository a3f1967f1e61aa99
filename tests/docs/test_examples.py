"""Every example script imports cleanly against the current API.

Each module is loaded without running its ``main()`` (the examples guard
it with ``if __name__ == "__main__"``), so a rename or deletion in
``repro`` that an example still uses fails here instead of at a user's
first run.
"""

from __future__ import annotations

import glob
import importlib.util
import os

import pytest

_EXAMPLES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "examples",
)


@pytest.mark.parametrize(
    "path",
    sorted(glob.glob(os.path.join(_EXAMPLES, "*.py"))),
    ids=os.path.basename,
)
def test_example_imports(path):
    name = "example_" + os.path.splitext(os.path.basename(path))[0]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
