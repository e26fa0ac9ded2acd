"""Every example imports cleanly and runs only under its ``main()``.

No CI job runs the examples, so this catches an example whose imports
went stale, or one that starts its experiment on import.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_found():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports_and_defines_main(path):
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
