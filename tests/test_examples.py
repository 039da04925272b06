"""Every script in ``examples/`` runs to completion.

``tests/test_integration.py::TestExamples`` additionally checks the
output of the two examples that read ``service.events`` as a list.
"""

import os
import runpy

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


@pytest.mark.parametrize(
    "script", sorted(name for name in os.listdir(EXAMPLES) if name.endswith(".py"))
)
def test_example_runs(script):
    runpy.run_path(os.path.join(EXAMPLES, script), run_name="__main__")
