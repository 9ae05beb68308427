"""The quick demos in ``demos/`` run to the end and print their punchline.

``growth_curves.py`` is left out: it spends seconds timing runs.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "script, line",
    [
        ("watch_it_sort.py", "replay check: True"),
        ("extremal_inputs.py", "  max swaps 22  (= n(n-1)/2 + 1 = 22)"),
    ],
)
def test_demo_runs(capsys, script, line):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert line in capsys.readouterr().out.splitlines()
