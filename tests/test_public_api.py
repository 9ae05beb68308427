"""The package's public list: every name in ``sortlab.__all__`` exists,
and none is listed twice; and what ``import sortlab`` loads."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import sortlab

SRC = Path(__file__).resolve().parents[1] / "src"


def test_star_import_binds_every_public_name_once():
    namespace: dict = {}
    exec("from sortlab import *", namespace)  # raises AttributeError on a stale entry
    assert len(set(sortlab.__all__)) == len(sortlab.__all__)
    assert set(sortlab.__all__) <= namespace.keys()


def test_import_sortlab_loads_neither_the_cli_nor_its_modules():
    # Every benchmark workload's setup time includes this import; -c puts src first on the path.
    probe = "import sys; old = set(sys.modules); import sortlab; print(*sys.modules.keys() - old)"
    run = subprocess.run([sys.executable, "-E", "-s", "-c", probe], cwd=SRC, capture_output=True, text=True, check=True)
    added = set(run.stdout.split())
    submodules = {"sortlab.metrics", "sortlab.oracle", "sortlab.sortcore", "sortlab.verify"}
    assert {name for name in added if name.partition(".")[0] == "sortlab"} == {"sortlab", *submodules}
    assert added.isdisjoint({"argparse", "csv", "json", "statistics"})
