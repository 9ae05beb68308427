"""The package's public list: every name in ``sortlab.__all__`` exists,
and none is listed twice; and what ``import sortlab`` loads."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("module", ["sortlab.trace", "sortlab.network"])
def test_import_sortlab_trace_loads_neither_the_cli_nor_its_parsers(module):
    # The trace format and the proofs sit below the CLI, so a library caller of either pays for none
    # of these, and neither can import the CLI back.
    probe = f"import sys; old = set(sys.modules); import {module}; print(*sys.modules.keys() - old)"
    run = subprocess.run([sys.executable, "-E", "-s", "-c", probe], cwd=SRC, capture_output=True, text=True, check=True)
    added = set(run.stdout.split())
    assert module in added
    assert added.isdisjoint({"sortlab.cli", "sortlab.network", "argparse", "csv", "json"} - {module})


def test_the_cli_holds_the_trace_module_s_own_load_and_write():
    # perfbench wraps these in sortlab.cli, so each must be the one implementation, not a copy;
    # and a patch of cli._BLOCK would never reach the reader, so the CLI has no such name.
    from sortlab import cli, trace, verify

    assert cli.load_trace is trace.load_trace
    assert cli.write_trace is trace.write_trace
    assert cli.check_pi_invariant is verify.check_pi_invariant
    assert cli.check_lemma1 is verify.check_lemma1
    assert not hasattr(cli, "_BLOCK")
