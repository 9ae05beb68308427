"""The README's Python examples, run as doctests.

``doctest.testfile`` cannot read README.md as it stands: the closing
fence of a code block would be taken as part of the expected output.
So each ```python block is cut out and run on its own.
"""

from __future__ import annotations

import doctest
import re
from pathlib import Path

import pytest

from sortlab import trace
from sortlab.cli import BENCH_COLUMNS, main
from sortlab.network import PROOF_N_MAX, SWEEP_N_MAX, TIE_SAMPLES
from sortlab.verify import CHECK_IDS

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def python_blocks() -> list[tuple[int, str]]:
    """(first line number, source) of every ```python block."""
    text = README.read_text(encoding="utf-8")
    return [(text.count("\n", 0, match.start(1)), match.group(1)) for match in BLOCK.finditer(text)]


BLOCKS = python_blocks()


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("lineno, source", BLOCKS, ids=[f"README.md:{lineno + 1}" for lineno, _ in BLOCKS])
def test_readme_example(lineno, source):
    test = doctest.DocTestParser().get_doctest(source, {}, f"README.md:{lineno + 1}", str(README), lineno)
    assert test.examples
    runner = doctest.DocTestRunner()
    out = []
    result = runner.run(test, out=out.append)
    assert result.failed == 0, "".join(out)


def test_readme_sort_example_prints_what_the_cli_prints(tmp_path, capsys):
    command = "sortlab sort --algo icbics --input 3,1,4,2 --trace trace.jsonl"
    lines = README.read_text(encoding="utf-8").splitlines()
    printed = lines[lines.index(command) + 1]
    argv = [str(tmp_path / arg) if arg == "trace.jsonl" else arg for arg in command.split()[1:]]
    assert main(argv) == 0
    assert capsys.readouterr().out == printed + "\n"
    assert (tmp_path / "trace.jsonl").read_text(encoding="utf-8").count("\n") == 16 + 5


def test_readme_lists_the_check_ids_and_bench_columns_the_code_has():
    text = README.read_text(encoding="utf-8")
    check_ids = re.search(r"Check ids: (.*?) \(", text, re.DOTALL).group(1)
    assert tuple(re.findall(r"`([^`]+)`", check_ids)) == CHECK_IDS
    assert re.search(r"with the header\s+`([^`]+)`", text).group(1) == ",".join(BENCH_COLUMNS)


def test_readme_states_the_sweep_reach_and_tie_the_code_has():
    text = re.sub(r"\s+", " ", README.read_text(encoding="utf-8"))
    section = text[text.index("## How `pi` and `lemma1` are proved") :]
    assert int(re.search(r"one traced run of each permutation up to n = (\d+)", section).group(1)) == SWEEP_N_MAX
    reach = re.search(r"up to n = (\d+) \(`pi`\) and n = (\d+) \(`lemma1`\)", section)
    assert (int(reach.group(1)), int(reach.group(2))) == (PROOF_N_MAX["pi"], PROOF_N_MAX["lemma1"])
    assert int(re.search(r"(\d+) permutations drawn with `--seed`", section).group(1)) == TIE_SAMPLES


def test_readme_states_the_block_the_trace_reader_reads_ahead():
    text = re.sub(r"\s+", " ", README.read_text(encoding="utf-8"))
    kilo = int(re.search(r"reads ahead one block of whole lines at a time, about (\d+) k characters", text).group(1))
    assert kilo * 1024 == trace._BLOCK
