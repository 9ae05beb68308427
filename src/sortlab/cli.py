"""Command-line front end.

Three subcommands: ``sort`` runs one algorithm on one input and prints
a JSON report, ``verify`` runs the property checks and prints a JSON
verdict, ``bench`` times every algorithm and emits per-run records.

Exit codes: 0 on success (for ``verify``, only when every selected
check passed), 1 when a verification check fails or the reader closes
stdout early, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import random
import re
import string
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, astuple, dataclass, fields, replace
from functools import lru_cache, partial
from itertools import chain, product, repeat, zip_longest
from operator import lt
from pathlib import Path
from statistics import fmean
from typing import Callable, Generator, Iterable, Iterator, Optional, Sequence

from .metrics import swap_bounds
from .oracle import (
    EXHAUSTIVE_CAP,
    OracleSummary,
    enumerate_permutations,
    exhaustive_summary,
    random_suite,
    theorem2_extremal_inputs,
    theorem4_extremal_input,
)
from .sortcore import (
    ALGORITHMS,
    KIND_COMPARE,
    KIND_SWAP,
    PHASE_INSERTION,
    PHASE_NA,
    PHASE_SELECTION,
    TraceEvent,
    icbics_sort,
)
from .network import lift, prove_lemma1, prove_pi
from .verify import (
    CHECK_IDS,
    VerificationVerdict,
    _check_replay,
    check_lemma1,
    check_pi_invariant,
    check_theorem_bounds,
    find_instability_witness,
)

# pi and lemma1 replay a traced run of every permutation up to this length, or --n-max if lower,
# and hold its compares to its length's first run's: this checks the kernel itself, data and all.
SWEEP_N_MAX = 6
# Past it each is proved on the kernel's comparator network at every length up to its reach.
# Lemma 1's proof holds 2·3ⁿ bits per cell, so its reach is set by verify's peak memory.
PROOF_N_MAX = {"pi": 16, "lemma1": 10}
# The proof speaks for the kernel only if it makes one list of compares at each length.  Past
# the sweep, the claims and that list are checked on traced runs of 1..n, n..1 and this many
# permutations drawn with --seed.
TIE_SAMPLES = 100

# Length of the random permutations drawn when verify is given
# --samples; large enough that the bounds are not trivially loose,
# small enough that thousands of runs stay cheap.
RANDOM_SUITE_N = 64

# ---------------------------------------------------------------- sort


def _cut(text: str) -> str:
    # At most 200 characters of an error message or of its echo, then the text's length if longer.
    return text if len(text) <= 200 else f"{text[:200]}... ({len(text)} characters)"


def _shown(value: object) -> str:
    # A library reader's echo of outside input in its ValueError: its repr, cut at 200 characters.
    return _cut(repr(value))


def _refusal(message: str) -> str:
    # The one rule for what an exit-2 refusal prints: each character that is not printable escaped
    # as repr escapes it, then the whole cut; so a message's reason comes before its echo.
    return _cut("".join(c if c.isprintable() else repr(c)[1:-1] for c in message))


def _read_int(text: str) -> int:
    # The one integer reader for input and arguments: ASCII digits, an optional sign, no "_".
    # Here and in every reader, only ASCII whitespace pads a value.
    if re.fullmatch(r"[+-]?[0-9]+", text.strip(string.whitespace)) is None:
        raise ValueError(f"not a decimal integer: {_shown(text)}")
    try:
        return int(text)
    except ValueError:  # past Python's limit on the digits int() reads
        raise ValueError(f"more than {sys.get_int_max_str_digits()} digits: {_shown(text)}") from None


def parse_int_values(text: str) -> list[int]:
    """Parse integers from either format: one per line, or a single
    comma-separated line.  Blank input means an empty list.
    """
    stripped = text.strip(string.whitespace)
    if not stripped:
        return []
    if "," in stripped:
        tokens = [tok.strip(string.whitespace) for tok in stripped.split(",")]
    else:
        tokens = re.split(r"\s+", stripped, flags=re.ASCII)
    return [_read_int(tok) for tok in tokens]


def _read_input_values(source: str) -> list[int]:
    # A file name is read, anything else parsed inline; an argument that is both is refused.
    # os.path.isfile, unlike Path.is_file, is False for a list too long to be a file name.
    if not os.path.isfile(source):
        try:
            return parse_int_values(source)
        except ValueError as err:
            raise ValueError(f"{err}, and no file is named {source!r}") from None
    try:
        parse_int_values(source)
    except ValueError:
        try:
            return parse_int_values(Path(source).read_text(encoding="utf-8"))
        except ValueError as err:  # a decoding error is a ValueError too
            raise ValueError(f"{err}, in file {source!r}") from None
    raise ValueError(f"both inline values and a file name; write {'./' + source!r} to read the file")


# The kinds and phases sorters emit.  Each loaded one is swapped for the module's
# own string, so a long trace holds no per-event copies of these few values;
# the reader likewise reads each distinct position into one shared int.
_TRACE_WORDS = {word: word for word in (KIND_COMPARE, KIND_SWAP, PHASE_SELECTION, PHASE_INSERTION, PHASE_NA)}
# The one trace line grammar, spaced and ordered as _write_trace_line writes it.
_TRACE_LINE = re.compile(
    r'{"seq": (0|[1-9][0-9]*), "kind": "(compare|swap)", "i": ([1-9][0-9]*), "j": ([1-9][0-9]*), '
    r'"phase": "(selection|insertion|not_applicable)"}'
)
# The same grammar over a block of whole lines: each match is one line, "\n" and all.  A "\r"
# before the "\n" is padding the line reader strips, and text-mode writes on Windows put it there.
_TRACE_LINES = re.compile("^" + _TRACE_LINE.pattern + "\r?\n", re.MULTILINE)
# Characters iter_trace reads ahead per block, before it reads on to the end of a line.  Larger
# blocks cost less CPU per event and more peak memory; BENCH_block_reader.json has both.
_BLOCK = 16384


class _Positions(dict):
    # One reader's int for each distinct position text: a hit is a dict lookup in C, with no
    # Python call, and a miss reads the int and keeps it.
    def __missing__(self, text: str) -> int:
        self[text] = value = int(text)
        return value


def _write_trace_line(write: Callable[[str], object], event: TraceEvent) -> None:
    seq, kind, i, j, phase = event
    write(f'{{"seq": {seq}, "kind": "{kind}", "i": {i}, "j": {j}, "phase": "{phase}"}}\n')


def _read_trace(
    lines: Iterable[str], number: int, last_seq: int, position: Callable[[str], int]
) -> Generator[TraceEvent, None, int]:
    # The one trace reader: each line that is not blank (only ASCII whitespace), stripped, must be
    # of the grammar with seq above the last event's.  Lines are numbered from number + 1, and
    # position reads i and j; it returns the last seq read.
    for number, line in enumerate(lines, number + 1):
        line = line.strip(string.whitespace)
        if not line:
            continue
        match = _TRACE_LINE.fullmatch(line)
        try:
            if match is None:
                raise ValueError(f"not of the form {_TRACE_LINE.pattern}")
            seq, kind, i, j, phase = match.groups()
            try:
                seq, i, j = int(seq), position(i), position(j)
            except ValueError:  # past Python's limit on the digits int() reads
                raise ValueError(f"more than {sys.get_int_max_str_digits()} digits") from None
            if seq <= last_seq:
                raise ValueError(f"seq does not rise above {last_seq}")
        except ValueError as err:
            raise ValueError(f"trace line {number}: {err}: {_shown(line)}") from None
        last_seq = seq
        yield tuple.__new__(TraceEvent, (seq, _TRACE_WORDS[kind], i, j, _TRACE_WORDS[phase]))
    return last_seq


def _read_block(block: str, last_seq: int, position: Callable[[str], int]) -> Optional[list[TraceEvent]]:
    # The events of a block of whole lines, parsed by one regex pass, when every line is exactly
    # of the grammar and the seqs rise above last_seq; else None, for _read_trace to read or refuse
    # line by line.  The split puts each match's groups between the texts that no match took, so
    # when those are all empty, the matches, one line each, cover the whole block.
    parts = _TRACE_LINES.split(block)
    step = _TRACE_LINES.groups + 1
    if any(parts[::step]):
        return None
    seq, kind, i, j, phase = (parts[group::step] for group in range(1, step))
    try:
        seq, i, j = list(map(int, seq)), list(map(position, i)), list(map(position, j))
    except ValueError:  # past Python's limit on the digits int() reads
        return None
    if not all(map(lt, chain((last_seq,), seq), seq)):
        return None
    word = _TRACE_WORDS.__getitem__
    return list(map(tuple.__new__, repeat(TraceEvent), zip(seq, map(word, kind), i, j, map(word, phase))))


def iter_trace(path: str) -> Iterator[TraceEvent]:
    """Stream the events of a trace that ``sort --trace`` wrote.

    Each line that is not blank (only ASCII whitespace) must be one event
    in the writer's grammar, with its spacing and key order: ``seq`` from
    0 and rising (gaps allowed), ``i`` and ``j`` from 1, a kind and phase
    that sorters emit.  The file is opened at the first ``next`` and read
    ahead one block of whole lines (about 16 k characters) at a time,
    whose events are then yielded one by one.  Refusals stay lazy
    and per line: a bad line raises ``ValueError``, naming its 1-based
    number, only when the reader reaches it, after every event before it
    has been yielded.
    """
    # Bytes that are not UTF-8 read as U+FFFD, which the grammar refuses with its line.
    # Lines end at "\n" alone; the strip takes a "\r" before it, and the grammar refuses one inside.
    with open(path, "r", encoding="utf-8", errors="replace", newline="\n") as fh:
        number, last_seq = 0, -1
        position = _Positions().__getitem__  # one int object per distinct position, for this reader
        while block := fh.read(_BLOCK) + fh.readline():
            events = _read_block(block, last_seq, position)
            if events is None:  # split at "\n" alone: str.splitlines also splits at "\r", "\x1c", "\x85"
                last_seq = yield from _read_trace(block.split("\n"), number, last_seq, position)
                number += block.count("\n")
            else:
                last_seq, number = events[-1].seq, number + len(events)
                yield from events


def write_trace(path: str, events: Iterable[TraceEvent]) -> None:
    """Write events as JSON lines, one object per event.  Raises ``ValueError``
    on an event whose line :func:`iter_trace` would not read back as that
    event, before writing it; the lines before it stay written."""
    pending = []  # the event in hand, then its line as sort --trace writes it

    def lines() -> Iterator[str]:
        for event in events:
            pending[:] = [event]
            _write_trace_line(pending.append, event)
            yield pending[1]

    with open(path, "w", encoding="utf-8") as fh:
        for number, read in enumerate(_read_trace(lines(), 0, -1, int), 1):
            event, line = pending
            if read != event:
                raise ValueError(f"trace line {number}: {_shown(event)} would read back as {_shown(read)}")
            fh.write(line)


def load_trace(path: str) -> list[TraceEvent]:
    """Read a whole trace into a list: ``list(iter_trace(path))``, refusing
    what :func:`iter_trace` refuses.  Events share their kind and phase
    strings and one int per distinct position, so a loaded event costs about
    121 bytes.

    CPython's cyclic collector is paused while the list is built, and
    ``gc.isenabled()`` restored on every exit, a refusal included: every
    event is a tuple subclass, which the collector keeps tracked and would
    traverse again and again as the list grows, though the reader makes no
    reference cycles.  Other threads run without it meanwhile.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return list(iter_trace(path))
    finally:
        if enabled:
            gc.enable()


def cmd_sort(args: argparse.Namespace) -> int:
    try:
        values = _read_input_values(args.input)
    except (OSError, ValueError) as err:
        print(f"sortlab sort: {_refusal(f'cannot read input: {err}')}", file=sys.stderr)
        return 2
    # Opening the trace would empty the input file if it named that file, by any path.
    both_exist = args.trace is not None and os.path.exists(args.trace) and os.path.isfile(args.input)
    if both_exist and os.path.samefile(args.trace, args.input):
        print(f"sortlab sort: {_refusal(f'cannot write trace over the input file: {args.trace!r}')}", file=sys.stderr)
        return 2
    info = ALGORITHMS[args.algo]
    # Each event goes to the file as the sorter makes it, so no trace is held in memory.
    try:
        with open(args.trace, "w", encoding="utf-8") if args.trace is not None else nullcontext() as fh:
            report = info.func(values, None if fh is None else partial(_write_trace_line, fh.write))
    except OSError as err:
        print(f"sortlab sort: {_refusal(f'cannot write trace: {err}')}", file=sys.stderr)
        return 2
    payload = {
        "algorithm": report.algorithm,
        "n": report.n,
        "comparisons": report.comparisons,
        report.swap_label: report.swaps,
        "output": report.output,
        "sorted": report.output == sorted(values, reverse=info.descending),
    }
    print(json.dumps(payload))
    return 0


# -------------------------------------------------------------- verify

# exhaustive_summary, cached for one verify run.
Survey = Callable[[int], OracleSummary]
# A per-input check of the open claims: the counterexample of each that fails, by claim id.
Check = Callable[[Sequence[int], tuple[str, ...]], dict[str, dict]]
# Each survey claim's counterexample remade on an input that failed it, or None; names resolve when called.
_REBUILD = {
    "correctness": lambda values: _check_sorted(values, ("correctness",)).get("correctness"),
    **dict.fromkeys(("theorem2", "theorem3", "theorem4"), lambda values: check_theorem_bounds(values).counterexample),
}


def _check_sorted(values: Sequence[int], claims: tuple[str, ...]) -> dict[str, dict]:
    output = icbics_sort(values).output
    if output == sorted(values):
        return {}
    return {"correctness": {"input": values, "output": output}}


def _sweep(
    check: Check, claims: tuple[str, ...], inputs: Iterable[Sequence[int]], examined: int = 0
) -> dict[str, VerificationVerdict]:
    """The one loop over per-input claims: run ``check`` on each input in
    turn for the claims still open, and return each claim's verdict by
    claim id.  A claim closes at its first counterexample, and the sweep
    stops once none is open; ``details`` counts the inputs examined, the
    failing one included, after the ``examined`` already counted."""
    verdicts = {}
    for values in inputs:
        if not claims:
            break
        examined += 1
        if failures := check(values, claims):
            for claim, counterexample in failures.items():
                verdicts[claim] = VerificationVerdict(False, counterexample, {"inputs_examined": examined})
            claims = tuple(claim for claim in claims if claim not in failures)
    for claim in claims:
        verdicts[claim] = VerificationVerdict(True, details={"inputs_examined": examined})
    return verdicts


# Each proof by claim: its prover, the claim's own check (names resolve when called), and the
# alphabet of the words it runs.
_PROOFS = {
    "pi": (prove_pi, lambda values: check_pi_invariant(values), "0/1"),
    "lemma1": (prove_lemma1, lambda values: check_lemma1(values), "0/1/2"),
}


def _tie(values: Sequence[int], claims: tuple[str, ...], networks: dict[int, list]) -> dict[str, dict]:
    # The counterexample of each claim that the installed icbics_sort's traced run on ``values``
    # fails, by its replay or else, for every claim, by a compare that leaves the network of its
    # length in ``networks``, which the first run of each length sets.
    compares = []
    failures = _check_replay(values, claims, compares)
    network = networks.setdefault(len(values), compares)
    if compares == network:
        return failures
    k, (expected, observed) = next(
        (k, pair) for k, pair in enumerate(zip_longest(network, compares)) if pair[0] != pair[1]
    )
    differ = {"input": list(values), "compare": k + 1, "expected": expected, "observed": observed}
    return {**dict.fromkeys(claims, differ), **failures}


def _prove(swept: dict[str, VerificationVerdict], swept_n: int, seed: int) -> dict[str, VerificationVerdict]:
    # ``swept``'s verdicts, each that passed the sweep through length ``swept_n`` extended by a
    # proof at each longer length up to its claim's reach.  At each length one _sweep of _tie over
    # 1..n, n..1 and permutations drawn with ``seed`` checks the open claims and sets the network,
    # the compares of 1..n, on which each claim still open is then proved.  The network is dropped
    # after its length: holding every one would raise verify's peak memory.
    rng = random.Random(seed)
    verdicts = dict(swept)
    # Each claim that passed the sweep, by the length it is proved to: its reach, or the last before it failed.
    proved_n = {claim: PROOF_N_MAX[claim] for claim, verdict in swept.items() if verdict.passed}
    for n in range(swept_n + 1, max(PROOF_N_MAX.values()) + 1):
        claims = tuple(claim for claim, reach in proved_n.items() if n <= reach)
        networks = {}
        drawn = (rng.sample(range(1, n + 1), n) for _ in range(TIE_SAMPLES))
        tied = _sweep(partial(_tie, networks=networks), claims, chain([range(1, n + 1), range(n, 0, -1)], drawn))
        for claim in claims:
            prover, check, _ = _PROOFS[claim]
            counterexample = tied[claim].counterexample
            if counterexample is None and (word := prover(networks[n], n)) is not None:
                # Lifted, the word fails the claim's check, unless the kernel leaves its network there.
                values = lift(word)
                counterexample = check(values).counterexample or {"n": n, "word": word, "lifted": values}
            if counterexample is not None:
                verdicts[claim] = VerificationVerdict(False, counterexample)
                proved_n[claim] = n - 1
    assumes = (
        "one list of compares per length; past swept_n, each claim and that list are checked on the"
        f" kernel's runs on 1..n, n..1 and {TIE_SAMPLES} seeded permutations"
    )
    for claim, reach in proved_n.items():
        method = f"0-1 principle: all {_PROOFS[claim][2]} words, on the kernel's network"
        details = {**swept[claim].details, "swept_n": swept_n, "method": method, "assumes": assumes, "proved_n": reach}
        verdicts[claim] = replace(verdicts[claim], details=details)
    return verdicts


def _survey_failure(check_id: str, summary: OracleSummary, examined: int) -> Optional[VerificationVerdict]:
    # The failing verdict for the survey's first input that failed this check, with its
    # counterexample made again, or None; ``examined`` counts the inputs surveyed before.
    if check_id not in summary.first_violations:
        return None
    ordinal, values = summary.first_violations[check_id]
    return VerificationVerdict(False, _REBUILD[check_id](values), {"inputs_examined": examined + ordinal})


def _verify_correctness(n_max: int, survey: Survey) -> VerificationVerdict:
    # The survey's permutations of lengths 0..n_max, then small inputs over a 3-value
    # alphabet, which exercise duplicate handling as permutations cannot.
    examined = 0
    for n in range(n_max + 1):
        summary = survey(n)
        if unsorted := _survey_failure("correctness", summary, examined):
            return unsorted
        examined += summary.inputs_examined
    duplicates = (product((1, 2, 3), repeat=n) for n in range(1, min(n_max, 4) + 1))
    return _sweep(_check_sorted, ("correctness",), chain.from_iterable(duplicates), examined)["correctness"]


def _verify_theorem2(n_max: int, survey: Survey) -> VerificationVerdict:
    per_n = {}
    for n in range(2, n_max + 1):
        summary = survey(n)
        expected = swap_bounds(n, 0)[0]
        if summary.max_swaps != expected:
            counterexample = {"n": n, "max_swaps": summary.max_swaps, "expected": expected}
            return VerificationVerdict(False, counterexample, {"per_n": per_n})
        if n >= 3:
            wanted = sorted(theorem2_extremal_inputs(n))
            if summary.argmax_inputs != wanted:
                counterexample = {"n": n, "argmax_inputs": summary.argmax_inputs, "expected": wanted}
                return VerificationVerdict(False, counterexample, {"per_n": per_n})
        per_n[str(n)] = {"max_swaps": summary.max_swaps, "argmax_inputs": summary.argmax_inputs}
    return VerificationVerdict(True, details={"per_n": per_n})


def _verify_theorem3(n_max: int, survey: Survey) -> VerificationVerdict:
    examined = 0
    for n in range(2, n_max + 1):
        summary = survey(n)
        if escaped := _survey_failure("theorem3", summary, examined):
            return escaped
        examined += summary.inputs_examined
        # The bound is tight exactly at the already-sorted input, which has no inversions.
        sorted_cost = icbics_sort(range(1, n + 1)).swaps
        expected = swap_bounds(n, 0)[1]
        if sorted_cost != expected:
            counterexample = {"n": n, "sorted_input_swaps": sorted_cost, "expected": expected}
            return VerificationVerdict(False, counterexample, {"inputs_examined": examined})
    details = {"inputs_examined": examined, "edge_case": "sorted input costs exactly 2(n-1) swaps at every n checked"}
    return VerificationVerdict(True, details=details)


def _verify_theorem4(n_max: int, survey: Survey) -> VerificationVerdict:
    per_n = {}
    examined = 0
    for n in range(2, n_max + 1):
        summary = survey(n)
        if escaped := _survey_failure("theorem4", summary, examined):
            return escaped
        examined += summary.inputs_examined
        expected = swap_bounds(n, 0)[2]
        wanted = [theorem4_extremal_input(n)]
        if summary.min_swaps != expected or summary.argmin_inputs != wanted:
            counterexample = {
                "n": n,
                "min_swaps": summary.min_swaps,
                "argmin_inputs": summary.argmin_inputs,
                "expected_min": expected,
                "expected_argmin": wanted,
            }
            return VerificationVerdict(False, counterexample, {"per_n": per_n})
        per_n[str(n)] = {"min_swaps": summary.min_swaps, "argmin_inputs": summary.argmin_inputs}
    return VerificationVerdict(True, details={"per_n": per_n, "inputs_examined": examined})


def _verify_instability(n_max: int, survey: Survey) -> VerificationVerdict:
    # Witnesses need duplicate keys; none exists at length 2, and a
    # 3-element search already succeeds, so the search always stops at 3.
    limit = 3
    witness = find_instability_witness(limit)
    if witness is None:
        counterexample = {"searched_up_to": limit, "witness": None}
        return VerificationVerdict(False, counterexample, {"searched_up_to": limit})
    return VerificationVerdict(True, details={"searched_up_to": limit, "witness": asdict(witness)})


# One entry per check id but pi and lemma1, which share one _sweep of _tie and _prove:
# called with --n-max and the run's cached exhaustive survey.
_CHECKS = {
    "correctness": _verify_correctness,
    "theorem2": _verify_theorem2,
    "theorem3": _verify_theorem3,
    "theorem4": _verify_theorem4,
    "instability": _verify_instability,
}


def cmd_verify(args: argparse.Namespace) -> int:
    # theorem2-4 read one exhaustive survey per n, made once per run.  pi and lemma1 come from
    # one sweep over the selected ones, made here, then one proof run for those that passed;
    # neither runs if neither is selected.
    survey = lru_cache(maxsize=None)(exhaustive_summary)
    swept_n = min(args.n_max, SWEEP_N_MAX)
    permutations = chain.from_iterable(enumerate_permutations(n) for n in range(1, swept_n + 1))
    replayed = _sweep(partial(_tie, networks={}), tuple(c for c in ("pi", "lemma1") if c in args.checks), permutations)
    replayed = _prove(replayed, swept_n, args.seed)
    results = {}
    all_passed = True
    for check_id in args.checks:
        verdict = replayed[check_id] if check_id in replayed else _CHECKS[check_id](args.n_max, survey)
        results[check_id] = asdict(verdict)
        all_passed = all_passed and verdict.passed
    payload = {"n_max": args.n_max, "checks": results}
    if args.samples >= 1:
        suite = random_suite(RANDOM_SUITE_N, args.samples, args.seed)
        suite_ok = not suite.first_violations
        payload["random_suite"] = {
            "n": suite.n,
            "samples": suite.inputs_examined,
            "seed": suite.seed,
            "bound_violations": suite.bound_violations,
            "max_swaps": suite.max_swaps,
            "min_swaps": suite.min_swaps,
            "passed": suite_ok,
        }
        if not suite_ok:
            payload["random_suite"]["failures"] = {
                claim: asdict(_survey_failure(claim, suite, 0)) for claim in suite.first_violations
            }
        all_passed = all_passed and suite_ok
    payload["all_passed"] = all_passed
    print(json.dumps(payload, indent=2))
    return 0 if all_passed else 1


# --------------------------------------------------------------- bench


@dataclass(frozen=True)
class BenchRecord:
    """One timed run.  ``swaps`` holds the algorithm's exchange count
    (move count for std-insertion); ``wall_ns`` wraps the sort call
    only, not input generation."""

    algorithm: str
    n: int
    rep: int
    seed: int
    comparisons: int
    swaps: int
    wall_ns: int


BENCH_COLUMNS = tuple(f.name for f in fields(BenchRecord))


def collect_bench_records(
    sizes: Sequence[int],
    reps: int,
    seed: int,
    algorithms: Optional[Sequence[str]] = None,
) -> list[BenchRecord]:
    """Time the requested algorithms (default: all) on seeded shuffles.

    One shuffled permutation of 1..n is drawn per (size, rep), and every
    algorithm sorts its own copy of it, so records sharing n and rep saw
    identical data.  Count columns are deterministic for a fixed seed.
    """
    names = list(algorithms) if algorithms is not None else list(ALGORITHMS)
    for name in names:
        if name not in ALGORITHMS:
            raise ValueError(f"unknown algorithm id: {name}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    for n in sizes:
        if n < 0:
            raise ValueError(f"sizes must be >= 0, got {n}")
    rng = random.Random(seed)
    records = []
    for n in sizes:
        for rep in range(reps):
            data = list(range(1, n + 1))
            rng.shuffle(data)
            for name in names:
                func = ALGORITHMS[name].func
                start = time.perf_counter_ns()
                report = func(data)
                wall_ns = time.perf_counter_ns() - start
                records.append(BenchRecord(name, n, rep, seed, report.comparisons, report.swaps, wall_ns))
    return records


def write_bench_csv(records: Sequence[BenchRecord], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(BENCH_COLUMNS)
    for r in records:
        writer.writerow(astuple(r))


def summarize_bench(records: Sequence[BenchRecord]) -> dict[str, dict]:
    """Per-algorithm run counts and mean comparison/swap/wall figures."""
    grouped: dict[str, list[BenchRecord]] = {}
    for record in records:
        grouped.setdefault(record.algorithm, []).append(record)
    return {
        name: {
            "runs": len(group),
            "mean_comparisons": fmean(r.comparisons for r in group),
            "mean_swaps": fmean(r.swaps for r in group),
            "mean_wall_ns": fmean(r.wall_ns for r in group),
        }
        for name, group in grouped.items()
    }


def cmd_bench(args: argparse.Namespace) -> int:
    records = collect_bench_records(args.sizes, args.reps, args.seed)
    summary = summarize_bench(records)
    if args.format == "csv":
        write_bench_csv(records, sys.stdout)
        for name, stats in summary.items():
            print(
                f"{name}: {stats['runs']} runs, mean comparisons {stats['mean_comparisons']:.1f}, "
                f"mean swaps {stats['mean_swaps']:.1f}, mean wall {stats['mean_wall_ns']:.0f} ns",
                file=sys.stderr,
            )
    else:
        payload = {"records": [asdict(r) for r in records], "summary": summary}
        print(json.dumps(payload, indent=2))
    return 0


# ---------------------------------------------------------------- glue


def _check_ids(text: str) -> list[str]:
    names = [tok.strip(string.whitespace) for tok in text.split(",")]
    if "" in names:
        raise argparse.ArgumentTypeError(f"empty check name in {text!r}")
    unknown = sorted(set(names) - set(CHECK_IDS))
    if unknown:
        valid = ", ".join(CHECK_IDS)
        raise argparse.ArgumentTypeError(f"unknown checks (valid: {valid}): {', '.join(map(repr, unknown))}")
    if len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(f"each check may be named only once, got {text!r}")
    return names


def _int_range(low: Optional[int] = None, high: Optional[int] = None) -> Callable[[str], int]:
    """An argparse type: an integer in ``low..high``, with no bound on a side that is None."""

    def parse(text: str) -> int:
        try:
            value = _read_int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if (low is not None and value < low) or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"between {low} and {high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


def _sizes(text: str) -> list[int]:
    try:
        sizes = parse_int_values(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from err
    if not sizes or min(sizes) < 0:
        raise argparse.ArgumentTypeError(f"must name at least one input length, each >= 0, got {text!r}")
    return sizes


class _Parser(argparse.ArgumentParser):
    # argparse's parser, whose every refusal, its echoes included, is printed by the one rule.
    def error(self, message: str):
        super().error(_refusal(message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sortlab",
        description="Instrumented playground for a double-loop sort that looks wrong and isn't.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sort = sub.add_parser("sort", help="sort one input and print a JSON report")
    p_sort.add_argument(
        "--algo",
        choices=list(ALGORITHMS),
        default="icbics",
        help="algorithm id (default: %(default)s)",
    )
    p_sort.add_argument(
        "--input",
        required=True,
        help="comma-separated integers, or a path to a file holding one per line (or one comma-separated "
        "line); write ./NAME for a file whose name also reads as integers, and --input=-3,2 for a list "
        "that starts with a minus sign",
    )
    p_sort.add_argument("--trace", metavar="PATH", help="also write the event trace to PATH as JSON lines")
    p_sort.set_defaults(handler=cmd_sort)

    p_verify = sub.add_parser("verify", help="run the property checks and print a JSON verdict")
    p_verify.add_argument(
        "--checks",
        type=_check_ids,
        default=list(CHECK_IDS),
        metavar="IDS",
        help="comma-separated subset of: " + ", ".join(CHECK_IDS) + " (default: all)",
    )
    p_verify.add_argument(
        "--n-max",
        dest="n_max",
        type=_int_range(1, EXHAUSTIVE_CAP),
        default=7,
        help=f"correctness and theorem2-theorem4 check every permutation up to this length, 1..{EXHAUSTIVE_CAP}; "
        f"pi and lemma1 check every one up to at most {SWEEP_N_MAX}, then are proved on the kernel's comparator "
        "network (default: %(default)s)",
    )
    p_verify.add_argument(
        "--samples",
        type=_int_range(0),
        default=0,
        help=f"additionally check order and bounds on this many seeded random permutations of 1..{RANDOM_SUITE_N} "
        "(default: %(default)s)",
    )
    p_verify.add_argument(
        "--seed",
        type=_int_range(),
        default=0,
        help="seed for --samples and for the permutations drawn to tie pi's and lemma1's proofs to the kernel "
        "(default: %(default)s)",
    )
    p_verify.set_defaults(handler=cmd_verify)

    p_bench = sub.add_parser("bench", help="time every algorithm and emit per-run records")
    p_bench.add_argument(
        "--sizes",
        type=_sizes,
        default=[16, 64, 128],
        metavar="N,N,...",
        help="comma-separated input lengths (default: 16,64,128)",
    )
    p_bench.add_argument("--reps", type=_int_range(1), default=3, help="repetitions per size (default: %(default)s)")
    p_bench.add_argument("--seed", type=_int_range(), default=0, help="shuffle seed (default: %(default)s)")
    p_bench.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="output format; csv prints records to stdout and a summary to stderr (default: %(default)s)",
    )
    p_bench.set_defaults(handler=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed its help or usage message and exits only with 0 or 2;
        # return that code so callers never see SystemExit from main().
        return exc.code
    return args.handler(args)


def entry() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout; on devnull the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
