"""Command-line front end.

Three subcommands: ``sort`` runs one algorithm on one input and prints
a JSON report, ``verify`` runs the property checks and prints a JSON
verdict, ``bench`` times every algorithm and emits per-run records.

Exit codes: 0 on success (for ``verify``, only when every selected
check passed), 1 when a verification check fails, 2 on usage or input
errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import chain, product
from pathlib import Path
from statistics import fmean
from typing import Callable, Iterable, Optional, Sequence

from .metrics import max_inversions
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
    TraceRecorder,
    icbics_sort,
)
from .verify import (
    CHECK_IDS,
    VerificationVerdict,
    check_lemma1,
    check_pi_invariant,
    check_theorem_bounds,
    find_instability_witness,
)

# Length of the random permutations drawn when verify is given
# --samples; large enough that the bounds are not trivially loose,
# small enough that thousands of runs stay cheap.
RANDOM_SUITE_N = 64

BENCH_COLUMNS = ("algorithm", "n", "rep", "seed", "comparisons", "swaps", "wall_ns")


# ---------------------------------------------------------------- sort


def parse_int_values(text: str) -> list[int]:
    """Parse integers from either format: one per line, or a single
    comma-separated line.  Blank input means an empty list.
    """
    stripped = text.strip()
    if not stripped:
        return []
    if "," in stripped:
        tokens = [tok.strip() for tok in stripped.split(",")]
    else:
        tokens = stripped.split()
    return [int(tok) for tok in tokens]


def _read_input_values(source: str) -> list[int]:
    # A file name is read, anything else parsed inline; an argument that is both is refused.
    path = Path(source)
    if not path.is_file():
        return parse_int_values(source)
    try:
        parse_int_values(source)
    except ValueError:
        return parse_int_values(path.read_text(encoding="utf-8"))
    raise ValueError(f"{source!r} is both inline values and a file name; write ./{source} to read the file")


def write_trace(path: str, events: Sequence[TraceEvent]) -> None:
    """Write events as JSON lines, one object per event."""
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(
                json.dumps(
                    {
                        "seq": event.seq,
                        "kind": event.kind,
                        "i": event.i,
                        "j": event.j,
                        "phase": event.phase,
                    }
                )
            )
            fh.write("\n")


# Each loaded kind and phase is swapped for the module's own string, so a
# long trace holds no per-event copies of these few values.
_TRACE_KINDS = {kind: kind for kind in (KIND_COMPARE, KIND_SWAP)}
_TRACE_PHASES = {phase: phase for phase in (PHASE_SELECTION, PHASE_INSERTION, PHASE_NA)}


def load_trace(path: str) -> list[TraceEvent]:
    """Read a JSON-lines trace back into events.

    Raises ``ValueError`` on a malformed event: a missing key, a
    ``kind`` or ``phase`` that no sorter emits, a ``seq``, ``i`` or
    ``j`` that is not an integer (``bool`` included), or a ``seq`` that
    is negative or does not rise strictly.
    """
    events = []
    last_seq = -1
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            try:
                seq, i, j = raw["seq"], raw["i"], raw["j"]
                kind = _TRACE_KINDS.get(raw["kind"])
                phase = _TRACE_PHASES.get(raw["phase"])
            except (KeyError, TypeError) as err:
                # A missing key, a line that is not an object, or an
                # unhashable kind or phase.
                raise ValueError(f"malformed trace event: {line}") from err
            if kind is None or phase is None:
                raise ValueError(f"unknown kind or phase in trace event: {line}")
            if type(seq) is not int or type(i) is not int or type(j) is not int or seq <= last_seq:
                raise ValueError(f"trace event needs integer seq, i and j, with seq rising: {line}")
            last_seq = seq
            events.append(TraceEvent(seq, kind, i, j, phase))
    return events


def cmd_sort(args: argparse.Namespace) -> int:
    try:
        values = _read_input_values(args.input)
    except (OSError, ValueError) as err:
        print(f"sortlab sort: cannot read input: {err}", file=sys.stderr)
        return 2
    info = ALGORITHMS[args.algo]
    recorder = TraceRecorder() if args.trace else None
    report = info.func(values, recorder)
    if recorder is not None:
        try:
            write_trace(args.trace, recorder.events)
        except OSError as err:
            print(f"sortlab sort: cannot write trace: {err}", file=sys.stderr)
            return 2
    payload = {
        "algorithm": report.algorithm,
        "n": report.n,
        "comparisons": report.comparisons,
        report.swap_label: report.swaps,
        "output": list(report.output),
        "sorted": report.output == sorted(values, reverse=info.descending),
    }
    print(json.dumps(payload))
    return 0


# -------------------------------------------------------------- verify

# exhaustive_summary, cached for one verify run.
Survey = Callable[[int], OracleSummary]


def _check_sorted(values: Sequence[int]) -> VerificationVerdict:
    output = icbics_sort(values).output
    if output == sorted(values):
        return VerificationVerdict("correctness", True)
    return VerificationVerdict("correctness", False, {"input": list(values), "output": list(output)})


def _sweep(
    check_id: str, check: Callable[[Sequence[int]], VerificationVerdict], inputs: Iterable[Sequence[int]]
) -> VerificationVerdict:
    """Run a per-input check on each input in turn, stopping at the first
    failure; ``details`` counts the inputs examined, the failing one
    included."""
    examined = 0
    for values in inputs:
        examined += 1
        verdict = check(values)
        if not verdict.passed:
            return VerificationVerdict(check_id, False, verdict.counterexample, {"inputs_examined": examined})
    return VerificationVerdict(check_id, True, details={"inputs_examined": examined})


def _permutations(n_min: int, n_max: int) -> Iterable[tuple[int, ...]]:
    return chain.from_iterable(enumerate_permutations(n) for n in range(n_min, n_max + 1))


def _verify_correctness(n_max: int, survey: Survey) -> VerificationVerdict:
    # Small inputs over a 3-value alphabet exercise duplicate handling,
    # which permutations cannot.
    duplicates = (product((1, 2, 3), repeat=n) for n in range(1, min(n_max, 4) + 1))
    inputs = chain(_permutations(0, n_max), chain.from_iterable(duplicates))
    return _sweep("correctness", _check_sorted, inputs)


def _verify_theorem2(n_max: int, survey: Survey) -> VerificationVerdict:
    per_n = {}
    for n in range(2, n_max + 1):
        summary = survey(n)
        expected = max_inversions(n) + 1
        if summary.max_swaps != expected:
            counterexample = {"n": n, "max_swaps": summary.max_swaps, "expected": expected}
            return VerificationVerdict("theorem2", False, counterexample, {"per_n": per_n})
        if n >= 3:
            wanted = sorted(theorem2_extremal_inputs(n))
            if summary.argmax_inputs != wanted:
                counterexample = {
                    "n": n,
                    "argmax_inputs": [list(p) for p in summary.argmax_inputs],
                    "expected": [list(p) for p in wanted],
                }
                return VerificationVerdict("theorem2", False, counterexample, {"per_n": per_n})
        per_n[str(n)] = {
            "max_swaps": summary.max_swaps,
            "argmax_inputs": [list(p) for p in summary.argmax_inputs],
        }
    return VerificationVerdict("theorem2", True, details={"per_n": per_n})


def _escaped_bound(check_id: str, summary: OracleSummary, examined: int) -> Optional[VerificationVerdict]:
    # The failing verdict for the survey's first input whose swap count
    # escaped this bound, or None; ``examined`` counts the inputs of the
    # shorter lengths already surveyed.
    first = summary.first_violations.get(check_id)
    if first is None:
        return None
    ordinal, values = first
    counterexample = check_theorem_bounds(values).counterexample
    return VerificationVerdict(check_id, False, counterexample, {"inputs_examined": examined + ordinal})


def _verify_theorem3(n_max: int, survey: Survey) -> VerificationVerdict:
    examined = 0
    for n in range(2, n_max + 1):
        summary = survey(n)
        escaped = _escaped_bound("theorem3", summary, examined)
        if escaped is not None:
            return escaped
        examined += summary.inputs_examined
        # The bound is tight exactly at the already-sorted input.
        sorted_cost = icbics_sort(range(1, n + 1)).swaps
        if sorted_cost != 2 * (n - 1):
            counterexample = {"input": list(range(1, n + 1)), "swaps": sorted_cost, "expected": 2 * (n - 1)}
            return VerificationVerdict("theorem3", False, counterexample, {"inputs_examined": examined})
    details = {"inputs_examined": examined, "edge_case": "sorted input costs exactly 2(n-1) swaps at every n checked"}
    return VerificationVerdict("theorem3", True, details=details)


def _verify_theorem4(n_max: int, survey: Survey) -> VerificationVerdict:
    per_n = {}
    examined = 0
    for n in range(2, n_max + 1):
        summary = survey(n)
        escaped = _escaped_bound("theorem4", summary, examined)
        if escaped is not None:
            return escaped
        examined += summary.inputs_examined
        wanted = [theorem4_extremal_input(n)]
        if summary.min_swaps != n - 1 or summary.argmin_inputs != wanted:
            counterexample = {
                "n": n,
                "min_swaps": summary.min_swaps,
                "argmin_inputs": [list(p) for p in summary.argmin_inputs],
                "expected_min": n - 1,
                "expected_argmin": [list(p) for p in wanted],
            }
            return VerificationVerdict("theorem4", False, counterexample, {"per_n": per_n})
        per_n[str(n)] = {
            "min_swaps": summary.min_swaps,
            "argmin_inputs": [list(p) for p in summary.argmin_inputs],
        }
    return VerificationVerdict("theorem4", True, details={"per_n": per_n, "inputs_examined": examined})


def _verify_instability(n_max: int, survey: Survey) -> VerificationVerdict:
    # Witnesses need duplicate keys; none exists at length 2, and a
    # 3-element search already succeeds, so the search always stops at 3.
    limit = 3
    witness = find_instability_witness(limit)
    if witness is None:
        counterexample = {"searched_up_to": limit, "witness": None}
        return VerificationVerdict("instability", False, counterexample, {"searched_up_to": limit})
    details = {
        "searched_up_to": limit,
        "witness": {
            "input": [[key, tag] for key, tag in witness.input],
            "output": [[key, tag] for key, tag in witness.output],
            "violated_pair": list(witness.violated_pair),
        },
    }
    return VerificationVerdict("instability", True, details=details)


# One entry per check id: called with --n-max and the run's cached
# exhaustive survey.  The per-input checks are looked up when the entry
# runs, not bound here, so that a replaced module attribute takes effect.
_CHECKS = {
    "correctness": _verify_correctness,
    "pi": lambda n_max, survey: _sweep("pi", check_pi_invariant, _permutations(1, n_max)),
    "lemma1": lambda n_max, survey: _sweep("lemma1", check_lemma1, _permutations(1, n_max)),
    "theorem2": _verify_theorem2,
    "theorem3": _verify_theorem3,
    "theorem4": _verify_theorem4,
    "instability": _verify_instability,
}


def cmd_verify(args: argparse.Namespace) -> int:
    selected = args.checks if args.checks is not None else list(CHECK_IDS)
    # theorem2-4 read one exhaustive survey per n, made once per run.
    survey = lru_cache(maxsize=None)(exhaustive_summary)
    results = {}
    all_passed = True
    for check_id in selected:
        verdict = _CHECKS[check_id](args.n_max, survey)
        results[check_id] = {
            "passed": verdict.passed,
            "counterexample": verdict.counterexample,
            "details": verdict.details,
        }
        all_passed = all_passed and verdict.passed
    payload = {"n_max": args.n_max, "checks": results}
    if args.samples >= 1:
        suite = random_suite(RANDOM_SUITE_N, args.samples, args.seed)
        suite_ok = suite.bound_violations == 0
        payload["random_suite"] = {
            "n": suite.n,
            "samples": suite.inputs_examined,
            "seed": suite.seed,
            "bound_violations": suite.bound_violations,
            "max_swaps": suite.max_swaps,
            "min_swaps": suite.min_swaps,
            "passed": suite_ok,
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
    rng = random.Random(seed)
    records = []
    for n in sizes:
        if n < 0:
            raise ValueError(f"sizes must be >= 0, got {n}")
        for rep in range(reps):
            data = list(range(1, n + 1))
            rng.shuffle(data)
            for name in names:
                func = ALGORITHMS[name].func
                start = time.perf_counter_ns()
                report = func(data)
                wall_ns = time.perf_counter_ns() - start
                records.append(
                    BenchRecord(name, n, rep, seed, report.comparisons, report.swaps, wall_ns)
                )
    return records


def write_bench_csv(records: Sequence[BenchRecord], stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(BENCH_COLUMNS)
    for r in records:
        writer.writerow([r.algorithm, r.n, r.rep, r.seed, r.comparisons, r.swaps, r.wall_ns])


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
    names = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not names:
        raise argparse.ArgumentTypeError("no check names given")
    unknown = sorted(set(names) - set(CHECK_IDS))
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown checks: {', '.join(unknown)}; valid: {', '.join(CHECK_IDS)}"
        )
    if len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(f"each check may be named only once, got {text!r}")
    return names


def _int_range(low: int, high: Optional[int] = None) -> Callable[[str], int]:
    """An argparse type: an integer in ``low..high``, or ``>= low`` when ``high`` is None."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low or (high is not None and value > high):
            bound = f">= {low}" if high is None else f"between {low} and {high}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
    return parse


def _sizes(text: str) -> list[int]:
    try:
        sizes = parse_int_values(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from err
    if not sizes or min(sizes) < 0:
        raise argparse.ArgumentTypeError(f"must name at least one input length, each >= 0, got {text!r}")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        "line); write ./NAME for a file whose name also reads as integers",
    )
    p_sort.add_argument("--trace", metavar="PATH", help="also write the event trace to PATH as JSON lines")
    p_sort.set_defaults(handler=cmd_sort)

    p_verify = sub.add_parser("verify", help="run the property checks and print a JSON verdict")
    p_verify.add_argument(
        "--checks",
        type=_check_ids,
        default=None,
        metavar="IDS",
        help="comma-separated subset of: " + ", ".join(CHECK_IDS) + " (default: all)",
    )
    p_verify.add_argument(
        "--n-max",
        dest="n_max",
        type=_int_range(1, EXHAUSTIVE_CAP),
        default=7,
        help=f"exhaustive checks cover every permutation up to this length, 1..{EXHAUSTIVE_CAP} "
        "(default: %(default)s)",
    )
    p_verify.add_argument(
        "--samples",
        type=_int_range(0),
        default=0,
        help=f"additionally bound-check this many seeded random permutations of 1..{RANDOM_SUITE_N} "
        "(default: %(default)s)",
    )
    p_verify.add_argument("--seed", type=int, default=0, help="seed for --samples (default: %(default)s)")
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
    p_bench.add_argument("--seed", type=int, default=0, help="shuffle seed (default: %(default)s)")
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
        # argparse has already printed a usage message; fold its exit
        # code into the return-value convention so callers never see
        # SystemExit from main().
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    return args.handler(args)


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
