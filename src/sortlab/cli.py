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
import json
import os
import random
import re
import string
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, astuple, dataclass, fields
from functools import lru_cache, partial
from itertools import chain, product
from pathlib import Path
from statistics import fmean
from typing import Callable, Optional, Sequence

from .metrics import swap_bounds
from .oracle import (
    EXHAUSTIVE_CAP,
    OracleSummary,
    exhaustive_summary,
    random_suite,
    theorem2_extremal_inputs,
    theorem4_extremal_input,
)
from .sortcore import ALGORITHMS, icbics_sort
from .network import SWEEP_N_MAX, prove_claims
# load_trace, write_trace, check_pi_invariant and check_lemma1 are kept here only for perfbench,
# which wraps and imports them from cli.
from .trace import _cut, _shown, _write_trace_line, load_trace, write_trace
from .verify import (
    CHECK_IDS,
    VerificationVerdict,
    _sweep,
    check_lemma1,
    check_pi_invariant,
    check_theorem_bounds,
    find_instability_witness,
)

# Length of the random permutations drawn when verify is given
# --samples; large enough that the bounds are not trivially loose,
# small enough that thousands of runs stay cheap.
RANDOM_SUITE_N = 64

# ---------------------------------------------------------------- sort


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


def _check_sorted(values: Sequence[int], claims: tuple[str, ...]) -> dict[str, dict]:
    output = icbics_sort(values).output
    if output == sorted(values):
        return {}
    return {"correctness": {"input": values, "output": output}}


def _survey_failure(check_id: str, summary: OracleSummary, examined: int) -> Optional[VerificationVerdict]:
    # The failing verdict for the survey's first input that failed this check, with its
    # counterexample made again, or None; ``examined`` counts the inputs surveyed before.
    if check_id not in summary.first_violations:
        return None
    ordinal, values = summary.first_violations[check_id]
    if check_id == "correctness":
        counterexample = _check_sorted(values, (check_id,)).get(check_id)
    else:
        counterexample = check_theorem_bounds(values).counterexample
    return VerificationVerdict(False, counterexample, {"inputs_examined": examined + ordinal})


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


# Where each theorem's bound is attained at length n: (observed, expected), from n's survey.
# theorem2's second attainer needs n >= 3, so its attainers are named from n = 3; theorem3's
# is the sorted input, which has no inversions.
_ATTAINED = {
    "theorem2": lambda n, summary: (
        {"max_swaps": summary.max_swaps, "argmax_inputs": summary.argmax_inputs},
        {
            "max_swaps": swap_bounds(n, 0)[0],
            "argmax_inputs": sorted(theorem2_extremal_inputs(n)) if n >= 3 else summary.argmax_inputs,
        },
    ),
    "theorem3": lambda n, summary: (
        {"sorted_input_swaps": icbics_sort(range(1, n + 1)).swaps},
        {"sorted_input_swaps": swap_bounds(n, 0)[1]},
    ),
    "theorem4": lambda n, summary: (
        {"min_swaps": summary.min_swaps, "argmin_inputs": summary.argmin_inputs},
        {"min_swaps": swap_bounds(n, 0)[2], "argmin_inputs": [theorem4_extremal_input(n)]},
    ),
}


def _verify_theorem(check_id: str, n_max: int, survey: Survey) -> VerificationVerdict:
    # At each n from 2, the survey's first input out of the theorem's bound, else a bound not
    # attained where the theorem says it is.
    per_n = {}
    examined = 0
    for n in range(2, max(n_max, 2) + 1):
        summary = survey(n)
        if escaped := _survey_failure(check_id, summary, examined):
            return escaped
        examined += summary.inputs_examined
        observed, expected = _ATTAINED[check_id](n, summary)
        if observed != expected:
            return VerificationVerdict(False, {"n": n, **observed, "expected": expected}, {"inputs_examined": examined})
        per_n[str(n)] = observed
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


# One entry per check id but pi and lemma1, which share one prove_claims:
# called with --n-max and the run's cached exhaustive survey.
_CHECKS = {
    "correctness": _verify_correctness,
    **{check_id: partial(_verify_theorem, check_id) for check_id in _ATTAINED},
    "instability": _verify_instability,
}


def cmd_verify(args: argparse.Namespace) -> int:
    # theorem2-4 read one exhaustive survey per n, made once per run.  pi and lemma1 come from
    # one prove_claims over the selected ones, which runs nothing if neither is selected.
    survey = lru_cache(maxsize=None)(exhaustive_summary)
    replayed = prove_claims(tuple(c for c in ("pi", "lemma1") if c in args.checks), args.n_max, args.seed)
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
        help=f"correctness and theorem2-theorem4 check every permutation up to this length, 1..{EXHAUSTIVE_CAP}, "
        f"theorem2-theorem4 from 2 whatever it is; pi and lemma1 check every one up to at most {SWEEP_N_MAX}, "
        "then are proved on the kernel's comparator network (default: %(default)s)",
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
