"""Acceptance suite: every quantitative claim the package makes,
verified end to end at its stated scale.

Each test prints one [PASS]/[FAIL] line (run with -s to see them all).
Wall time depends on the machine, so the timing notes only warn: a slow
correctness or swap-delta sweep, and a scaling observation out of range,
which prints [WARN] instead of failing.
"""

from __future__ import annotations

import random
import time
import warnings
from math import factorial
from statistics import fmean

import pytest

from sortlab import (
    check_lemma1,
    check_pi_invariant,
    count_inversions,
    enumerate_permutations,
    exchange_sort,
    exhaustive_summary,
    find_instability_witness,
    icbics_desc_ineq,
    icbics_desc_loopswap,
    icbics_sort,
    improved_sort,
    max_inversions,
    sort_tagged,
    theorem2_extremal_inputs,
    theorem4_extremal_input,
)
from sortlab.cli import collect_bench_records, summarize_bench

# The timing notes of test_01, test_03 and test_10 warn and never fail: the suite's
# "error" filter would raise them, so a UserWarning from this module stays a warning.
pytestmark = pytest.mark.filterwarnings("default::UserWarning:test_acceptance")


def note(ok: bool, label: str, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    return ok


@pytest.fixture(scope="module")
def summaries():
    return {n: exhaustive_summary(n) for n in range(2, 9)}


def test_01_sorts_every_permutation_up_to_8():
    start = time.perf_counter()
    checked = 0
    for n in range(0, 9):
        for perm in enumerate_permutations(n):
            checked += 1
            output = icbics_sort(perm).output
            if output != sorted(perm):
                assert note(False, "correctness", f"input {perm} came out {output}")
    elapsed = time.perf_counter() - start
    assert checked == sum(factorial(n) for n in range(9))
    if elapsed > 10:
        warnings.warn(f"correctness sweep took {elapsed:.1f}s, expected under 10s")
    assert note(True, "correctness", f"all {checked} permutations with n <= 8 sorted ascending ({elapsed:.1f}s)")


def test_02_prefix_max_invariant_up_to_7():
    checked = 0
    for n in range(0, 8):
        for perm in enumerate_permutations(n):
            checked += 1
            verdict = check_pi_invariant(perm)
            if not verdict.passed:
                assert note(False, "prefix-max invariant", f"counterexample {verdict.counterexample}")
    assert note(
        True,
        "prefix-max invariant",
        f"after every outer pass, prefix sorted and A[i] maximal, on all {checked} permutations with n <= 7",
    )


def test_03_swap_inversion_deltas_up_to_7():
    start = time.perf_counter()
    checked = 0
    for n in range(0, 8):
        for perm in enumerate_permutations(n):
            checked += 1
            verdict = check_lemma1(perm)
            if not verdict.passed:
                assert note(False, "swap deltas", f"counterexample {verdict.counterexample}")
    elapsed = time.perf_counter() - start
    if elapsed > 60:
        warnings.warn(f"swap-delta sweep took {elapsed:.1f}s, expected under 60s")
    assert note(
        True,
        "swap deltas",
        f"selection swaps +1, insertion swaps -1, on all {checked} permutations with n <= 7 ({elapsed:.1f}s)",
    )


def test_04_max_swaps_and_its_two_attainers(summaries):
    for n in range(3, 9):
        summary = summaries[n]
        expected_max = max_inversions(n) + 1
        expected_argmax = sorted(theorem2_extremal_inputs(n))
        if summary.max_swaps != expected_max:
            assert note(False, "max swaps", f"n={n}: observed {summary.max_swaps}, expected {expected_max}")
        if summary.argmax_inputs != expected_argmax:
            assert note(False, "max swaps", f"n={n}: attained by {summary.argmax_inputs}, expected {expected_argmax}")
    assert note(
        True,
        "max swaps",
        "for 3 <= n <= 8, max is n(n-1)/2 + 1, attained by exactly the two predicted inputs (exact set equality)",
    )


def test_05_adaptive_upper_bound_up_to_8():
    checked = 0
    for n in range(1, 9):
        for perm in enumerate_permutations(n):
            checked += 1
            swaps = icbics_sort(perm).swaps
            limit = count_inversions(perm) + 2 * (n - 1)
            if swaps > limit:
                assert note(False, "adaptive bound", f"input {perm}: {swaps} swaps > I + 2(n-1) = {limit}")
        sorted_swaps = icbics_sort(range(1, n + 1)).swaps
        if sorted_swaps != 2 * (n - 1):
            assert note(False, "adaptive bound", f"sorted input of n={n} cost {sorted_swaps}, expected {2 * (n - 1)}")
    assert note(
        True,
        "adaptive bound",
        f"swaps <= I + 2(n-1) on all {checked} permutations with n <= 8, tight at every sorted input",
    )


def test_06_min_swaps_and_its_unique_attainer(summaries):
    for n in range(2, 9):
        summary = summaries[n]
        expected_argmin = [theorem4_extremal_input(n)]
        if summary.min_swaps != n - 1:
            assert note(False, "min swaps", f"n={n}: observed {summary.min_swaps}, expected {n - 1}")
        if summary.argmin_inputs != expected_argmin:
            assert note(False, "min swaps", f"n={n}: attained by {summary.argmin_inputs}, expected {expected_argmin}")
    assert note(
        True,
        "min swaps",
        "for 2 <= n <= 8, min is n-1, attained only by [n, 1, 2, ..., n-1] (exact set equality)",
    )


def test_07_comparison_counts_on_seeded_random_inputs():
    rng = random.Random(20260816)
    quadratic = (icbics_sort, icbics_desc_ineq, icbics_desc_loopswap)
    triangular = (exchange_sort, improved_sort)
    start = time.perf_counter()
    for n in (16, 64, 256):
        square = n * n
        triangle = n * (n - 1) // 2
        for k in range(1000):
            if k % 2:
                values = [rng.randrange(-n, n) for _ in range(n)]
            else:
                values = list(range(1, n + 1))
                rng.shuffle(values)
            for func in quadratic:
                got = func(values).comparisons
                if got != square:
                    assert note(False, "comparison counts", f"{func.__name__} made {got} on n={n}, expected {square}")
            for func in triangular:
                got = func(values).comparisons
                if got != triangle:
                    assert note(False, "comparison counts", f"{func.__name__} made {got} on n={n}, expected {triangle}")
    elapsed = time.perf_counter() - start
    assert note(
        True,
        "comparison counts",
        f"n^2 for the three full double-loop variants, n(n-1)/2 for exchange and improved, "
        f"on 1000 seeded inputs per n in (16, 64, 256) ({elapsed:.1f}s)",
    )


def test_08_instability_witness():
    witness = find_instability_witness(3)
    if witness is None:
        assert note(False, "instability", "search up to n=3 found no witness")
    _, tagged_out = sort_tagged((2, 2, 1))
    pos_a = tagged_out.index((2, "a"))
    pos_b = tagged_out.index((2, "b"))
    if not pos_b < pos_a:
        assert note(False, "instability", f"tags a, b kept input order in {tagged_out}")
    assert note(
        True,
        "instability",
        f"search found witness {witness.input} -> {witness.output}; "
        f"input [(2,a), (2,b), (1,c)] comes out with b before a",
    )


def test_09_descending_variants_agree_up_to_7():
    checked = 0
    for n in range(0, 8):
        for perm in enumerate_permutations(n):
            checked += 1
            first = icbics_desc_ineq(perm).output
            second = icbics_desc_loopswap(perm).output
            want = sorted(perm, reverse=True)
            if first != want or second != want:
                assert note(False, "descending variants", f"input {perm}: got {first} and {second}")
    assert note(
        True,
        "descending variants",
        f"both non-increasing and identical on all {checked} permutations with n <= 7",
    )


def test_10_scaling_observation():
    doubling = collect_bench_records([256, 512], reps=10, seed=1, algorithms=["icbics"])
    mean_wall = {
        n: fmean(r.wall_ns for r in doubling if r.n == n) for n in (256, 512)
    }
    factor = mean_wall[512] / mean_wall[256]

    ordering = summarize_bench(
        collect_bench_records([1000], reps=5, seed=2, algorithms=["std-insertion", "improved", "icbics"])
    )
    walls = {name: stats["mean_wall_ns"] for name, stats in ordering.items()}
    monotone = walls["std-insertion"] <= walls["improved"] <= walls["icbics"]

    in_range = 3 <= factor <= 6
    detail = (
        f"doubling 256 -> 512 scaled wall time by {factor:.2f} (want 3..6); "
        f"mean ns at n=1000: std-insertion {walls['std-insertion']:.0f}, "
        f"improved {walls['improved']:.0f}, icbics {walls['icbics']:.0f}"
    )
    missed = [
        what
        for what, held in (
            ("doubling factor outside 3..6", in_range),
            ("ordering std-insertion <= improved <= icbics at n=1000 failed", monotone),
        )
        if not held
    ]
    if not missed:
        note(True, "scaling", detail)
    else:
        detail = f"{' and '.join(missed)}: {detail}"
        print(f"[WARN] scaling: {detail}")
        warnings.warn(f"scaling observation out of expectation: {detail}")
