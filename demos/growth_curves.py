"""
Growth curves
=============

Times all six algorithms on doubling input sizes and prints a small
table.  Every comparison count but std-insertion's is an exact function
of n, so those columns double-check the counting: the sorters add each
outer pass's comparisons at once, not one per comparison, and the
closed forms count every comparison.  The wall-time column shows the
quadratic growth (a factor near 4 per doubling).
"""

from sortlab.cli import collect_bench_records, summarize_bench

sizes = [125, 250, 500, 1000]
records = collect_bench_records(sizes, reps=3, seed=2024)

print(f"{'algorithm':<18} {'n':>5} {'comparisons':>12} {'mean swaps':>11} {'mean ms':>8}")
for n in sizes:
    at_n = [r for r in records if r.n == n]
    for name, stats in summarize_bench(at_n).items():
        print(
            f"{name:<18} {n:>5} {stats['mean_comparisons']:>12.0f} "
            f"{stats['mean_swaps']:>11.1f} {stats['mean_wall_ns'] / 1e6:>8.2f}"
        )
    print()

# Doubling factors for the star of the show.
icbics_means = {
    n: summarize_bench([r for r in records if r.n == n and r.algorithm == "icbics"])["icbics"]["mean_wall_ns"]
    for n in sizes
}
print("icbics wall-time factor per doubling:")
for small, large in zip(sizes, sizes[1:]):
    print(f"  {small:>5} -> {large:<5} {icbics_means[large] / icbics_means[small]:.2f}x")
