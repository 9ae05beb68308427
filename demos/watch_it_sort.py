"""
Watch the double-loop sort work
===============================

Runs icbics_sort on a tiny input, recording its trace in a list, and
prints every comparison and swap.  The odd part is visible right away:
the comparison is A[i] < A[j], which looks like it should sort the
array backwards, and the first outer pass really does drag the maximum
into A[1].  Every later pass undoes that apparent damage by insertion.
"""

from sortlab import icbics_sort, replay_trace

values = [3, 1, 4, 2]
events = []
report = icbics_sort(values, events.append)

print(f"input  : {values}")
print(f"output : {report.output}")
print(f"{report.comparisons} comparisons (n^2 = {len(values) ** 2}), {report.swaps} swaps")
print()

# Replay the trace step by step to show the array after each event.
work = list(values)
print(f"{'seq':>4} {'kind':<8} {'i':>2} {'j':>2} {'phase':<11} array")
for event in events:
    if event.kind == "swap":
        a, b = event.i - 1, event.j - 1
        work[a], work[b] = work[b], work[a]
    marker = "*" if event.kind == "swap" else " "
    print(f"{event.seq:>4} {event.kind:<8} {event.i:>2} {event.j:>2} {event.phase:<11} {work} {marker}")

print()
print("replay check:", replay_trace(values, events) == report.output)

# The selection phase is exactly the i = 1 pass.
selection_swaps = sum(1 for e in events if e.kind == "swap" and e.phase == "selection")
insertion_swaps = sum(1 for e in events if e.kind == "swap" and e.phase == "insertion")
print(f"selection swaps: {selection_swaps}, insertion swaps: {insertion_swaps}")
