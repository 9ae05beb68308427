"""sortlab: an instrumented lab for a double-loop sort that looks
broken and provably is not.

The star exhibit compares with what appears to be the wrong inequality
and still sorts ascending.  Everything here exists to poke at that:
five companion algorithms for contrast, per-operation traces, inversion
accounting, swap-count bounds with exhaustive small-n confirmation, and
a CLI over all of it.
"""

from __future__ import annotations

from .metrics import (
    count_inversions,
    inversion_delta,
    max_inversions,
    swap_bounds,
    violated_bounds,
)
from .oracle import (
    OracleSummary,
    enumerate_permutations,
    exhaustive_summary,
    random_suite,
    theorem2_extremal_inputs,
    theorem4_extremal_input,
)
from .sortcore import (
    ALGORITHMS,
    AlgorithmInfo,
    SortReport,
    TraceEvent,
    exchange_sort,
    icbics_desc_ineq,
    icbics_desc_loopswap,
    icbics_sort,
    improved_sort,
    replay_trace,
    std_insertion_sort,
)
from .verify import (
    CHECK_IDS,
    InstabilityWitness,
    Tagged,
    VerificationVerdict,
    check_lemma1,
    check_pi_invariant,
    check_theorem_bounds,
    find_instability_witness,
    sort_tagged,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AlgorithmInfo",
    "CHECK_IDS",
    "InstabilityWitness",
    "OracleSummary",
    "SortReport",
    "Tagged",
    "TraceEvent",
    "VerificationVerdict",
    "check_lemma1",
    "check_pi_invariant",
    "check_theorem_bounds",
    "count_inversions",
    "enumerate_permutations",
    "exchange_sort",
    "exhaustive_summary",
    "find_instability_witness",
    "icbics_desc_ineq",
    "icbics_desc_loopswap",
    "icbics_sort",
    "improved_sort",
    "inversion_delta",
    "max_inversions",
    "random_suite",
    "replay_trace",
    "sort_tagged",
    "std_insertion_sort",
    "swap_bounds",
    "theorem2_extremal_inputs",
    "theorem4_extremal_input",
    "violated_bounds",
    "__version__",
]
