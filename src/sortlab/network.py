"""Proofs of ``pi`` and Lemma 1 for a comparator network, over every input of one length.

A network is a list of comparators ``(i, j, phase)`` with 1-based cells,
applied in order.  A comparator puts the larger of ``A[i]`` and ``A[j]``
in cell i and the smaller in cell j, as ``icbics_sort`` does at each
compare event, and it fires when it moves them, that is when
``A[i] < A[j]``.  A network commutes with every non-decreasing map of
its values (the 0-1 principle, Knuth, TAOCP Vol. 3 §5.3.4), so each
claim below holds on every input iff it holds on every word over a small
alphabet:

- ``pi``, over {0, 1}: a permutation breaks the sorted prefix or the
  maximum at a pass end iff some threshold of it does;
- Lemma 1, over {0, 1, 2}: a swap of x < y across cells p < q changes the
  inversion count by ±(1 + 2c), with c the cells between them whose
  values lie strictly between x and y (``inversion_delta``).  So a
  permutation breaks it iff a firing comparator has the wrong sign for
  its phase, or exchanges values across one that lies between them, and
  then the map to 0 below, 1 at and 2 above that middle value gives a
  word on which the comparator exchanges a 0 and a 2 across a 1.

All words of length n are held at once as bit-planes: bit x of a cell's
plane for threshold t is set iff digit k of x, in base 2 or 3 and lowest
first, is at least t, for the cell k + 1.  One operation on Python ints
then applies a comparator to every word.  A prover returns the values
of the first failing word, and :func:`lift` makes it a permutation on
which the network fails the claim too.

:func:`prove_claims` proves them for ``icbics_sort``, a network only if
it makes one list of compares per length.  Every run it makes, of each
permutation up to ``SWEEP_N_MAX`` and past it of 1..n, n..1 and
``TIE_SAMPLES`` seeded ones, replays the claims and must make its
length's first run's compares.  So a passing verdict ``assumes`` that,
past the sweep, the kernel follows its network on inputs no run met.
"""

from __future__ import annotations

import random
from dataclasses import replace
from functools import partial
from itertools import chain, zip_longest
from typing import Optional, Sequence

from .oracle import enumerate_permutations
from .sortcore import PHASE_SELECTION
from .verify import VerificationVerdict, _check_replay, _sweep

Network = Sequence[tuple[int, int, str]]

# The length up to which the claims are checked on every permutation, the kernel itself, data and all.
SWEEP_N_MAX = 6
# Each claim's reach; Lemma 1's proof holds 2·3ⁿ bits per cell, so its reach is set by verify's peak memory.
PROOF_N_MAX = {"pi": 16, "lemma1": 10}
# The permutations drawn with the seed at each length past the sweep, to tie the kernel to its network.
TIE_SAMPLES = 100


def _planes(n: int, base: int) -> list[list[int]]:
    # For each threshold t in 1..base-1, each cell's plane over the base**n words.
    total = base**n
    planes = []
    for t in range(1, base):
        row = []
        for k in range(n):
            block = base**k
            # One period: digit k stays at each value for `block` words; the bits at t and above are set.
            period, length = ((1 << ((base - t) * block)) - 1) << (t * block), base * block
            # Repeated by doubling, each step a shift and an OR of the whole, then cut at `total` bits.
            while length < total:
                period |= period << length
                length *= 2
            row.append(period & ((1 << total) - 1))
        planes.append(row)
    return planes


def _word(bits: int, n: int, base: int) -> list[int]:
    # The values of the lowest word set in `bits`.
    x = (bits & -bits).bit_length() - 1
    return [x // base**k % base for k in range(n)]


def prove_pi(network: Network, n: int) -> Optional[list[int]]:
    """A word over {0, 1} of length ``n`` on which ``network`` breaks ``pi``,
    or None if none does.

    ``pi`` is checked where ``verify``'s replay checks it: at each pass
    end, where the comparators' ``i`` changes, and after the last.  At the
    end of pass i, cells 1..i must be non-decreasing and cell i must hold
    a 1 in every word that has one.
    """
    (w,) = _planes(n, 2)
    ones = 0
    for plane in w:
        ones |= plane

    def broken(outer: int) -> int:
        bad = ones & ~w[outer - 1]
        for k in range(outer - 1):
            bad |= w[k] & ~w[k + 1]
        return bad

    current = None
    for i, j, _ in network:
        if i != current:
            if current is not None and (bad := broken(current)):
                return _word(bad, n, 2)
            current = i
        a, b = w[i - 1], w[j - 1]
        w[i - 1], w[j - 1] = a | b, a & b
    if current is not None and (bad := broken(current)):
        return _word(bad, n, 2)
    return None


def prove_lemma1(network: Network, n: int) -> Optional[list[int]]:
    """A word over {0, 1, 2} of length ``n`` on which ``network`` breaks
    Lemma 1, or None if none does.

    A comparator that fires on some word must have ``j > i`` in the
    selection phase and ``j < i`` in any other, and none may exchange a 0
    and a 2 while a cell between the two holds a 1.
    """
    ge1, ge2 = _planes(n, 3)
    for i, j, phase in network:
        a1, a2, b1, b2 = ge1[i - 1], ge2[i - 1], ge1[j - 1], ge2[j - 1]
        # It fires on some word iff on some word over {0, 1}, a threshold of that word.
        fires = b1 & ~a1
        if fires and (j > i) != (phase == PHASE_SELECTION):
            return _word(fires, n, 3)
        ones_between = 0
        for k in range(min(i, j), max(i, j) - 1):
            ones_between |= ge1[k] & ~ge2[k]
        if bad := b2 & ~a1 & ones_between:
            return _word(bad, n, 3)
        ge1[i - 1], ge1[j - 1] = a1 | b1, a1 & b1
        ge2[i - 1], ge2[j - 1] = a2 | b2, a2 & b2
    return None


def lift(word: Sequence[int]) -> list[int]:
    """The permutation of 1..n that ranks ``word``'s cells by (value, cell).

    A threshold map sends it back onto ``word``, so a network that breaks
    a claim on the word breaks it on the permutation too.
    """
    ranked = sorted(range(len(word)), key=lambda k: (word[k], k))
    perm = [0] * len(word)
    for rank, k in enumerate(ranked, 1):
        perm[k] = rank
    return perm


# Each proof by claim: its prover and the alphabet of the words it runs.
_PROOFS = {"pi": (prove_pi, "0/1"), "lemma1": (prove_lemma1, "0/1/2")}


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


def prove_claims(claims: tuple[str, ...], n_max: int, seed: int) -> dict[str, VerificationVerdict]:
    """The verdict of each of ``claims`` ("pi", "lemma1", or both) by claim
    id: swept through ``min(n_max, SWEEP_N_MAX)``, then each that passed
    proved up to its reach.  Each length's network is dropped after it, as
    holding every one would raise verify's peak memory."""
    swept_n = min(n_max, SWEEP_N_MAX)
    permutations = chain.from_iterable(enumerate_permutations(n) for n in range(1, swept_n + 1))
    swept = _sweep(partial(_tie, networks={}), claims, permutations)
    rng = random.Random(seed)
    verdicts = dict(swept)
    # Each claim that passed the sweep, by the length it is proved to: its reach, or the last before it failed.
    proved_n = {claim: PROOF_N_MAX[claim] for claim, verdict in swept.items() if verdict.passed}
    for n in range(swept_n + 1, max(PROOF_N_MAX.values()) + 1):
        open_claims = tuple(claim for claim, reach in proved_n.items() if n <= reach)
        networks = {}
        drawn = (rng.sample(range(1, n + 1), n) for _ in range(TIE_SAMPLES))
        tied = _sweep(partial(_tie, networks=networks), open_claims, chain([range(1, n + 1), range(n, 0, -1)], drawn))
        for claim in open_claims:
            prover, _ = _PROOFS[claim]
            counterexample = tied[claim].counterexample
            if counterexample is None and (word := prover(networks[n], n)) is not None:
                # Lifted, the word fails the claim's check, unless the kernel leaves its network there.
                values = lift(word)
                counterexample = _check_replay(values, (claim,)).get(claim) or {"n": n, "word": word, "lifted": values}
            if counterexample is not None:
                verdicts[claim] = VerificationVerdict(False, counterexample)
                proved_n[claim] = n - 1
    assumes = (
        "one list of compares per length; past swept_n, each claim and that list are checked on the"
        f" kernel's runs on 1..n, n..1 and {TIE_SAMPLES} seeded permutations"
    )
    for claim, reach in proved_n.items():
        method = f"0-1 principle: all {_PROOFS[claim][1]} words, on the kernel's network"
        details = {**swept[claim].details, "swept_n": swept_n, "method": method, "assumes": assumes, "proved_n": reach}
        verdicts[claim] = replace(verdicts[claim], details=details)
    return verdicts
