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
"""

from __future__ import annotations

from typing import Optional, Sequence

from .sortcore import PHASE_SELECTION

Network = Sequence[tuple[int, int, str]]


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
