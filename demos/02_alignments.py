"""Alignment lattices on a toy score table.

A length-T table of per-position log-probabilities induces a
distribution over alignments: raw label sequences that collapse to the
target after merging adjacent repeats and removing blanks.  This script
builds a tiny table by hand, enumerates every alignment of a target
by filtering all strings of the table's length through collapse,
and checks the dynamic programs against the enumeration: the forward
pass sums alignment probabilities, the viterbi pass finds the best one,
and the posterior matrix redistributes the target's mass over table
cells.
"""

import itertools
import math

import numpy as np

from natkit.ctc import (
    alignment_log_prob,
    collapse,
    ctc_forward,
    ctc_posteriors,
    min_alignment_len,
    viterbi_align,
)

BLANK = 0


def main():
    rng = np.random.default_rng(7)
    T, V = 5, 4
    probs = rng.uniform(0.1, 1.0, size=(T, V))
    probs /= probs.sum(axis=1, keepdims=True)
    table = np.log(probs)
    target = (2, 3, 3)

    print(f"table: {T} positions x {V} symbols, blank id {BLANK}")
    print(f"target {target}, min alignment length {min_alignment_len(target)}")
    print()

    paths = [p for p in itertools.product(range(V), repeat=T) if collapse(p, blank=BLANK) == target]
    print(f"{len(paths)} of the {V ** T} strings of length {T} collapse to the target, e.g.")
    for p in paths[:5]:
        print(f"  {p}  log p = {alignment_log_prob(table, p):.4f}")
    print()

    total = sum(math.exp(alignment_log_prob(table, p)) for p in paths)
    forward = math.exp(ctc_forward(table, target, blank=BLANK))
    print(f"summed enumeration: {total:.10f}")
    print(f"forward recursion:  {forward:.10f}")
    print()

    best, score = viterbi_align(table, target, blank=BLANK)
    brute = max(paths, key=lambda p: alignment_log_prob(table, p))
    print(f"viterbi alignment {best} at {score:.4f} (brute force agrees: {best == brute})")
    print()

    post = ctc_posteriors(table, target, blank=BLANK)
    print("posterior mass per table cell (rows sum to 1):")
    with np.printoptions(precision=3, suppress=True):
        print(post)
    print()

    print(f"greedy decode of the raw table: {collapse(np.argmax(table, axis=1), blank=BLANK)}")
    print("(argmax per position, then collapse; no target involved)")


if __name__ == "__main__":
    main()
