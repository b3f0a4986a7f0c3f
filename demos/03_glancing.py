"""Glancing: reveal part of the target when the first pass is poor.

The sampling ratio decays linearly over training, the reveal count is
the ratio times the Hamming distance between target and first-pass
prediction, and the revealed subset is uniform.  For alignment-trained
models the whole procedure runs in alignment space: the target is first
stretched onto the table by Viterbi, then compared against the raw
per-position argmax string.
"""

import numpy as np

from natkit.glancing import glance_count, glance_inputs_ctc, hamming, sample_glance
from natkit.training import TrainConfig


def main():
    U = 1000
    # the ratio a training run reads off its config at each step
    hyper = TrainConfig(steps=U, glat_start=0.5, glat_slope=0.2)
    print("ratio decay over training:")
    for u in (0, 250, 500, 750, 1000):
        print(f"  step {u:>4}: lambda = {hyper.glance_ratio(u):.3f}")
    print()

    target = (7, 8, 9, 10, 11, 12)
    for pred in (target, (7, 8, 9, 10, 11, 5), (5, 5, 5, 5, 5, 5)):
        d = hamming(target, pred)
        s = glance_count(target, pred, 0.5)
        print(f"prediction off at {d} positions -> reveal {s} of {len(target)}")
    print()

    rng = np.random.default_rng(0)
    mask = sample_glance(target, 3, rng)
    print(f"sampled mask: positions {mask.positions}, tokens {mask.revealed}")
    print()

    # alignment-space glancing: the mask lives on the table's axis
    probs = np.random.default_rng(1).uniform(0.1, 1.0, size=(7, 13))
    probs /= probs.sum(axis=1, keepdims=True)
    table = np.log(probs)
    mask, aligned = glance_inputs_ctc((7, 8, 9), table, hyper.glance_ratio(400), rng)
    print(f"viterbi-aligned target over {len(aligned)} table positions: {aligned}")
    print(f"reveals drawn from it: positions {mask.positions}, tokens {mask.revealed}")
    print()

    # uniformity: every position is revealed equally often
    counts = np.zeros(len(target))
    draws = 20_000
    for _ in range(draws):
        for p in sample_glance(target, 2, rng).positions:
            counts[p] += 1
    print("empirical reveal frequency for a 2-of-6 mask "
          f"(expect {2 / 6:.3f} everywhere):")
    print(" ", np.array2string(counts / draws, precision=3))


if __name__ == "__main__":
    main()
