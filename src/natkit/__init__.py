"""Desk-scale non-autoregressive translation kernels and evaluation stack.

The package is organized around small, independently testable pieces:

- :mod:`natkit.corpus` -- vocabularies, tokenization, synthetic parallel data
- :mod:`natkit.ctc` -- alignment lattice kernels (marginal, posteriors, loss, Viterbi)
- :mod:`natkit.glancing` -- reveal counts and mask sampling, in target or alignment space
- :mod:`natkit.model` -- micro encoder-decoder with hand-written gradients, one token loss
- :mod:`natkit.training` -- Adam, the lr and glancing schedules, the two-pass training step
- :mod:`natkit.metrics` -- BLEU / chrF++ / TER with pinned signatures
- :mod:`natkit.significance` -- paired bootstrap resampling and table marking
- :mod:`natkit.bench` -- batch-size-1 latency harness
- :mod:`natkit.analysis` -- edit-distance histograms, repetition rates
- :mod:`natkit.cli` -- command-line front end over all of the above

Everything is numpy + stdlib, single threaded, and deterministic given seeds.
"""

__version__ = "0.1.0"
