"""Desk-scale non-autoregressive translation kernels and evaluation stack.

The package is organized around small, independently testable pieces:

- :mod:`natkit.corpus` -- vocabularies, tokenization, synthetic parallel data
- :mod:`natkit.ctc` -- alignment lattice kernels (marginal, gradient, Viterbi)
- :mod:`natkit.glancing` -- glancing schedule and mask sampling
- :mod:`natkit.model` -- micro encoder-decoder with hand-written gradients
- :mod:`natkit.training` -- Adam, schedules, the two-pass training step
- :mod:`natkit.metrics` -- BLEU / chrF++ / TER with pinned signatures
- :mod:`natkit.significance` -- paired bootstrap resampling and table marking
- :mod:`natkit.bench` -- batch-size-1 latency harness
- :mod:`natkit.analysis` -- edit-distance histograms, repetition rates
- :mod:`natkit.cli` -- command-line front end over all of the above

Everything is numpy + stdlib, single threaded, and deterministic given seeds.
"""

__version__ = "0.1.0"
