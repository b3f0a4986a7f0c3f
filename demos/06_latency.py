"""Why parallel decoding is faster: pass counts and wall-clock timing.

A sequential decoder runs one decoder pass per emitted token plus one
for the stop symbol; a parallel decoder runs exactly one regardless of
length.  The sequential baseline is the fast exact one: it caches each
layer's keys and values, so a pass runs the stack over the newest
position only, and the speed-up printed here is measured against it.
This script counts passes on identically sized models, then times
batch-size-1 decoding the way the benchmark command does: warmup first,
several full passes over the corpus, mean and spread per system.
"""

import numpy as np

from natkit.bench import format_bench_table, speedup, time_decode
from natkit.corpus import synth_task, synth_vocab
from natkit.model import ForwardCounter, ModelConfig, decode, decode_at, init_params
from natkit.training import TrainConfig, train_model


def main():
    vocab = synth_vocab(20)
    train = synth_task(200, (8, 10), 1, seed=21, n_words=20)
    held = synth_task(30, (8, 10), 1, seed=22, n_words=20)

    at_cfg = ModelConfig(vocab_size=len(vocab), d_model=32, enc_layers=2,
                         dec_layers=2, autoregressive=True, max_len=48)
    nat_cfg = ModelConfig(vocab_size=len(vocab), d_model=32, enc_layers=2,
                          dec_layers=2, decoder_input="uniform_copy",
                          upsample=2, max_len=48)

    # the sequential model needs training so it emits <eos> instead of
    # running to the length cap; the parallel model's pass count is
    # structural, so raw initialized weights already tell the story
    print("training the sequential baseline briefly ...")
    at = train_model(train, at_cfg,
                     TrainConfig(steps=400, batch_size=16, lr=5e-3, warmup=100,
                                 eval_every=200, keep_best=1, seed=3))
    nat_params = init_params(nat_cfg, seed=0)

    src, tgt = held.pairs[0]
    c = ForwardCounter()
    hyp = decode_at(at.params, at_cfg, src.ids, counter=c)
    print(f"sequential: {len(src.ids)} source tokens -> {len(hyp)} emitted, "
          f"{c.passes} decoder passes")
    c = ForwardCounter()
    decode(nat_params, nat_cfg, src.ids, counter=c)
    print(f"parallel:   same source, {c.passes} decoder pass")
    print()

    sources = [s.ids for s, _ in held.pairs]
    at_stats = time_decode(lambda ids: decode_at(at.params, at_cfg, ids),
                           sources, runs=3, warmup=3, label="sequential")
    nat_stats = time_decode(lambda ids: decode(nat_params, nat_cfg, ids),
                            sources, runs=3, warmup=3, label="parallel")
    print(format_bench_table([at_stats, nat_stats], base_label="sequential"))
    print()
    print(f"parallel decoding is {speedup(at_stats, nat_stats):.1f}x faster "
          f"at batch size 1 on this corpus")


if __name__ == "__main__":
    main()
