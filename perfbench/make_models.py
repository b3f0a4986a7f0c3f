"""Train the two checkpoints the ``translate`` workload decodes with.

    python3 perfbench/make_models.py

Writes ``perfbench/models/at.ckpt`` (the autoregressive baseline) and
``perfbench/models/ctc_glat.ckpt`` (CTC + GLAT), both d_model 48 with 2+2
layers and max_len 48, trained on the deterministic (one-mode) synthetic
task with sources of 4-16 tokens. The files are committed, so a change to
training code does not change the decoding work the benchmark measures;
rerun this only to change the models on purpose. It prints exact-match and
stop rates on a held-out set; the benchmark README records them.
"""

from __future__ import annotations

import time

import common

TRAIN_SEED = 41
HELDOUT_SEED = 42
TRAIN_PAIRS = 4000
SRC_LEN = (4, 16)

BASE = dict(d_model=48, enc_layers=2, dec_layers=2, dec_self_attention=(True, True), max_len=48)


def configs(vocab_size: int):
    from natkit.model import ModelConfig
    from natkit.training import TrainConfig

    opt = dict(batch_size=16, lr=5e-3, warmup=100, eval_every=250, keep_best=5, seed=3)
    at = (ModelConfig(vocab_size=vocab_size, autoregressive=True, **BASE),
          TrainConfig(steps=3000, **opt))
    ctc = (ModelConfig(vocab_size=vocab_size, decoder_input="uniform_copy", upsample=3, **BASE),
           TrainConfig(steps=4000, glat_start=0.5, **opt))
    return {"at": at, "ctc_glat": ctc}


def main() -> None:
    common.use_checkout_natkit()
    from natkit.checkpoint import save_checkpoint
    from natkit.corpus import synth_task, synth_vocab
    from natkit.model import ForwardCounter, decode, decode_at
    from natkit.training import train_model

    vocab = synth_vocab(common.N_WORDS)
    train = synth_task(TRAIN_PAIRS, SRC_LEN, 1, TRAIN_SEED, n_words=common.N_WORDS)
    held = synth_task(200, SRC_LEN, 1, HELDOUT_SEED, n_words=common.N_WORDS).pairs
    common.MODELS_DIR.mkdir(exist_ok=True)
    for name, (config, hyper) in configs(len(vocab)).items():
        start = time.perf_counter()
        result = train_model(train, config, hyper, heldout=held)
        path = common.MODELS_DIR / f"{name}.ckpt"
        save_checkpoint(path, result.params, config, vocab,
                        extra={"n_averaged": result.n_averaged, "train_seed": TRAIN_SEED})
        exact = stopped = 0
        for src, tgt in held:
            if config.autoregressive:
                counter = ForwardCounter()
                hyp = decode_at(result.params, config, src.ids, counter=counter)
                stopped += len(hyp) < 2 * len(src.ids) + 8
            else:
                hyp = decode(result.params, config, src.ids)
                stopped += 1
            exact += hyp == tgt.ids
        print(f"{name}: {hyper.steps} steps in {time.perf_counter() - start:.0f} s, "
              f"exact match {exact}/{len(held)}, stopped on <eos> {stopped}/{len(held)}, "
              f"wrote {path.relative_to(common.ROOT)}", flush=True)


if __name__ == "__main__":
    main()
