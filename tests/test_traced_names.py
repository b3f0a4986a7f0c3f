"""The benchmark's traced run (``perfbench/tracer.py``) replaces natkit
functions with timing wrappers at the module names their callers look them
up by. These tests keep those lookup sites where the tracer expects them."""

import ast
import importlib
from pathlib import Path

import pytest

from natkit.corpus import synth_task, synth_vocab
from natkit.glancing import GlanceMask
from natkit.model import ModelConfig
from natkit.training import TrainConfig, train_model

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_wrapped():
    """The tracer's WRAPPED table, read from its source without running it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} has no WRAPPED table")


WRAPPED = [(module, attr) for module, attr, _ in tracer_wrapped()]
TRAINING_SIDE = [(m, a) for m, a in WRAPPED
                 if m in ("natkit.training", "natkit.model", "natkit.glancing")]


@pytest.mark.parametrize("module, attr", WRAPPED, ids=[f"{m}.{a}" for m, a in WRAPPED])
def test_every_wrapped_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_glat_run_reaches_every_training_side_name(monkeypatch):
    assert ("natkit.model", "ctc_loss_logits") in TRAINING_SIDE
    inside_step = [False]
    calls = {key: [] for key in TRAINING_SIDE}  # per call: was a train_step running?
    results = {key: [] for key in TRAINING_SIDE}
    for key in TRAINING_SIDE:
        module = importlib.import_module(key[0])

        def counted(*args, _key=key, _original=getattr(module, key[1]), **kwargs):
            calls[_key].append(inside_step[0])
            outer = inside_step[0]
            inside_step[0] = outer or _key[1] == "train_step"
            try:
                result = _original(*args, **kwargs)
            finally:
                inside_step[0] = outer
            results[_key].append(result)
            return result

        monkeypatch.setattr(module, key[1], counted)

    train = synth_task(16, (3, 5), 1, seed=1, n_words=10)
    held = synth_task(4, (3, 5), 1, seed=2, n_words=10).pairs
    config = ModelConfig(vocab_size=len(synth_vocab(10)), d_model=8, enc_layers=1,
                         dec_layers=2, decoder_input="uniform_copy", upsample=3, max_len=24)
    hyper = TrainConfig(steps=2, batch_size=4, warmup=1, eval_every=1, keep_best=1,
                        glat_start=0.5, seed=3)
    train_model(train, config, hyper, heldout=held)

    assert [key for key, seen in calls.items() if not seen] == []
    assert calls[("natkit.training", "train_step")] == [False, False]
    assert calls[("natkit.training", "validation_loss")] == [False, False]
    # the gradient loss serves training only; validation computes values
    assert all(calls[("natkit.model", "ctc_loss_logits")])
    # the trace hook counts reveals as len(result[0])
    assert all(isinstance(r[0], GlanceMask) for r in results[("natkit.training", "glance_inputs_ctc")])
