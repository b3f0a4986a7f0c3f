"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them all) and enforces the stated tolerance and runtime budget.  The
oracles here are written independently of the library: enumeration is
plain itertools, collapse is re-derived inline, and all hand-counted
metric values carry their closed forms.
"""

import itertools
import json
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from natkit.analysis import adjacent_repetition_rate
from natkit.bench import time_decode
from natkit.cli import main as cli_main
from natkit.corpus import BLANK_ID, TokenSeq, synth_task, synth_vocab
from natkit.ctc import (
    collapse,
    ctc_forward,
    ctc_posteriors,
    min_alignment_len,
    viterbi_align,
)
from natkit.glancing import glance_count, sample_glance
from natkit.metrics import (
    SIG_BLEU,
    SIG_CHRF,
    SIG_TER,
    bleu,
    chrfpp,
    ter,
)
from natkit.model import (
    ForwardCounter,
    ModelConfig,
    decode,
    decode_at,
    forward,
    init_params,
    length_target_class,
    loss_length,
    token_loss,
)
from natkit.significance import SystemRun, mark_table, paired_bootstrap
from natkit.training import TrainConfig, _batch_pass, train_model
from natkit import __version__


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    line = f"acceptance {num:>2}: {name}: {status}{suffix}"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# 1. Alignment marginal and viterbi against brute-force enumeration
# ---------------------------------------------------------------------------

def _oracle_collapse(seq, blank):
    out = []
    prev = None
    for s in seq:
        if s != prev:
            prev = s
            if s != blank:
                out.append(s)
    return tuple(out)


@lru_cache(maxsize=None)
def _enumeration(T, V, blank):
    """Every length-T label sequence over V symbols, grouped by collapse."""
    seqs = np.array(list(itertools.product(range(V), repeat=T)), dtype=np.int64)
    groups = {}
    for i, row in enumerate(seqs):
        groups.setdefault(_oracle_collapse(tuple(row), blank), []).append(i)
    return seqs, {k: np.array(v) for k, v in groups.items()}


def test_criterion_01_alignment_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    n_checked = 0
    worst = 0.0
    while n_checked < 500:
        T = int(rng.integers(2, 9))
        V = int(rng.integers(2, 5))
        seqs, groups = _enumeration(T, V, 0)
        probs = rng.uniform(0.05, 1.0, size=(T, V))
        probs /= probs.sum(axis=1, keepdims=True)
        target = _oracle_collapse(tuple(int(x) for x in rng.integers(0, V, size=T)), 0)
        if not target:
            continue
        idx = groups[target]
        path_probs = probs[np.arange(T), seqs[idx]].prod(axis=1)
        mass = float(path_probs.sum())

        table = np.log(probs)
        got = math.exp(ctc_forward(table, target, blank=0))
        worst = max(worst, abs(got - mass) / mass)

        best = idx[int(np.argmax(path_probs))]
        alignment, score = viterbi_align(table, target, blank=0)
        assert alignment == tuple(int(x) for x in seqs[best])
        worst = max(worst, abs(math.exp(score) - float(path_probs.max())) / float(path_probs.max()))
        n_checked += 1

    elapsed = time.perf_counter() - start
    _report(
        1, "alignment marginal and viterbi match enumeration",
        worst <= 1e-9 and elapsed < 30.0,
        f"{n_checked} instances, max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Finite-difference checks on every loss gradient
# ---------------------------------------------------------------------------

H = 1e-5
TOL = 1e-4


def _rel(a, n):
    return abs(a - n) / max(abs(a), abs(n), 1e-2)


def _fd_array(f, x, coords):
    """Central differences of scalar f at the given flat coordinates of x."""
    errs = []
    flat = x.reshape(-1)
    for c in coords:
        keep = flat[c]
        flat[c] = keep + H
        up = f()
        flat[c] = keep - H
        down = f()
        flat[c] = keep
        errs.append((up - down) / (2 * H))
    return np.array(errs)


def _feasible_target(rng, lo, hi, T):
    while True:
        I = int(rng.integers(2, 5))
        t = tuple(int(x) for x in rng.integers(lo, hi, size=I))
        if min_alignment_len(t) <= T:
            return t


def test_criterion_02_gradient_suite():
    start = time.perf_counter()
    worst = {"lattice": 0.0, "nat": 0.0, "ctc": 0.0, "ds": 0.0, "batch": 0.0, "length": 0.0}
    V = 13
    lo = 5  # first content id past the specials

    for i in range(20):
        rng = np.random.default_rng([7, i])

        # table-level alignment gradient: minus the occupancy posterior
        T = int(rng.integers(4, 8))
        probs = rng.uniform(0.05, 1.0, size=(T, 4))
        probs /= probs.sum(axis=1, keepdims=True)
        table = np.log(probs)
        tgt = _feasible_target(rng, 1, 4, T)
        ana = -ctc_posteriors(table, tgt, blank=0)
        coords = rng.choice(table.size, size=min(20, table.size), replace=False)
        num = _fd_array(lambda: -ctc_forward(table, tgt, blank=0), table, coords)
        for c, n in zip(coords, num):
            worst["lattice"] = max(worst["lattice"], _rel(ana.reshape(-1)[c], n))

        # token loss on the last layer of a real forward
        cfg = ModelConfig(vocab_size=V, d_model=8, enc_layers=1, dec_layers=2,
                          decoder_input="uniform_copy", max_len=16)
        params = init_params(cfg, seed=i)
        J = int(rng.integers(3, 6))
        src = tuple(int(x) for x in rng.integers(lo, V, size=J))
        states = forward(params, cfg, src, J)
        target = tuple(int(x) for x in rng.integers(lo, V, size=J))
        x = states.logits[-1]
        val, dl = token_loss(x, target)
        coords = rng.choice(x.size, size=min(24, x.size), replace=False)
        num = _fd_array(lambda: token_loss(x, target)[0], x, coords)
        for c, n in zip(coords, num):
            worst["nat"] = max(worst["nat"], _rel(dl.reshape(-1)[c], n))

        # alignment loss on the last layer
        ccfg = ModelConfig(vocab_size=V, d_model=8, enc_layers=1, dec_layers=2,
                           decoder_input="uniform_copy", upsample=2, max_len=16)
        cparams = init_params(ccfg, seed=i)
        cstates = forward(cparams, ccfg, src, 2 * J)
        ctar = _feasible_target(rng, lo, V, 2 * J)
        x = cstates.logits[-1]
        cval, cdl = token_loss(x, ctar, ctc=True)
        coords = rng.choice(x.size, size=min(24, x.size), replace=False)
        num = _fd_array(lambda: token_loss(x, ctar, ctc=True)[0], x, coords)
        for c, n in zip(coords, num):
            worst["ctc"] = max(worst["ctc"], _rel(cdl.reshape(-1)[c], n))

        # the layer-averaged training objective, both token losses, through
        # the tied embedding that every layer's logits read
        base = "nat" if i % 2 == 0 else "ctc"
        dcfg = ModelConfig(vocab_size=V, d_model=8, enc_layers=1, dec_layers=2,
                           decoder_input="uniform_copy", deep_supervision=True,
                           upsample=2 if base == "ctc" else None, max_len=16)
        dparams = init_params(dcfg, seed=i)
        dlen = 2 * J if base == "ctc" else J
        dtar = _feasible_target(rng, lo, V, dlen) if base == "ctc" else target
        pair = (TokenSeq(src), TokenSeq(dtar))

        def objective():
            return _batch_pass(dparams, dcfg, [pair], TrainConfig(), None, None, train=True)

        dgrads = objective().grads
        x = dparams["emb"]
        coords = rng.choice(x.size, size=min(16, x.size), replace=False)
        num = _fd_array(lambda: objective().values[0], x, coords)
        for c, n in zip(coords, num):
            worst["ds"] = max(worst["ds"], _rel(dgrads["emb"].reshape(-1)[c], n))

        # the same objective summed over a padded batch of three pairs of
        # different lengths: padding and its masks must add nothing
        sizes = sorted(rng.choice(np.arange(2, 7), size=3, replace=False))
        bpairs = []
        for Jb in sizes:
            bsrc = tuple(int(x) for x in rng.integers(lo, V, size=Jb))
            btar = (_feasible_target(rng, lo, V, 2 * Jb) if base == "ctc"
                    else tuple(int(x) for x in rng.integers(lo, V, size=Jb)))
            bpairs.append((TokenSeq(bsrc), TokenSeq(btar)))

        def batch_objective():
            return _batch_pass(dparams, dcfg, bpairs, TrainConfig(), None, None, train=True)

        bgrads = batch_objective().grads
        coords = rng.choice(x.size, size=min(16, x.size), replace=False)
        num = _fd_array(lambda: sum(batch_objective().values), x, coords)
        for c, n in zip(coords, num):
            worst["batch"] = max(worst["batch"], _rel(bgrads["emb"].reshape(-1)[c], n))

        # length-class loss on the pooled head
        lstates = forward(params, cfg, src, J)
        cls, _ = length_target_class(cfg, J, J + 1)
        lval, dlen_grad = loss_length(lstates.length_logits, cls)
        x = lstates.length_logits
        coords = rng.choice(x.size, size=min(20, x.size), replace=False)
        num = _fd_array(lambda: loss_length(lstates.length_logits, cls)[0], x, coords)
        for c, n in zip(coords, num):
            worst["length"] = max(worst["length"], _rel(dlen_grad.reshape(-1)[c], n))

    elapsed = time.perf_counter() - start
    bad = {k: v for k, v in worst.items() if v > TOL}
    _report(
        2, "loss gradients match finite differences",
        not bad and elapsed < 60.0,
        f"20 instances each, max rel err {max(worst.values()):.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. Collapse identities and lattice feasibility properties
# ---------------------------------------------------------------------------

def test_criterion_03_collapse():
    a, b = 7, 8
    ok = collapse((a, BLANK_ID, a, b, b)) == (a, a, b)
    ok = ok and collapse((a, a, BLANK_ID, a, b)) == (a, a, b)

    rng = np.random.default_rng(33)
    symbols = (BLANK_ID, 7, 8, 9)
    for _ in range(10_000):
        n = int(rng.integers(1, 11))
        seq = tuple(int(symbols[k]) for k in rng.integers(0, 4, size=n))
        out = collapse(seq)
        ok = ok and BLANK_ID not in out
        # the sequence itself witnesses feasibility at its own length
        ok = ok and (not out or min_alignment_len(out) <= n)

    for _ in range(10_000):
        n = int(rng.integers(2, 8))
        t = [int(x) for x in rng.integers(7, 10, size=n)]
        pos = int(rng.integers(0, n - 1))
        t[pos + 1] = t[pos]  # force an adjacent repeat
        ok = ok and min_alignment_len(tuple(t)) > n

    table = np.log(np.full((3, 10), 0.1))
    neg_inf_mass = np.isneginf(ctc_forward(table, (7, 7, 8)))  # needs 4 slots
    ok = ok and bool(neg_inf_mass)
    _report(3, "collapse identities and feasibility properties", ok)


# ---------------------------------------------------------------------------
# 4. Glancing schedule endpoints and sampling uniformity
# ---------------------------------------------------------------------------

def test_criterion_04_glancing():
    U = 1000
    hyper = TrainConfig(steps=U, glat_start=0.5, glat_slope=0.2)
    lam0 = hyper.glance_ratio(0)
    lamU = hyper.glance_ratio(U)
    ok = lam0 == 0.5 and abs(lamU - 0.3) < 1e-12

    target = (7, 8, 9, 10, 11)
    ok = ok and glance_count(target, target, 0.5) == 0

    I, S, draws = 8, 3, 10_000
    tgt = tuple(range(7, 7 + I))
    rng = np.random.default_rng(44)
    freq = np.zeros(I)
    for _ in range(draws):
        mask = sample_glance(tgt, S, rng)
        for p in mask.positions:
            freq[p] += 1
    freq /= draws
    dev = float(np.abs(freq - S / I).max())
    ok = ok and dev <= 0.02
    _report(4, "glancing schedule and sampling uniformity", ok, f"max deviation {dev:.4f}")


# ---------------------------------------------------------------------------
# 5. Layer-averaged supervision identities
# ---------------------------------------------------------------------------

def test_criterion_05_deep_supervision():
    V, J = 13, 4
    src = (5, 6, 7, 8)
    target = (6, 7, 8, 9)
    pair = (TokenSeq(src), TokenSeq(target))

    def token_value(config, params):
        out = _batch_pass(params, config, [pair], TrainConfig(), None, None, train=True)
        return out.components[0]["token"]

    one = ModelConfig(vocab_size=V, d_model=8, enc_layers=1, dec_layers=1,
                      decoder_input="uniform_copy", deep_supervision=True, max_len=16)
    params = init_params(one, seed=0)
    states = forward(params, one, src, J)
    base_val, _ = token_loss(states.logits[-1], target)
    ok = token_value(one, params) == base_val  # single layer: bit-exact

    three = ModelConfig(vocab_size=V, d_model=8, enc_layers=1, dec_layers=3,
                        decoder_input="uniform_copy", deep_supervision=True, max_len=16)
    params3 = init_params(three, seed=1)
    states3 = forward(params3, three, src, J)
    per_layer = [token_loss(states3.logits[l], target)[0] for l in range(3)]
    ok = ok and len(set(per_layer)) == 3
    ok = ok and token_value(three, params3) == sum(per_layer) / 3
    _report(5, "layer-averaged supervision identities", ok)


# ---------------------------------------------------------------------------
# 6. Metric identities, hand counts, signature strings
# ---------------------------------------------------------------------------

def test_criterion_06_metrics():
    ident = ["the quick brown fox jumps", "over the lazy dog again"]
    ok = abs(bleu(ident, ident).value - 100.0) < 1e-9
    ok = ok and abs(chrfpp(ident, ident).value - 100.0) < 1e-9
    ok = ok and ter(ident, ident).value == 0.0

    # counts: 1-4 gram matches 5/5, 3/4, 2/3, 1/2; lengths 5 vs 6
    got = bleu(["the cat sat on mat"], ["the cat sat on the mat"]).value
    want = 100 * math.exp(1 - 6 / 5) * ((3 / 4) * (2 / 3) * (1 / 2)) ** 0.25
    ok = ok and abs(got - want) < 5e-5

    # char orders 1-4: F = 3/4, 2/3, 1/2, 0; word order 1: 0; five orders active
    got = chrfpp(["abcd"], ["abce"]).value
    want = (3 / 4 + 2 / 3 + 1 / 2 + 0 + 0) / 5 * 100
    ok = ok and abs(got - want) < 5e-5

    # one block shift, zero remaining edits, reference length 4
    got = ter(["b a c d"], ["a b c d"]).value
    ok = ok and abs(got - 25.0) < 5e-5

    expect = {
        SIG_BLEU: "nrefs:1 | case:mixed | eff:no | tok:13a | smooth:exp",
        SIG_CHRF: "nrefs:1 | case:mixed | eff:yes | nc:6 | nw:2 | space:no",
        SIG_TER: "nrefs:1 | case:mixed | tok:tercom | norm:no | punct:yes | asian:no",
    }
    for sig, base in expect.items():
        head, _, version = sig.rpartition(" | ")
        ok = ok and head == base and version == f"version:{__version__}"
    _report(6, "metric identities, hand counts, signatures", ok)


# ---------------------------------------------------------------------------
# 7. Bootstrap calibration and comparison-table pairing
# ---------------------------------------------------------------------------

def test_criterion_07_significance():
    start = time.perf_counter()
    refs = [f"w{i} alpha beta gamma delta" for i in range(40)]
    same = SystemRun("same", tuple(refs))
    n_significant = 0
    for seed in range(200):
        res = paired_bootstrap(same, SystemRun("twin", tuple(refs)), refs,
                               n_resamples=1000, seed=seed)
        n_significant += int(res.p_value < 0.05)
    ok = n_significant == 0

    worse = SystemRun("worse", tuple(r.replace("beta", "xx") for r in refs))
    res = paired_bootstrap(worse, SystemRun("clean", tuple(refs)), refs, n_resamples=1000)
    ok = ok and res.p_value <= 0.001

    def degraded(every):
        return tuple(r.replace("gamma", "zz") if i % every == 0 else r
                     for i, r in enumerate(refs))

    blocks = [
        [SystemRun("Vanilla", degraded(2))],
        [SystemRun("CTC", degraded(4)), SystemRun("+GLAT", degraded(8)),
         SystemRun("+GLAT+DS", degraded(10))],
        [SystemRun("CTC-wide", degraded(5))],
    ]
    rows = mark_table(blocks, refs, n_resamples=200)
    bases = {r.system: r.base for r in rows}
    ok = ok and bases == {
        "Vanilla": None,
        "CTC": "Vanilla",
        "+GLAT": "CTC",
        "+GLAT+DS": "+GLAT",
        "CTC-wide": "Vanilla",
    }
    ok = ok and sum(r.p_value is not None for r in rows) == len(rows) - 1
    elapsed = time.perf_counter() - start
    _report(7, "bootstrap calibration and table pairing", ok,
            f"0 spurious rejections in 200 trials, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. Method ordering on the multimodal corpus
# ---------------------------------------------------------------------------

def _train_and_eval(config, hyper, train_corpus, val_pairs, held):
    result = train_model(train_corpus, config, hyper, heldout=val_pairs)
    exact = 0
    hyps = []
    for src, tgt in held.pairs:
        hyp = decode(result.params, config, src.ids)
        hyps.append(hyp)
        exact += int(hyp == tgt.ids)
    return exact, adjacent_repetition_rate(hyps)


def test_criterion_08_method_ordering():
    start = time.perf_counter()
    train = synth_task(2000, (6, 10), 2, seed=0, n_words=20)
    held = synth_task(200, (9, 10), 2, seed=1, n_words=20)
    val = synth_task(100, (6, 10), 2, seed=2, n_words=20).pairs
    vocab_size = len(synth_vocab(20))

    base = dict(vocab_size=vocab_size, d_model=48, enc_layers=2, dec_layers=2,
                decoder_input="uniform_copy", dec_self_attention=(True, True),
                max_len=48)
    steps = 4500
    opt = dict(steps=steps, batch_size=16, lr=5e-3, warmup=100, seed=3,
               eval_every=max(200, steps // 8), keep_best=5)

    vanilla = _train_and_eval(
        ModelConfig(**base), TrainConfig(**opt), train, val, held)
    ctc = _train_and_eval(
        ModelConfig(**base, upsample=3), TrainConfig(**opt), train, val, held)
    glat = _train_and_eval(
        ModelConfig(**base, upsample=3),
        TrainConfig(**opt, glat_start=0.5, glat_slope=0.0), train, val, held)

    elapsed = time.perf_counter() - start
    ordering = glat[0] >= ctc[0] >= vanilla[0]
    repetition = vanilla[1] > glat[1]
    _report(
        8, "method ordering on the multimodal corpus",
        ordering and repetition and elapsed < 600.0,
        f"exact {vanilla[0]}/{ctc[0]}/{glat[0]} of {len(held.pairs)}, "
        f"repetition {vanilla[1]:.4f} vs {glat[1]:.4f}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 9. Decoder pass counts and the latency advantage of parallel decoding
# ---------------------------------------------------------------------------

def test_criterion_09_latency():
    start = time.perf_counter()
    train = synth_task(300, (8, 10), 1, seed=21, n_words=20)
    held = synth_task(40, (8, 10), 1, seed=22, n_words=20)
    vocab_size = len(synth_vocab(20))

    at_cfg = ModelConfig(vocab_size=vocab_size, d_model=32, enc_layers=2,
                         dec_layers=2, autoregressive=True, max_len=48)
    at = train_model(train, at_cfg,
                     TrainConfig(steps=500, batch_size=16, lr=5e-3, warmup=100,
                                 eval_every=250, keep_best=1, seed=3))

    nat_cfg = ModelConfig(vocab_size=vocab_size, d_model=32, enc_layers=2,
                          dec_layers=2, decoder_input="uniform_copy",
                          upsample=2, max_len=48)
    nat = train_model(train, nat_cfg,
                      TrainConfig(steps=300, batch_size=16, lr=5e-3, warmup=100,
                                  eval_every=150, keep_best=1, seed=3))

    ok = True
    emitted = []
    for src, _ in held.pairs:
        c = ForwardCounter()
        hyp = decode_at(at.params, at_cfg, src.ids, counter=c)
        ok = ok and len(hyp) < 2 * len(src.ids) + 8  # stopped on <eos>
        ok = ok and c.passes == len(hyp) + 1
        emitted.append(len(hyp))

        c = ForwardCounter()
        decode(nat.params, nat_cfg, src.ids, counter=c)
        ok = ok and c.passes == 1
    avg_len = float(np.mean(emitted))
    ok = ok and avg_len >= 8.0

    # single AT and NAT runs alternate, so that a slow period of the machine
    # lands on both sides rather than on one
    sources = [src.ids for src, _ in held.pairs]
    run_ms = {"at": [], "nat": []}
    for _ in range(3):
        run_ms["at"].append(time_decode(lambda ids: decode_at(at.params, at_cfg, ids),
                                        sources, runs=1, warmup=3, label="at").mean_ms)
        run_ms["nat"].append(time_decode(lambda ids: decode(nat.params, nat_cfg, ids),
                                         sources, runs=1, warmup=3, label="nat").mean_ms)
    multiple = float(np.mean(run_ms["at"]) / np.mean(run_ms["nat"]))
    elapsed = time.perf_counter() - start
    _report(
        9, "decoder pass counts and latency advantage",
        ok and multiple > 2.0 and elapsed < 120.0,
        f"avg emitted {avg_len:.1f}, speedup {multiple:.1f}x, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 10. Byte-identical rerun of every non-timing artifact
# ---------------------------------------------------------------------------

TRAIN_INI = """\
[data]
src = data/src.txt
tgt = data/tgt.txt

[model]
d_model = 16
enc_layers = 1
dec_layers = 1
decoder_input = uniform_copy
upsample = 2
max_len = 24

[training]
steps = 40
batch_size = 8
warmup = 10
eval_every = 20
seed = 3
"""


def _pipeline(root):
    root.mkdir()
    data = root / "data"
    assert cli_main(["synth", "--out-dir", str(data), "--n", "30", "--len-min", "4",
                     "--len-max", "7", "--modes", "1", "--seed", "5",
                     "--n-words", "12"]) == 0
    ini = root / "train.ini"
    ini.write_text(TRAIN_INI)
    assert cli_main(["train", "--config", str(ini), "--out-dir", str(root / "run")]) == 0
    assert cli_main(["decode", "--checkpoint", str(root / "run" / "model.ckpt"),
                     "--src", str(data / "src.txt"),
                     "--out", str(root / "hyp.txt")]) == 0
    assert cli_main(["score", "--hyp", str(root / "hyp.txt"),
                     "--ref", str(data / "tgt.txt"), "--json",
                     "--out", str(root / "score.json")]) == 0
    spec = root / "table.spec"
    spec.write_text("decoded\thyp.txt\n+reference\tdata/tgt.txt\n")
    assert cli_main(["signif", "--spec", str(spec), "--ref", str(data / "tgt.txt"),
                     "--n-resamples", "200", "--seed", "1",
                     "--out", str(root / "table.tsv")]) == 0
    assert cli_main(["analyze", "--hyp", str(root / "hyp.txt"),
                     "--ref", str(data / "tgt.txt"),
                     "--out-dir", str(root / "ana")]) == 0
    assert cli_main(["sweep", "--config", str(ini), "--knob", "dropout",
                     "--values", "0,0.1", "--out", str(root / "sweep.tsv")]) == 0
    return [
        data / "src.txt", data / "tgt.txt",
        root / "run" / "model.ckpt", root / "run" / "final.ckpt",
        root / "run" / "train_log.jsonl",
        root / "hyp.txt", root / "score.json", root / "table.tsv",
        root / "ana" / "levenshtein.tsv", root / "ana" / "bucketed_bleu.tsv",
        root / "sweep.tsv",
    ]


def test_criterion_10_determinism(tmp_path, capsys):
    first = _pipeline(tmp_path / "a")
    second = _pipeline(tmp_path / "b")
    differing = [
        p1.name for p1, p2 in zip(first, second)
        if p1.read_bytes() != p2.read_bytes()
    ]
    with capsys.disabled():
        _report(10, "byte-identical rerun artifacts", not differing,
                f"{len(first)} artifacts" + (f", differ: {differing}" if differing else ""))


# ---------------------------------------------------------------------------
# Supplementary: the deterministic task is learned nearly perfectly
# ---------------------------------------------------------------------------

def test_supplementary_distilled_training():
    start = time.perf_counter()
    train = synth_task(800, (3, 8), 1, seed=11, n_words=20)
    held = synth_task(200, (3, 8), 1, seed=12, n_words=20)
    vocab_size = len(synth_vocab(20))

    config = ModelConfig(vocab_size=vocab_size, d_model=48, enc_layers=2,
                         dec_layers=2, decoder_input="uniform_copy",
                         upsample=3, max_len=48)
    hyper = TrainConfig(steps=2000, batch_size=16, lr=5e-3, warmup=100,
                        eval_every=200, keep_best=5, seed=3, glat_start=0.5)
    result = train_model(train, config, hyper, heldout=held.pairs)

    exact = sum(
        int(decode(result.params, config, src.ids) == tgt.ids)
        for src, tgt in held.pairs
    )
    rate = exact / len(held.pairs)
    elapsed = time.perf_counter() - start
    _report("s", "deterministic task learned to 0.95 exact match",
            rate >= 0.95, f"{exact}/{len(held.pairs)}, {elapsed:.0f}s")
