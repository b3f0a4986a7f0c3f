"""The three stages a run measures: train, translate and score.

A stage builds its inputs in its constructor (part of the run's set-up).
Its work comes in *rounds*, each a list of short *units*; every unit calls
natkit's public functions or commands and times each call on its own. The
run interleaves the units of all stages (see ``run.measure``), so that
each metric's samples spread over the whole run. After the run, ``check``
verifies the outputs against the oracles and properties, and
``end_to_end`` reduces the timings to medians. Work that repeats must
reproduce the first result exactly.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import traceback
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

import common
import inputs
import oracles
from tracer import Recorder

BATCH = 16


class Stage:
    name = ""
    min_rounds = 1

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self.rounds = 0       # completed rounds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.seconds: dict[str, list[float]] = {}  # operation -> timings

    def round_units(self) -> list:
        """The callables of the next round, in order."""
        raise NotImplementedError

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{self.name}: {text}")

    def timed(self, span: str, what: str, fn, *args, **kwargs):
        """(result, seconds) of one operation, or None if it raised."""
        self.attempted += 1
        try:
            with self.rec.span(span):
                start = perf_counter()
                result = fn(*args, **kwargs)
                elapsed = perf_counter() - start
        except Exception:
            self.failed += 1
            sys.stderr.write(f"operation failed: {what}\n{traceback.format_exc()}")
            return None
        return result, elapsed

    def hooks(self) -> dict:
        """Checks the traced run attaches to wrapped functions, by span name."""
        return {}

    def samples(self) -> dict:
        """The raw timings behind the stage's end-to-end metrics."""
        return self.seconds


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class TrainStage(Stage):
    """Criterion 08's three NAT variants, a fixed number of steps each; a
    round trains each variant once, from scratch."""

    name = "train"
    MODES = ("vanilla", "ctc", "glat")
    STEPS = 20

    def __init__(self, seed: int, rec: Recorder):
        super().__init__(rec)
        from natkit.corpus import synth_vocab
        from natkit.model import ModelConfig
        from natkit.training import TrainConfig

        self.corpus, self.heldout = inputs.train_inputs(seed)
        base = dict(vocab_size=len(synth_vocab(common.N_WORDS)), d_model=48, enc_layers=2,
                    dec_layers=2, decoder_input="uniform_copy", dec_self_attention=(True, True),
                    max_len=48)
        opt = dict(steps=self.STEPS, batch_size=BATCH, lr=5e-3, warmup=5,
                   eval_every=self.STEPS, keep_best=1, seed=inputs.sub_seed(seed, 5))
        self.setups = {
            "vanilla": (ModelConfig(**base), TrainConfig(**opt)),
            "ctc": (ModelConfig(**base, upsample=3), TrainConfig(**opt)),
            "glat": (ModelConfig(**base, upsample=3),
                     TrainConfig(**opt, glat_start=0.5, glat_slope=0.0)),
        }
        self.seconds = {m: [] for m in self.MODES}
        self.logs: dict[str, list] = {}
        self.revealed = 0  # glance reveals seen by the traced run

    def round_units(self) -> list:
        return [partial(self.train, mode) for mode in self.MODES]

    def train(self, mode: str) -> None:
        from natkit import training

        config, hyper = self.setups[mode]
        done = self.timed(f"train.{mode}", f"train_model ({mode})", training.train_model,
                          self.corpus, config, hyper, heldout=self.heldout)
        if done is None:
            return
        result, elapsed = done
        self.seconds[mode].append(elapsed)
        log = [(r["loss"], r["skipped"]) for r in result.log]
        if mode not in self.logs:
            self.logs[mode] = log
        elif log != self.logs[mode]:
            self.problem(f"{mode}: a rerun of the same training logged other losses")

    def check(self) -> None:
        tenth = max(1, self.STEPS // 10)
        for mode, log in self.logs.items():
            losses = [loss for loss, _ in log]
            if not all(math.isfinite(v) for v in losses):
                self.problem(f"{mode}: non-finite loss")
            elif mode != "vanilla" and min(losses) < 0:
                self.problem(f"{mode}: negative CTC loss {min(losses)}")
            elif not np.mean(losses[-tenth:]) < np.mean(losses[:tenth]):
                self.problem(f"{mode}: loss did not fall ({np.mean(losses[:tenth]):.4f} -> "
                             f"{np.mean(losses[-tenth:]):.4f})")
            skipped = sum(s for _, s in log)
            if skipped:
                self.problem(f"{mode}: {skipped} pairs skipped")

    def end_to_end(self) -> dict[str, float]:
        pairs = self.STEPS * BATCH
        return {f"train_{m}_pairs_per_s": pairs / statistics.median(self.seconds[m])
                for m in self.MODES}

    def hooks(self) -> dict:
        from natkit.corpus import BLANK_ID
        from natkit.ctc import ctc_loss_logits

        def viterbi(args, kwargs, result):
            table, target = args[0], tuple(args[1])
            path, logp = result
            if oracles.ctc_collapse(path, BLANK_ID) != target:
                self.problem("a Viterbi alignment does not collapse to its target")
            # the best single path cannot outweigh the sum over all paths
            loss, _ = ctc_loss_logits(table, target)
            if logp > -loss + 1e-9:
                self.problem(f"Viterbi log-probability {logp} exceeds -loss {-loss}")

        def ctc_loss(args, kwargs, result):
            _, grad = result
            worst = float(np.max(np.abs(grad.sum(axis=1))))
            if worst > 1e-9:
                self.problem(f"a CTC logit-gradient row sums to {worst:.3e}, not 0")

        def glance(args, kwargs, result):
            self.revealed += len(result[0])

        return {"glancing.viterbi_align": viterbi, "model.ctc_loss_logits": ctc_loss,
                "training.glance_inputs_ctc": glance}


# ---------------------------------------------------------------------------
# translate
# ---------------------------------------------------------------------------

# exact match of the committed models on the task's targets (README)
AT_EXACT_MIN = 0.98
CTC_EXACT_MIN = 0.95


class TranslateStage(Stage):
    """Batch-size-1 greedy decoding with the committed AT and CTC+GLAT
    models; a round decodes every held-out source once with each, in
    chunks of CHUNK sentences."""

    name = "translate"
    min_rounds = 3  # a sentence's latency is the median of its rounds
    CHUNK = 26

    def __init__(self, seed: int, rec: Recorder):
        super().__init__(rec)
        from natkit.checkpoint import load_checkpoint
        from natkit.corpus import synth_vocab

        loaded = {}
        for key in ("at", "ctc_glat"):
            with rec.span("checkpoint.load"):
                loaded[key] = load_checkpoint(common.MODELS_DIR / f"{key}.ckpt")
        self.at_params, self.at_config, at_vocab, _ = loaded["at"]
        self.ctc_params, self.ctc_config, ctc_vocab, _ = loaded["ctc_glat"]
        expected = synth_vocab(common.N_WORDS).tokens
        if at_vocab.tokens != expected or ctc_vocab.tokens != expected:
            raise common.SetupError("a translate model has another vocabulary than the task")
        if not self.at_config.autoregressive or self.ctc_config.upsample != 3:
            raise common.SetupError("the translate models are not AT and CTC (upsample 3)")
        self.pairs = inputs.translate_inputs(seed)
        n = len(self.pairs)
        self.at_ms: list[list[float]] = [[] for _ in range(n)]
        self.ctc_ms: list[list[float]] = [[] for _ in range(n)]
        self.at_out: list = [None] * n
        self.ctc_out: list = [None] * n

    def round_units(self) -> list:
        return [partial(self.decode_chunk, lo) for lo in range(0, len(self.pairs), self.CHUNK)]

    def decode_chunk(self, lo: int) -> None:
        from natkit import model

        chunk = range(lo, min(lo + self.CHUNK, len(self.pairs)))
        for i in chunk:
            self._decode(i, model.decode_at, self.at_params, self.at_config,
                         self.at_ms, self.at_out, "translate.at")
        for i in chunk:
            self._decode(i, model.decode, self.ctc_params, self.ctc_config,
                         self.ctc_ms, self.ctc_out, "translate.ctc")

    def _decode(self, i: int, fn, params, config, times, outs, span: str) -> None:
        from natkit.model import ForwardCounter

        counter = ForwardCounter()
        done = self.timed(span, f"{span} of sentence {i}", fn, params, config,
                          self.pairs[i][0], counter=counter)
        if done is None:
            return
        out, elapsed = done
        times[i].append(elapsed * 1000.0)
        if outs[i] is None:
            outs[i] = (out, counter.passes)
        elif outs[i] != (out, counter.passes):
            self.problem(f"{span}: sentence {i} decoded differently on a rerun")

    def samples(self) -> dict:
        return {"at_ms": self.at_ms, "ctc_ms": self.ctc_ms}

    @property
    def passes_per_round(self) -> int:
        """AT decoder passes to decode every source once."""
        return sum(passes for _, passes in filter(None, self.at_out))

    def check(self) -> None:
        from natkit.corpus import BLANK_ID, BOS_ID, EOS_ID
        from natkit.model import forward

        self.exact = {"at": 0, "ctc": 0}
        for i, (src, tgt) in enumerate(self.pairs):
            if self.at_out[i] is not None:
                out, passes = self.at_out[i]
                cap = 2 * len(src) + 8
                states = forward(self.at_params, self.at_config, src, len(out) + 1,
                                 prev_ids=(BOS_ID,) + out)
                pred = tuple(int(v) for v in np.argmax(states.logits[-1], axis=1))
                if pred[:len(out)] != out:
                    self.problem(f"AT sentence {i} is not the argmax of its teacher-forced pass")
                stopped = len(out) < cap
                if stopped and pred[len(out)] != EOS_ID:
                    self.problem(f"AT sentence {i} stopped where the model does not predict <eos>")
                if passes != (len(out) + 1 if stopped else cap):
                    self.problem(f"AT sentence {i}: {passes} passes for {len(out)} tokens")
                self.exact["at"] += out == tgt
            if self.ctc_out[i] is not None:
                out, passes = self.ctc_out[i]
                states = forward(self.ctc_params, self.ctc_config, src, 3 * len(src))
                path = np.argmax(states.logits[-1], axis=1)
                if oracles.ctc_collapse(path, BLANK_ID) != out:
                    self.problem(f"CTC sentence {i} is not the collapsed argmax at length 3J")
                if passes != 1:
                    self.problem(f"CTC sentence {i} took {passes} decoder passes")
                self.exact["ctc"] += out == tgt
        n = len(self.pairs)
        for key, floor in (("at", AT_EXACT_MIN), ("ctc", CTC_EXACT_MIN)):
            if self.exact[key] / n < floor:
                self.problem(f"{key} exact match {self.exact[key]}/{n} is below {floor}")

    @staticmethod
    def latencies(times: list[list[float]]) -> tuple[float, float]:
        """p50 and p95 over sentences of each sentence's median latency."""
        per_sentence = [statistics.median(t) for t in times if t]
        p50, p95 = np.percentile(per_sentence, [50, 95])
        return float(p50), float(p95)

    def end_to_end(self) -> dict[str, float]:
        at50, at95 = self.latencies(self.at_ms)
        ctc50, ctc95 = self.latencies(self.ctc_ms)
        return {"at_decode_ms_p50": at50, "at_decode_ms_p95": at95,
                "ctc_decode_ms_p50": ctc50, "ctc_decode_ms_p95": ctc95}

    def reference_figures(self) -> dict:
        n = len(self.pairs)
        at50, _ = self.latencies(self.at_ms)
        ctc50, _ = self.latencies(self.ctc_ms)
        return {"at_over_ctc_p50": at50 / ctc50,
                "at_exact_match": self.exact["at"] / n, "ctc_exact_match": self.exact["ctc"] / n}


# ---------------------------------------------------------------------------
# score and ter
# ---------------------------------------------------------------------------

N_RESAMPLES = 1000


class CliStage(Stage):
    """Stages that run natkit commands in-process through ``cli.main``."""

    def __init__(self, rec: Recorder, workdir: Path):
        super().__init__(rec)
        self.dir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.outputs: dict[tuple[str, int], str] = {}

    def command(self, cmd: str, shard: int, argv: list[str]) -> None:
        """Time one command; its output file is the last argument."""
        from natkit import cli

        done = self.timed(f"cli.{cmd}", f"natkit {' '.join(argv)}", cli.main, argv)
        if done is None:
            return
        code, elapsed = done
        if code != 0:
            self.failed += 1
            sys.stderr.write(f"operation failed: natkit {' '.join(argv)} exited {code}\n")
            return
        self.seconds.setdefault(cmd, []).append(elapsed)
        text = Path(argv[-1]).read_text(encoding="utf-8")
        if (cmd, shard) not in self.outputs:
            self.outputs[(cmd, shard)] = text
        elif text != self.outputs[(cmd, shard)]:
            self.problem(f"{cmd} on shard {shard}: a rerun printed another result")

    def value(self, cmd: str, shard: int) -> float:
        return json.loads(self.outputs[(cmd, shard)])[0]["value"]

    def score_lines(self, hyp_lines: list[str], ref_lines: list[str], metrics: str) -> dict | None:
        """Untimed `natkit score` for a check: metric -> value, None on failure."""
        from natkit import cli
        from natkit.corpus import write_lines

        hyp, ref, out = self.dir / "check.hyp", self.dir / "check.ref", self.dir / "check.json"
        write_lines(hyp, hyp_lines)
        write_lines(ref, ref_lines)
        argv = ["score", "--hyp", str(hyp), "--ref", str(ref), "--json", "--out", str(out)]
        if cli.main(argv + (["--metrics", metrics] if metrics else [])) != 0:
            self.problem(f"check scoring failed ({metrics or 'default metrics'})")
            return None
        return {r["metric"]: r["value"] for r in json.loads(out.read_text(encoding="utf-8"))}


class ScoreStage(CliStage):
    """BLEU, chrF++ and a marked `signif` table on a WMT-sized test set.
    Round r scores shard r mod SCORE_SHARDS: `score` for BLEU, `score` for
    chrF++, then `signif` on the shard's four-system table."""

    name = "score"
    COMMANDS = ("bleu", "chrf", "signif")

    def __init__(self, seed: int, rec: Recorder, workdir: Path):
        super().__init__(rec, workdir)
        from natkit.corpus import write_lines

        self.data = data = inputs.score_inputs(seed)
        self.argv: list[dict[str, list[str]]] = []
        for k, table in enumerate(data.systems):
            files = []
            for j, (label, sents) in enumerate(table.items()):
                path = workdir / (f"ref{k}.txt" if label == inputs.REFERENCE_SYSTEM
                                  else f"sys{j}-{k}.txt")
                write_lines(path, (s.text for s in sents))
                files.append((label, path))
            # the root row alone in the first block; the rest extend "CTC"
            rows = [f"{label}\t{path.name}" for label, path in files]
            spec = workdir / f"table{k}.spec"
            spec.write_text("\n".join(rows[:1] + [""] + rows[1:]) + "\n", encoding="utf-8")
            ref = str(workdir / f"ref{k}.txt")
            hyp = str(dict(files)[inputs.SCORED_SYSTEM])
            self.argv.append({
                "bleu": ["score", "--hyp", hyp, "--ref", ref, "--metrics", "bleu", "--json",
                         "--out", str(workdir / f"bleu{k}.json")],
                "chrf": ["score", "--hyp", hyp, "--ref", ref, "--metrics", "chrfpp", "--json",
                         "--out", str(workdir / f"chrf{k}.json")],
                "signif": ["signif", "--spec", str(spec), "--ref", ref, "--metric", "bleu",
                           "--n-resamples", str(N_RESAMPLES), "--out", str(workdir / f"table{k}.tsv")],
            })

    def round_units(self) -> list:
        shard = self.rounds % inputs.SCORE_SHARDS
        return [partial(self.command, cmd, shard, self.argv[shard][cmd]) for cmd in self.COMMANDS]

    def check(self) -> None:
        data = self.data
        for shard in sorted({k for _, k in self.outputs}):
            refs = data.shards[shard]
            ref_profiles = [oracles.bleu_profile(r.tokens_13a) for r in refs]
            bleu = {label: oracles.corpus_bleu(
                        ref_profiles if sents is refs
                        else [oracles.bleu_profile(s.tokens_13a) for s in sents], ref_profiles)
                    for label, sents in data.systems[shard].items()}
            if ("bleu", shard) in self.outputs:
                got, want = self.value("bleu", shard), bleu[inputs.SCORED_SYSTEM]
                if abs(got - want) > 1e-9:
                    self.problem(f"shard {shard}: BLEU {got} != oracle {want}")
            if ("chrf", shard) in self.outputs:
                hyps = data.systems[shard][inputs.SCORED_SYSTEM]
                want = oracles.corpus_chrfpp([(s.chars, s.words_chrf) for s in hyps],
                                             [(r.chars, r.words_chrf) for r in refs])
                got = self.value("chrf", shard)
                if abs(got - want) > 1e-9:
                    self.problem(f"shard {shard}: chrF++ {got} != oracle {want}")
            if ("signif", shard) in self.outputs:
                self._check_table(shard, bleu)
        # identical hypothesis and reference, with the default metrics
        same = [r.text for r in data.shards[0][:100]]
        values = self.score_lines(same, same, "")
        want = {"bleu": 100.0, "chrf": 100.0, "ter": 0.0}
        if values is not None and any(abs(values[k] - v) > 1e-9 for k, v in want.items()):
            self.problem(f"identical files score {values}, not {want}")

    def _check_table(self, shard: int, bleu: dict[str, float]) -> None:
        lines = self.outputs[("signif", shard)].splitlines()
        rows = [line.split("\t") for line in lines[1:]]
        labels = list(self.data.systems[shard])
        if [r[0] for r in rows] != labels:
            self.problem(f"signif rows {[r[0] for r in rows]} != {labels}")
            return
        bases = ["-", labels[0], labels[1], labels[2]]
        for (system, metric, value, base, _, _), want_base in zip(rows, bases):
            if metric != "bleu" or base != want_base:
                self.problem(f"signif row {system}: metric {metric}, base {base}")
            if abs(float(value) - bleu[system]) > 5e-5:
                self.problem(f"signif row {system}: BLEU {value} != oracle {bleu[system]:.4f}")
        # the references win every resample against any other system
        if rows[-1][4] != f"{1 / (N_RESAMPLES + 1):.4f}":
            self.problem(f"shard {shard}: the references' row has p {rows[-1][4]}, not 1/(R+1)")

    def end_to_end(self) -> dict[str, float]:
        n = inputs.SHARD_SENTENCES
        return {
            "bleu_sent_per_s": statistics.median(n / t for t in self.seconds["bleu"]),
            "chrf_sent_per_s": statistics.median(n / t for t in self.seconds["chrf"]),
            "signif_table_s": statistics.median(self.seconds["signif"]),
        }


class TerStage(CliStage):
    """`score --metrics ter` on one file of 5..25-word sentences; a round
    scores the whole file."""

    name = "ter"

    def __init__(self, seed: int, rec: Recorder, workdir: Path):
        super().__init__(rec, workdir)
        from natkit.corpus import write_lines

        self.refs, self.hyps = inputs.ter_inputs(seed)
        write_lines(workdir / "ter.ref.txt", (s.text for s in self.refs))
        write_lines(workdir / "ter.hyp.txt", (s.text for s in self.hyps))
        self.argv = ["score", "--hyp", str(workdir / "ter.hyp.txt"),
                     "--ref", str(workdir / "ter.ref.txt"), "--metrics", "ter", "--json",
                     "--out", str(workdir / "ter.json")]

    def round_units(self) -> list:
        return [partial(self.command, "ter", 0, self.argv)]

    def check(self) -> None:
        if ("ter", 0) in self.outputs:
            ref_words = sum(len(r.words_ter) for r in self.refs)
            edits = self.value("ter", 0) * ref_words / 100.0
            pairs = list(zip(self.hyps, self.refs))
            low = sum(abs(len(h.words_ter) - len(r.words_ter)) for h, r in pairs)
            high = sum(oracles.levenshtein(h.words_ter, r.words_ter) for h, r in pairs)
            if abs(edits - round(edits)) > 1e-6 or not low <= round(edits) <= high:
                self.problem(f"TER edits {edits} outside [{low}, {high}]")
        # hand-built cases with exact edit counts
        for k, (ref, hyp, edits) in enumerate(inputs.TER_CASES):
            values = self.score_lines([" ".join(hyp)], [" ".join(ref)], "ter")
            if values is not None and abs(values["ter"] * len(ref) / 100.0 - edits) > 1e-9:
                self.problem(f"TER case {k}: {values['ter'] * len(ref) / 100.0} edits, not {edits}")

    def end_to_end(self) -> dict[str, float]:
        return {"ter_sent_per_s": statistics.median(len(self.refs) / t for t in self.seconds["ter"])}

    def hooks(self) -> dict:
        def ter_stats(args, kwargs, result):
            h, r = args[0].split(), args[1].split()
            edits = int(result[0])
            if not abs(len(h) - len(r)) <= edits <= oracles.levenshtein(h, r):
                self.problem(f"TER edits {edits} outside [|len(h)-len(r)|, Levenshtein] for {args[0]!r}")

        return {"metrics.ter_sentence_stats": ter_stats}
