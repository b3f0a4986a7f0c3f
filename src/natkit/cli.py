"""Command-line surface for the library.

Subcommands: score, signif, train, decode, sweep, bench, analyze, synth.
Exit codes: 0 success, 1 internal error (including diverged training),
2 input error.  Run configs are flat ``key = value`` INI files; every
artifact a command writes is byte-reproducible from (config, seed),
timing measurements excepted.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from contextlib import contextmanager
from dataclasses import fields
from functools import partial
from pathlib import Path

from . import __version__
from .analysis import levenshtein_histogram
from .bench import BenchError, format_bench_table, time_decode
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .corpus import (
    CorpusError,
    build_vocab,
    detokenize,
    read_lines,
    read_parallel,
    synth_task,
    synth_vocab,
    write_parallel,
)
from .ctc import InfeasibleTargetError
from .metrics import DEFAULT_BLEU_BUCKETS, DEFAULT_METRIC, METRICS, MetricError, bucketed_bleu
from .model import ForwardCounter, ModelConfig, ModelError, decode
from .significance import SignificanceError, SystemRun, format_table, mark_table
from .training import DivergedError, TrainConfig, train_model, validation_loss

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2


class InputError(Exception):
    """Bad file, flag, or config content; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOLS[raw.strip().lower()]
    except KeyError:
        raise InputError(f"expected a boolean, got {raw!r}") from None


def _parse_bool_list(raw: str):
    return tuple(_parse_bool(part) for part in raw.split(","))


def _optional(parse):
    return lambda raw: None if raw.strip().lower() == "none" else parse(raw)


# one parser per annotated field type (the modules defining the configs use
# postponed annotations, so ``Field.type`` is the annotation's source text)
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
    "int | None": _optional(int),
    "float | None": _optional(float),
    "tuple[bool, ...] | None": _optional(_parse_bool_list),
}

# vocab_size is derived from the data files, never read from [model]
MODEL_KEYS = {f.name: _PARSERS[f.type] for f in fields(ModelConfig) if f.name != "vocab_size"}
TRAIN_KEYS = {f.name: _PARSERS[f.type] for f in fields(TrainConfig)}


def _load_ini(path: str) -> configparser.ConfigParser:
    if not Path(path).is_file():
        raise InputError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string("\n".join(read_lines(path)), source=path)
    except configparser.Error as exc:
        raise InputError(f"bad config {path}: {exc}") from exc
    return parser


def _typed_section(parser: configparser.ConfigParser, section: str, converters: dict) -> dict:
    if not parser.has_section(section):
        return {}
    out = {}
    for key, raw in parser.items(section):
        if key not in converters:
            raise InputError(f"unknown key {key!r} in [{section}]")
        try:
            out[key] = converters[key](raw)
        except InputError:
            raise
        except ValueError as exc:
            raise InputError(f"bad value for {key!r} in [{section}]: {raw!r}") from exc
    return out


def _read_corpus_files(parser: configparser.ConfigParser, config_path: str):
    """Load the [data] section: parallel files, optional held-out files."""
    if not parser.has_section("data"):
        raise InputError(f"{config_path} needs a [data] section with src and tgt")
    data = dict(parser.items("data"))
    for key in data:
        if key not in ("src", "tgt", "heldout_src", "heldout_tgt"):
            raise InputError(f"unknown key {key!r} in [data]")
    for key in ("src", "tgt"):
        if key not in data:
            raise InputError(f"[data] is missing {key!r}")
    if ("heldout_src" in data) != ("heldout_tgt" in data):
        raise InputError("[data] needs both heldout_src and heldout_tgt or neither")

    base = Path(config_path).parent

    def resolve(p: str) -> Path:
        path = Path(p)
        return path if path.is_absolute() else base / path

    src, tgt = resolve(data["src"]), resolve(data["tgt"])
    token_lines = [line.split() for line in _checked_lines(src)]
    token_lines += [line.split() for line in _checked_lines(tgt)]
    vocab = build_vocab(token_lines)
    corpus = read_parallel(vocab, src, tgt)
    heldout = None
    if "heldout_src" in data:
        held_src, held_tgt = resolve(data["heldout_src"]), resolve(data["heldout_tgt"])
        heldout = read_parallel(vocab, held_src, held_tgt).pairs
    return corpus, heldout, vocab


def _build_configs(parser: configparser.ConfigParser, vocab_size: int, seed_override):
    model_kwargs = _typed_section(parser, "model", MODEL_KEYS)
    train_kwargs = _typed_section(parser, "training", TRAIN_KEYS)
    if seed_override is not None:
        train_kwargs["seed"] = seed_override
    try:
        config = ModelConfig(vocab_size=vocab_size, **model_kwargs)
        hyper = TrainConfig(**train_kwargs)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if config.autoregressive and hyper.glat_start is not None:
        raise InputError(
            "glat_start in [training] needs a parallel model; "
            "the autoregressive = true model in [model] never glances"
        )
    return config, hyper


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _checked_lines(path) -> list[str]:
    try:
        return read_lines(path)
    except FileNotFoundError:
        raise InputError(f"file not found: {path}") from None


def _check_aligned(hyps, refs, hyp_path, ref_path) -> None:
    if len(hyps) != len(refs):
        raise InputError(
            f"line counts differ: {hyp_path} has {len(hyps)}, {ref_path} has {len(refs)}"
        )


def _aligned(hyp_path, ref_path):
    hyps = _checked_lines(hyp_path)
    refs = _checked_lines(ref_path)
    _check_aligned(hyps, refs, hyp_path, ref_path)
    return hyps, refs


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


# names accepted besides the METRICS keys: chrF++ by its own name
_METRIC_ALIASES = {"chrfpp": "chrf"}


def _metric_names(raw: str) -> list[str]:
    names = []
    for part in raw.split(","):
        name = part.strip().lower()
        name = _METRIC_ALIASES.get(name, name)
        if name not in METRICS:
            choices = ", ".join(sorted([*METRICS, *_METRIC_ALIASES]))
            raise InputError(f"unknown metric {part.strip()!r}; choose from {choices}")
        names.append(name)
    return names


def _decode_lines(decoder, sources, src_path) -> list:
    """Decode every source; one the model cannot decode raises ``src_path:line: …``."""
    out = []
    for lineno, ids in enumerate(sources, start=1):
        try:
            out.append(decoder(ids))
        except ModelError as exc:
            raise InputError(f"{src_path}:{lineno}: {exc}") from None
    return out


@contextmanager
def _naming_ref_lines(ref_path):
    """Re-raise a reference line's ``MetricError`` as ``ref_path:line: reason``."""
    try:
        yield
    except MetricError as exc:
        if exc.line is None:
            raise
        raise InputError(f"{ref_path}:{exc.line}: {exc.reason}") from None


def _encode_sources(vocab, lines, origin) -> list[tuple[int, ...]]:
    encoded = []
    for i, line in enumerate(lines, start=1):
        toks = line.split()
        if not toks:
            raise InputError(f"empty source line {i} in {origin}")
        encoded.append(vocab.encode(toks))
    return encoded


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_score(args) -> int:
    hyps, refs = _aligned(args.hyp, args.ref)
    with _naming_ref_lines(args.ref):
        reports = [METRICS[name](hyps, refs) for name in _metric_names(args.metrics)]
    if args.json:
        text = json.dumps([r.to_dict() for r in reports], sort_keys=True) + "\n"
    else:
        text = "".join(r.format_line() + "\n" for r in reports)
    _emit(text, args.out)
    return EXIT_OK


def _parse_signif_spec(path: str) -> list[list[tuple[str, Path]]]:
    lines = _checked_lines(path)
    base = Path(path).parent
    blocks: list[list[tuple[str, Path]]] = [[]]
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            if blocks[-1]:
                blocks.append([])
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise InputError(f"{path}:{i}: expected 'label<TAB>hypfile', got {line!r}")
        hyp_path = Path(parts[1])
        blocks[-1].append((parts[0], hyp_path if hyp_path.is_absolute() else base / hyp_path))
    if not blocks[-1]:
        blocks.pop()
    if not blocks:
        raise InputError(f"{path}: no systems listed")
    return blocks


def cmd_signif(args) -> int:
    refs = _checked_lines(args.ref)
    blocks = []
    for spec_block in _parse_signif_spec(args.spec):
        block = []
        for label, hyp_path in spec_block:
            hyps = _checked_lines(hyp_path)
            _check_aligned(hyps, refs, hyp_path, args.ref)
            block.append(SystemRun(label, tuple(hyps)))
        blocks.append(block)
    names = _metric_names(args.metric)
    if len(names) != 1:
        raise InputError("signif takes exactly one metric")
    metric = names[0]
    with _naming_ref_lines(args.ref):
        rows = mark_table(
            blocks, refs, metric, n_resamples=args.n_resamples, seed=args.seed
        )
    _emit(format_table(rows, metric), args.out)
    return EXIT_OK


def cmd_train(args) -> int:
    parser = _load_ini(args.config)
    corpus, heldout, vocab = _read_corpus_files(parser, args.config)
    if parser.has_option("model", "vocab_size"):
        raise InputError("vocab_size is derived from the data files; drop it from [model]")
    config, hyper = _build_configs(parser, len(vocab), args.seed)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = train_model(
        corpus, config, hyper, heldout=heldout, log_path=out_dir / "train_log.jsonl"
    )
    save_checkpoint(
        out_dir / "model.ckpt", result.params, config, vocab,
        extra={"n_averaged": result.n_averaged},
    )
    save_checkpoint(out_dir / "final.ckpt", result.final_params, config, vocab)
    val = result.val_history[-1][1] if result.val_history else float("nan")
    sys.stdout.write(
        f"trained {hyper.steps} steps, averaged {result.n_averaged} checkpoints, "
        f"last val {val:.6f}\n"
    )
    return EXIT_OK


def cmd_decode(args) -> int:
    params, config, vocab, _ = load_checkpoint(args.checkpoint)
    sources = _encode_sources(vocab, _checked_lines(args.src), args.src)
    counter = ForwardCounter()
    decoder = partial(decode, params, config, counter=counter)
    hyp_lines = [detokenize(vocab, ids) for ids in _decode_lines(decoder, sources, args.src)]
    _emit("".join(line + "\n" for line in hyp_lines), args.out)
    sys.stdout.write(f"decoded {len(sources)} sentences in {counter.passes} decoder passes\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    parser = _load_ini(args.config)
    if args.knob in MODEL_KEYS:
        section, convert = "model", MODEL_KEYS[args.knob]
    elif args.knob in TRAIN_KEYS:
        section, convert = "training", TRAIN_KEYS[args.knob]
    else:
        raise InputError(f"unknown knob {args.knob!r}")

    corpus, heldout, vocab = _read_corpus_files(parser, args.config)
    eval_pairs = heldout if heldout is not None else corpus.pairs

    lines = ["knob\tvalue\tval_loss"]
    diverged: list[str] = []
    for raw in args.values.split(","):
        raw = raw.strip()
        try:
            convert(raw)
        except ValueError:
            raise InputError(f"bad value for knob {args.knob!r}: {raw!r}") from None
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, args.knob, raw)
        config, hyper = _build_configs(parser, len(vocab), args.seed)
        try:
            result = train_model(corpus, config, hyper, heldout=heldout)
            loss = validation_loss(result.params, config, eval_pairs, hyper)
            lines.append(f"{args.knob}\t{raw}\t{loss:.6f}")
        except DivergedError:
            lines.append(f"{args.knob}\t{raw}\tdiverges")
            diverged.append(raw)
    _emit("\n".join(lines) + "\n", args.out)
    if diverged:
        sys.stderr.write(f"training diverges at {args.knob} = {', '.join(diverged)}\n")
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_bench(args) -> int:
    systems = []
    for spec in args.system:
        label, sep, ckpt = spec.partition("=")
        if not sep or not label or not ckpt:
            raise InputError(f"expected LABEL=CHECKPOINT, got {spec!r}")
        systems.append((label, ckpt))
    labels = [label for label, _ in systems]
    if len(set(labels)) != len(labels):
        raise InputError("duplicate system labels")
    base_label = args.base if args.base is not None else labels[0]
    if base_label not in labels:
        raise InputError(f"base label {base_label!r} not among systems")

    lines = _checked_lines(args.src)
    stats = []
    for label, ckpt in systems:
        params, config, vocab, _ = load_checkpoint(ckpt)
        sources = _encode_sources(vocab, lines, args.src)
        decoder = partial(decode, params, config)
        try:
            stats.append(
                time_decode(decoder, sources, runs=args.runs, warmup=args.warmup, label=label)
            )
        except ModelError:
            # name the line only on failure, so that the timed path does no extra work
            _decode_lines(decoder, sources, args.src)
            raise
    _emit(format_bench_table(stats, base_label), args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    hyps, refs = _aligned(args.hyp, args.ref)
    try:
        edges = tuple(int(e) for e in args.edges.split(","))
    except ValueError:
        raise InputError(f"bad bucket edges {args.edges!r}") from None

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    hist = levenshtein_histogram(hyps, refs)
    hist_lines = ["distance\tcount"]
    hist_lines += [f"{d}\t{int(c)}" for d, c in enumerate(hist)]
    (out_dir / "levenshtein.tsv").write_text("\n".join(hist_lines) + "\n", encoding="utf-8")

    bucket_lines = ["bucket\tbleu\tn"]
    for label, value, n in bucketed_bleu(hyps, refs, edges=edges):
        cell = f"{value:.4f}" if value is not None else "-"
        bucket_lines.append(f"{label}\t{cell}\t{n}")
    (out_dir / "bucketed_bleu.tsv").write_text("\n".join(bucket_lines) + "\n", encoding="utf-8")

    sys.stdout.write(f"wrote {out_dir / 'levenshtein.tsv'} and {out_dir / 'bucketed_bleu.tsv'}\n")
    return EXIT_OK


def cmd_synth(args) -> int:
    vocab = synth_vocab(args.n_words)
    corpus = synth_task(
        args.n, (args.len_min, args.len_max), args.modes, args.seed, n_words=args.n_words
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_parallel(corpus, vocab, out_dir / "src.txt", out_dir / "tgt.txt")
    sys.stdout.write(f"wrote {len(corpus)} pairs to {out_dir / 'src.txt'} and {out_dir / 'tgt.txt'}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="natkit",
        description="Non-autoregressive translation kernels and evaluation tools.",
    )
    parser.add_argument("--version", action="version", version=f"natkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score hypotheses against references")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--metrics", default="bleu,chrfpp,ter")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0, help="unused; scoring is deterministic")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("signif", help="paired bootstrap comparison table")
    p.add_argument("--spec", required=True, help="blocks of 'label<TAB>hypfile' rows")
    p.add_argument("--ref", required=True)
    p.add_argument("--metric", default=DEFAULT_METRIC)
    p.add_argument("--n-resamples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_signif)

    p = sub.add_parser("train", help="train a model from an INI config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None, help="overrides [training] seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("decode", help="decode a source file with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0, help="unused; decoding is deterministic")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("sweep", help="train once per knob value, report validation loss")
    p.add_argument("--config", required=True)
    p.add_argument("--knob", required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--seed", type=int, default=None, help="overrides [training] seed")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="time per-sentence decoding of checkpoints")
    p.add_argument("--system", action="append", required=True, metavar="LABEL=CHECKPOINT")
    p.add_argument("--src", required=True)
    p.add_argument("--base", default=None, help="label of the speedup baseline (default: first)")
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=0, help="unused; decoding is deterministic")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("analyze", help="edit-distance histogram and length-bucketed scores")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--edges", default=",".join(str(e) for e in DEFAULT_BLEU_BUCKETS))
    p.add_argument("--seed", type=int, default=0, help="unused; analysis is deterministic")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synth", help="generate a synthetic parallel corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--len-min", type=int, default=6)
    p.add_argument("--len-max", type=int, default=10)
    p.add_argument("--modes", type=int, default=2)
    p.add_argument("--n-words", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, CorpusError, MetricError, SignificanceError, BenchError,
            CheckpointError, InfeasibleTargetError, ModelError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except DivergedError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
