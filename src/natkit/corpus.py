"""Vocabularies, tokenization and synthetic parallel corpora.

Token ids are dense integers. The special tokens sit at the lowest ids, in a
fixed order, so every model in the package can rely on the same layout:

    0 <unk>   1 <blank>   2 <pad>   3 <bos>   4 <eos>

:data:`SPECIALS` is the one definition of that layout; no vocabulary,
corpus or checkpoint can declare another.

Sources and targets never contain <blank>; it exists only inside alignment
lattices. Corpus files are UTF-8, one sentence per line, LF terminated, and
parallel files align by line number.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

UNK = "<unk>"
BLANK = "<blank>"
PAD = "<pad>"
BOS = "<bos>"
EOS = "<eos>"

SPECIALS = (UNK, BLANK, PAD, BOS, EOS)

UNK_ID = 0
BLANK_ID = 1
PAD_ID = 2
BOS_ID = 3
EOS_ID = 4


class CorpusError(ValueError):
    """Malformed corpus input (bad vocab file, misaligned parallel data)."""


@dataclass(frozen=True)
class Vocabulary:
    """Bidirectional token <-> id map; :data:`SPECIALS` hold the lowest ids.

    ``tokens[i]`` is the surface form of id ``i``; ids are dense. Construct
    via :func:`build_vocab` or :meth:`Vocabulary.from_tokens`; checkpoints
    store the token list in their header.
    """

    tokens: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if tuple(self.tokens[: len(SPECIALS)]) != SPECIALS:
            raise CorpusError(
                f"specials {SPECIALS!r} must occupy the lowest ids, "
                f"got {self.tokens[:len(SPECIALS)]!r}"
            )
        index = {}
        for i, tok in enumerate(self.tokens):
            if tok in index:
                raise CorpusError(f"duplicate token {tok!r} at ids {index[tok]} and {i}")
            index[tok] = i
        object.__setattr__(self, "_index", index)

    @classmethod
    def from_tokens(cls, content_tokens: Iterable[str]) -> "Vocabulary":
        return cls(tokens=SPECIALS + tuple(content_tokens))

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def content_ids(self) -> range:
        """Ids of ordinary tokens (everything past the specials)."""
        return range(len(SPECIALS), len(self.tokens))

    def encode(self, tokens: Iterable[str]) -> tuple[int, ...]:
        """Map surface tokens to ids; unknown tokens become <unk>."""
        return tuple(self._index.get(t, UNK_ID) for t in tokens)

    def decode(self, ids: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.tokens[i] for i in ids)


@dataclass(frozen=True)
class TokenSeq:
    """One side of a parallel pair as an id sequence.

    Sources and targets must not contain the blank id; the blank belongs to
    alignment space only.
    """

    ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if BLANK_ID in self.ids:
            raise CorpusError(f"sequence contains the blank id {BLANK_ID}")
        object.__setattr__(self, "ids", tuple(int(i) for i in self.ids))

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class ParallelCorpus:
    """Aligned (source, target) pairs."""

    pairs: tuple[tuple[TokenSeq, TokenSeq], ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

def tokenize_13a(text: str) -> list[str]:
    """Language-independent mteval-v13a tokenization.

    Unescapes the four XML entities, drops ``<skipped>`` spans and soft line
    breaks, then isolates punctuation with the classic rule set: symbols are
    always split, periods and commas are split unless they sit between digits,
    and a dash after a digit is split. Finally splits on whitespace.
    """
    norm = text
    norm = norm.replace("<skipped>", "")
    norm = norm.replace("-\n", "")
    norm = norm.replace("\n", " ")
    norm = norm.replace("&quot;", '"')
    norm = norm.replace("&amp;", "&")
    norm = norm.replace("&lt;", "<")
    norm = norm.replace("&gt;", ">")
    norm = f" {norm} "
    norm = re.sub(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])", r" \1 ", norm)
    norm = re.sub(r"([^0-9])([\.,])", r"\1 \2 ", norm)
    norm = re.sub(r"([\.,])([^0-9])", r" \1 \2", norm)
    norm = re.sub(r"([0-9])(-)", r"\1 \2 ", norm)
    return norm.split()


def build_vocab(sentences: Iterable[Sequence[str]]) -> Vocabulary:
    """Build a vocabulary from tokenized sentences.

    Content tokens are ordered by descending frequency, ties broken
    lexicographically, after the specials. A content token colliding with a
    special name is rejected.
    """
    counts: Counter[str] = Counter()
    for sent in sentences:
        counts.update(sent)
    for sp in SPECIALS:
        if sp in counts:
            raise CorpusError(f"corpus token {sp!r} collides with a special token")
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocabulary.from_tokens([tok for tok, _ in ordered])


# ---------------------------------------------------------------------------
# Synthetic parallel task
# ---------------------------------------------------------------------------

def synth_vocab(n_words: int) -> Vocabulary:
    """Vocabulary of ``n_words`` synthetic word types w00, w01, ..."""
    width = max(2, len(str(max(n_words - 1, 0))))
    return Vocabulary.from_tokens([f"w{i:0{width}d}" for i in range(n_words)])


def _apply_mode(src_ids: Sequence[int], mode: int, lo: int, n_content: int) -> tuple[int, ...]:
    """One deterministic source->target mapping.

    Mode k shifts content ids by (k + 1) modulo the content range and reverses
    the sequence for odd k; one extra token is appended so |target| equals
    |source| + 1.  The appended token is the image of the source endpoint
    farthest from the end of the (possibly reversed) body, so a trailing
    repeat happens only when the two source endpoints coincide.
    """
    shift = mode + 1

    def f(i: int) -> int:
        return lo + ((i - lo + shift) % n_content)

    body = [f(i) for i in src_ids]
    if mode % 2 == 1:
        body = body[::-1]
        body.append(f(src_ids[-1]))
    else:
        body.append(f(src_ids[0]))
    return tuple(body)


def synth_task(
    n_pairs: int,
    src_len_range: tuple[int, int],
    modes: int,
    seed: int,
    n_words: int = 20,
) -> ParallelCorpus:
    """Generate an aligned synthetic corpus with a controlled number of modes.

    Ids index :func:`synth_vocab` of ``n_words``. With ``modes=1`` the target
    is a pure function of the source (a cyclic shift of the content ids plus
    one appended token), so the task is deterministic. With ``modes>=2`` each
    pair picks one of several injective mappings uniformly at random, making
    the raw data multimodal: the same source string admits several valid
    targets.
    """
    if modes < 1:
        raise CorpusError(f"modes must be >= 1, got {modes}")
    lo_len, hi_len = src_len_range
    if lo_len < 1 or hi_len < lo_len:
        raise CorpusError(f"bad source length range {src_len_range!r}")
    lo, n_content = len(SPECIALS), n_words
    if n_content < 2:
        raise CorpusError("need at least 2 content tokens")

    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_pairs):
        j = int(rng.integers(lo_len, hi_len + 1))
        src = tuple(int(x) for x in rng.integers(lo, lo + n_content, size=j))
        mode = int(rng.integers(0, modes)) if modes > 1 else 0
        tgt = _apply_mode(src, mode, lo, n_content)
        pairs.append((TokenSeq(src), TokenSeq(tgt)))
    return ParallelCorpus(tuple(pairs))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def read_lines(path: str | Path) -> list[str]:
    """Read a one-sentence-per-line UTF-8 text file.

    Bytes that are not UTF-8 raise ``CorpusError`` naming ``path:line``.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        # read() decodes the whole file in one call, so the offset is the file's
        line = e.object.count(b"\n", 0, e.start) + 1
        raise CorpusError(f"{path}:{line}: not valid UTF-8") from None
    if not text:
        return []
    # the last line's terminator ends it; a file of one "\n" is one empty line
    if text.endswith("\n"):
        text = text[:-1]
    return text.split("\n")


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write sentences one per line, LF terminated."""
    body = "".join(f"{line}\n" for line in lines)
    Path(path).write_text(body, encoding="utf-8")


def detokenize(vocab: Vocabulary, ids: Iterable[int]) -> str:
    """Space-join the surface forms; inverse of whitespace tokenization."""
    return " ".join(vocab.decode(ids))


def write_parallel(
    corpus: ParallelCorpus,
    vocab: Vocabulary,
    src_path: str | Path,
    tgt_path: str | Path,
) -> None:
    write_lines(src_path, (detokenize(vocab, s.ids) for s, _ in corpus))
    write_lines(tgt_path, (detokenize(vocab, t.ids) for _, t in corpus))


def read_parallel(
    vocab: Vocabulary,
    src_path: str | Path,
    tgt_path: str | Path,
) -> ParallelCorpus:
    src_lines = read_lines(src_path)
    tgt_lines = read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise CorpusError(
            f"parallel files disagree: {src_path} has {len(src_lines)} lines, "
            f"{tgt_path} has {len(tgt_lines)}"
        )
    pairs = tuple(
        (TokenSeq(vocab.encode(s.split())), TokenSeq(vocab.encode(t.split())))
        for s, t in zip(src_lines, tgt_lines)
    )
    return ParallelCorpus(pairs)
