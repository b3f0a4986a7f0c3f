"""Seeded inputs of the three workloads.

Everything here is a pure function of the run's ``--seed``; the program
under test receives only the generated data. Sub-seeds are ``seed * 1000 +
tag`` so that each input has its own stream.

Scoring sentences are generated as whitespace-separated *pieces*, each an
optional leading mark, a core (a word, an integer, a decimal such as
``3.5`` or a thousands figure such as ``1,000``) and an optional trailing
mark. From the pieces the generator knows, without running any
tokenizer, the 13a tokens (marks split off, numbers kept whole), the
chrF++ words (one edge mark split off, the trailing one first) and the
tercom words (the pieces themselves). The oracles score from those lists.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

import common

# train: criterion 08's two-mode corpus with 6-10-token sources
TRAIN_PAIRS = 2000
TRAIN_SRC_LEN = (6, 10)
HELDOUT_PAIRS = 32

# translate: 24 held-out sources of every length 4..16 of the one-mode task
TRANSLATE_LENGTHS = range(4, 17)
TRANSLATE_PER_LENGTH = 24

# score: a WMT-sized test set cut into shards, each with the same multiset
# of sentence lengths (8..40 pieces), and one TER file of 5..25-word
# sentences
SCORE_SHARDS = 10
SHARD_SENTENCES = 250
SCORE_PIECES = range(8, 41)
TER_LENGTHS = (5, 10, 15, 20, 25)

# (substitution, drop, repeat) probabilities per piece and the chance of one
# block move per sentence, from the weakest system to the strongest; the
# last row of the README's table layout holds the references themselves
SYSTEMS = (
    ("Vanilla", (0.20, 0.06, 0.05), 0.5),
    ("CTC", (0.12, 0.04, 0.02), 0.4),
    ("+GLAT", (0.07, 0.02, 0.01), 0.3),
)
REFERENCE_SYSTEM = "+GLAT+DS"
SCORED_SYSTEM = "+GLAT"  # the hypothesis file the `score` commands read

LEADS = ('"', "(")
TRAILS = (",", ",", ",", ";", ":", "?", "!", '"', ")", "%")


def sub_seed(seed: int, tag: int) -> int:
    return seed * 1000 + tag


# ---------------------------------------------------------------------------
# train and translate
# ---------------------------------------------------------------------------

def train_inputs(seed: int):
    """(training corpus, held-out pairs) of the two-mode synthetic task."""
    from natkit.corpus import synth_task

    corpus = synth_task(TRAIN_PAIRS, TRAIN_SRC_LEN, 2, sub_seed(seed, 1), n_words=common.N_WORDS)
    held = synth_task(HELDOUT_PAIRS, TRAIN_SRC_LEN, 2, sub_seed(seed, 2), n_words=common.N_WORDS)
    return corpus, held.pairs


def translate_inputs(seed: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(source ids, target ids) pairs, a fixed number per source length, in
    seeded order so that lengths interleave."""
    from natkit.corpus import synth_task

    pairs = []
    for j in TRANSLATE_LENGTHS:
        corpus = synth_task(TRANSLATE_PER_LENGTH, (j, j), 1, sub_seed(seed, 100 + j),
                            n_words=common.N_WORDS)
        pairs += [(src.ids, tgt.ids) for src, tgt in corpus.pairs]
    order = np.random.default_rng(sub_seed(seed, 3)).permutation(len(pairs))
    return [pairs[int(i)] for i in order]


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Piece:
    lead: str
    core: str
    trail: str

    @property
    def surface(self) -> str:
        return self.lead + self.core + self.trail

    @property
    def tokens_13a(self) -> list[str]:
        return [t for t in (self.lead, self.core, self.trail) if t]

    @property
    def words_chrf(self) -> list[str]:
        if self.trail:
            return [self.lead + self.core, self.trail]
        if self.lead:
            return [self.lead, self.core]
        return [self.core]


@dataclass(frozen=True)
class Sentence:
    pieces: tuple[Piece, ...]

    @property
    def text(self) -> str:
        return " ".join(p.surface for p in self.pieces)

    @property
    def tokens_13a(self) -> list[str]:
        return [t for p in self.pieces for t in p.tokens_13a]

    @property
    def words_chrf(self) -> list[str]:
        return [w for p in self.pieces for w in p.words_chrf]

    @property
    def chars(self) -> str:
        return "".join(p.surface for p in self.pieces)

    @property
    def words_ter(self) -> list[str]:
        return [p.surface for p in self.pieces]


def _lexicon() -> list[str]:
    """A fixed inventory of 1,800 pseudo-words, some hyphenated."""
    onsets = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "st", "tr")
    vowels = ("a", "e", "i", "o", "u", "ai", "ou")
    codas = ("", "n", "r", "s", "l", "nd", "st")
    syllables = [o + v + c for o in onsets for v in vowels for c in codas]
    n = len(syllables)
    words = []
    for i in range(1800):
        a, b = syllables[i % n], syllables[(13 * (i % n) + 211 * (i // n) + 7) % n]
        words.append(a + b if i % 9 else a + "-" + b)
    return words


class SentenceGenerator:
    """Zipf-distributed words with numbers and punctuation attached."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.words = _lexicon()
        self.cum_weights = list(itertools.accumulate(1.0 / r for r in range(1, len(self.words) + 1)))

    def core(self) -> str:
        rng = self.rng
        r = rng.random()
        if r < 0.05:
            return str(rng.randrange(1, 2100))
        if r < 0.07:
            return f"{rng.randrange(100)}.{rng.randrange(10)}"
        if r < 0.08:
            return f"{rng.randrange(1, 1000)},{rng.randrange(1000):03d}"
        return rng.choices(self.words, cum_weights=self.cum_weights)[0]

    def piece(self) -> Piece:
        core = self.core()
        lead = trail = ""
        r = self.rng.random()
        if r < 0.04:
            lead = self.rng.choice(LEADS)
        elif r < 0.16:
            trail = self.rng.choice(TRAILS)
        return Piece(lead, core, trail)

    def absent_piece(self, ref: Sentence) -> Piece:
        """A piece whose surface form the reference does not contain."""
        words = set(ref.words_ter)
        while True:
            piece = self.piece()
            if piece.surface not in words:
                return piece

    def sentence(self, n_pieces: int, distinct: bool = False) -> Sentence:
        pieces: list[Piece] = []
        while len(pieces) < n_pieces:
            piece = self.piece()
            if not (distinct and any(p.core == piece.core for p in pieces)):
                pieces.append(piece)
        last = pieces[-1]
        pieces[-1] = Piece(last.lead, last.core, ".")
        first = pieces[0]
        pieces[0] = Piece(first.lead, first.core[:1].upper() + first.core[1:], first.trail)
        return Sentence(tuple(pieces))

    def near_miss(self, ref: Sentence, rates: tuple[float, float, float], move_p: float) -> Sentence:
        """Substitutions, drops and repeats per piece, then maybe one block move."""
        sub, drop, rep = rates
        out: list[Piece] = []
        for p in ref.pieces:
            r = self.rng.random()
            if r < drop:
                continue
            out.append(self.piece() if r < drop + sub else p)
            if self.rng.random() < rep:
                out.append(out[-1])
        if not out:
            out = [ref.pieces[0]]
        if self.rng.random() < move_p:
            out = self.block_move(out)
        return Sentence(tuple(out))

    def block_move(self, pieces: list[Piece]) -> list[Piece]:
        """Move a block of 2-5 pieces to another position."""
        if len(pieces) < 4:
            return pieces
        span = self.rng.randint(2, min(5, len(pieces) - 1))
        start = self.rng.randrange(len(pieces) - span + 1)
        block, rest = pieces[start:start + span], pieces[:start] + pieces[start + span:]
        ins = self.rng.choice([i for i in range(len(rest) + 1) if i != start])
        return rest[:ins] + block + rest[ins:]


@dataclass
class ScoreInputs:
    shards: list[list[Sentence]]                  # references, shard by shard
    systems: list[dict[str, list[Sentence]]]      # per shard, in table order


def score_inputs(seed: int) -> ScoreInputs:
    gen = SentenceGenerator(sub_seed(seed, 4))
    lengths = [SCORE_PIECES[i % len(SCORE_PIECES)] for i in range(SHARD_SENTENCES)]
    shards, systems = [], []
    for _ in range(SCORE_SHARDS):
        gen.rng.shuffle(lengths)
        refs = [gen.sentence(n) for n in lengths]
        table = {name: [gen.near_miss(r, rates, move) for r in refs]
                 for name, rates, move in SYSTEMS}
        table[REFERENCE_SYSTEM] = refs
        shards.append(refs)
        systems.append(table)
    return ScoreInputs(shards, systems)


def ter_hypothesis(gen: SentenceGenerator, ref: Sentence) -> Sentence:
    """A fixed edit recipe per length: a word the reference lacks at every
    eighth position from the third, the middle word dropped from 10 words
    up, and the two words after the first moved to the end."""
    pieces = list(ref.pieces)
    for i in range(2, len(pieces), 8):
        pieces[i] = gen.absent_piece(ref)
    if len(pieces) >= 10:
        del pieces[len(pieces) // 2]
    return Sentence(tuple(pieces[:1] + pieces[3:] + pieces[1:3]))


def ter_inputs(seed: int) -> tuple[list[Sentence], list[Sentence]]:
    """(references, hypotheses) of the TER file. No word occurs twice in a
    reference, so that the shift search, and with it TER's cost, depends on
    the length and the recipe rather than on the seed."""
    gen = SentenceGenerator(sub_seed(seed, 6))
    refs = [gen.sentence(n, distinct=True) for n in TER_LENGTHS]
    return refs, [ter_hypothesis(gen, r) for r in refs]


# hand-built TER cases: (reference, hypothesis, exact edit count)
_REF = "alpha bravo charlie delta echo foxtrot golf hotel india juliett".split()
TER_CASES = (
    # three substitutions by words the reference lacks
    (_REF, ["alpha", "xray", "charlie", "delta", "yankee", "foxtrot", "golf", "zulu",
            "india", "juliett"], 3),
    # one block move of three words to the end
    (_REF, _REF[:1] + _REF[4:] + _REF[1:4], 1),
)
