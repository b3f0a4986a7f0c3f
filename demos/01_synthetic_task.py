"""Tour of the synthetic translation task.

The corpus generator builds deterministic word-mapping problems: each
source sentence is rewritten token by token under one of ``modes``
cyclic shifts of the content vocabulary, and a final token derived from
an endpoint of the source is appended, so the target is always exactly
one token longer.  With ``modes > 1`` the mapping for a sentence is
picked at random and is not observable from the source alone, which
makes the task multimodal: a model that factorizes the target fully in
parallel has to commit to one mode per position rather than per
sentence, and that tension is what the alignment and glancing machinery
is for.
"""

from natkit.corpus import SPECIALS, synth_task, synth_vocab


def show(corpus, vocab, title):
    print(f"--- {title} ---")
    for src, tgt in corpus.pairs[:4]:
        s = " ".join(vocab.decode(src.ids))
        t = " ".join(vocab.decode(tgt.ids))
        print(f"  {s:<28} -> {t}")
    print()


def main():
    vocab = synth_vocab(8)
    print(f"vocabulary: {len(vocab)} entries, first content id {vocab.content_ids[0]}")
    print(f"specials: {' '.join(SPECIALS)}")
    print()

    # one mode: a pure relabeling, learnable to perfection
    uni = synth_task(100, (4, 6), 1, seed=0, n_words=8)
    show(uni, vocab, "unimodal (modes=1)")

    # two modes: the same source admits two valid targets
    multi = synth_task(100, (4, 6), 2, seed=0, n_words=8)
    show(multi, vocab, "multimodal (modes=2)")

    # short sources recur, exposing the one-to-many mapping directly
    short = synth_task(400, (2, 3), 2, seed=1, n_words=8)
    by_src = {}
    for src, tgt in short.pairs:
        by_src.setdefault(src.ids, set()).add(tgt.ids)
    n_ambiguous = sum(1 for t in by_src.values() if len(t) > 1)
    print(f"{len(by_src)} distinct short sources, {n_ambiguous} observed with two targets")
    src_ids, tgts = next((s, t) for s, t in by_src.items() if len(t) > 1)
    print(f"  {' '.join(vocab.decode(src_ids))}")
    for t in sorted(tgts):
        print(f"    -> {' '.join(vocab.decode(t))}")
    print()
    print("every target is one token longer than its source:",
          all(len(t) == len(s) + 1 for s, t in multi.pairs))


if __name__ == "__main__":
    main()
