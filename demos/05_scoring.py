"""Scoring, reporting and paired significance.

Three corpus metrics with fixed, printable signatures; sentence-level
sufficient statistics that re-aggregate exactly; and a paired bootstrap
that resamples both systems over the same sentence indices.  The marked
table at the end follows the usual convention for incremental rows: a
"+X" row is tested against the row it extends, and later base rows are
tested against the first.
"""

from natkit.metrics import bleu, chrfpp, ter
from natkit.significance import SystemRun, format_table, mark_table, paired_bootstrap

REFS = [
    "the treaty was signed after long talks",
    "snow fell on the quiet village all night",
    "she carried the map in her left hand",
    "the engine started on the second try",
    "they painted the old fence bright green",
    "a letter arrived from the northern coast",
    "the bakery opens before the sun rises",
    "he counted the coins twice to be sure",
]

GOOD = [
    "the treaty was signed after long talks",
    "snow fell on the quiet village all night",
    "she carried the map in her left hand",
    "the engine started on the second try",
    "they painted the old fence bright green",
    "a letter arrived from a northern coast",
    "the bakery opens before the sun rises",
    "he counted the coins twice to be sure",
]

ROUGH = [
    "the treaty signed after talks",
    "snow fell on village all night quiet",
    "she carried a map in the hand",
    "engine started on second try",
    "they painted old fence green",
    "letter arrived from northern coast",
    "bakery opens before sun rises",
    "he counted coins twice",
]


def main():
    for hyp, label in ((GOOD, "good"), (ROUGH, "rough")):
        print(f"{label} system:")
        for fn in (bleu, chrfpp, ter):
            r = fn(hyp, REFS)
            print(f"  {r.format_line()}")
        print()

    res = paired_bootstrap(
        SystemRun("rough", tuple(ROUGH)),
        SystemRun("good", tuple(GOOD)),
        REFS,
        n_resamples=2000,
        seed=0,
    )
    who = {"base": "rough", "cand": "good", "tie": "neither"}[res.winner]
    print(f"paired bootstrap on bleu: {who} wins, p = {res.p_value:.4f} "
          f"({'significant' if res.significant else 'not significant'} at 0.05)")
    print()

    blocks = [
        [SystemRun("rough", tuple(ROUGH))],
        [SystemRun("good", tuple(GOOD)),
         SystemRun("+identity", tuple(REFS))],
    ]
    rows = mark_table(blocks, REFS, metric="bleu", n_resamples=2000, seed=0)
    print("marked comparison table (dagger = not significantly better):")
    print(format_table(rows, "bleu"))


if __name__ == "__main__":
    main()
