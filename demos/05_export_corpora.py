#!/usr/bin/env python3
"""Regenerate the shipped sample corpora in data/.

Two files are produced:
  data/bucket_groups.json   one member per classification bucket entry at
                            minimal parameters (regular representations,
                            except a few natural permutation actions)
  data/control_groups.json  groups outside the k <= 13 lists

Run:  python demos/05_export_corpora.py
"""

from pathlib import Path

from npscensus import CorpusEntry, dump_corpus, entry_from_group, parse_spec
from npscensus.catalog import minimal_instances
from npscensus.families import build

DATA = Path(__file__).resolve().parent.parent / "data"


def natural_entries() -> list[CorpusEntry]:
    """Hand-picked small-degree actions used by the control corpus."""
    return [
        CorpusEntry("Sym(3) on 3 points", 3, ((1, 2, 0), (1, 0, 2))),
        CorpusEntry("Sym(4) on 4 points", 4, ((1, 2, 3, 0), (1, 0, 2, 3))),
        CorpusEntry(
            "C7 x| C6 on 7 points (x+1 and 3x mod 7)",
            7,
            (
                (1, 2, 3, 4, 5, 6, 0),
                tuple(3 * i % 7 for i in range(7)),
            ),
        ),
        CorpusEntry(
            "D16 on 8 points",
            8,
            ((1, 2, 3, 4, 5, 6, 7, 0), (0, 7, 6, 5, 4, 3, 2, 1)),
        ),
    ]


def main() -> None:
    DATA.mkdir(exist_ok=True)

    bucket_entries: list[CorpusEntry] = []
    seen: set[str] = set()
    for k in range(14):
        for spec, _template in minimal_instances(k, max_order=600):
            label = f"k={k}: {spec}"
            if str(spec) in seen or spec.params == (1,):
                continue
            seen.add(str(spec))
            g = build(spec)
            if g.order > 256:
                continue  # keep the shipped file small
            bucket_entries.append(entry_from_group(label, g))
    dump_corpus(bucket_entries, DATA / "bucket_groups.json")
    print(f"wrote {DATA / 'bucket_groups.json'} ({len(bucket_entries)} entries)")

    controls = natural_entries()
    for text in ["C(12)", "M(5)", "B1(2,3)", "X(2,3)", "Q(8)xC(2)"]:
        controls.append(entry_from_group(text, build(parse_spec(text))))
    dump_corpus(controls, DATA / "control_groups.json")
    print(f"wrote {DATA / 'control_groups.json'} ({len(controls)} entries)")


if __name__ == "__main__":
    main()
