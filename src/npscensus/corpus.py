"""External group corpora: JSON files of permutation generators.

A corpus file is a JSON array of entries:

    {"name": "Sym(3)", "degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]}

Generators are 0-based image arrays on 0..degree-1.  The format lets any
external system export groups without being a dependency here; see
data/corpus.schema.json for the schema and data/*.json for samples.
"""

from __future__ import annotations

import os

from .core import Group, Record, group_from_generators


class CorpusError(ValueError):
    """Malformed corpus file or entry."""


class CorpusEntry(Record):
    name: str
    degree: int
    generators: tuple[tuple[int, ...], ...]

    def group(self, cap: int) -> Group:
        return group_from_generators(
            self.degree, self.generators, cap=cap, label=self.name
        )


def entry_from_obj(obj: object, where: str) -> CorpusEntry:
    if not isinstance(obj, dict):
        raise CorpusError(f"{where}: entry must be an object")
    name = obj.get("name")
    degree = obj.get("degree")
    gens = obj.get("generators")
    if not isinstance(name, str) or not name:
        raise CorpusError(f"{where}: missing or empty 'name'")
    if not isinstance(degree, int) or degree < 1:
        raise CorpusError(f"{where}: 'degree' must be a positive integer")
    if not isinstance(gens, list):
        raise CorpusError(f"{where}: 'generators' must be an array")
    perms: list[tuple[int, ...]] = []
    for i, p in enumerate(gens):
        if (
            not isinstance(p, list)
            or len(p) != degree
            or any(not isinstance(v, int) for v in p)
            or sorted(p) != list(range(degree))
        ):
            raise CorpusError(
                f"{where}: generator {i} is not a permutation of 0..{degree - 1}"
            )
        perms.append(tuple(p))
    return CorpusEntry(name=name, degree=degree, generators=tuple(perms))


def load_corpus(path: str | os.PathLike[str]) -> list[CorpusEntry]:
    """Parse a corpus file; raises CorpusError on file-level problems."""
    # json and pathlib are imported here, not by a one-shot query
    import json
    from pathlib import Path

    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CorpusError(f"cannot read corpus {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CorpusError(f"corpus {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, list):
        raise CorpusError(f"corpus {path}: top level must be an array")
    return [entry_from_obj(obj, f"entry {i}") for i, obj in enumerate(payload)]


def regular_representation(G: Group) -> list[tuple[int, ...]]:
    """Right-regular permutations of the generators; a faithful degree-|G|
    representation suitable for corpus export."""
    return [tuple(G.mul[x][g] for x in range(G.order)) for g in G.generators]


def entry_from_group(name: str, G: Group) -> CorpusEntry:
    return CorpusEntry(
        name=name,
        degree=G.order,
        generators=tuple(regular_representation(G)),
    )


def dump_corpus(entries: list[CorpusEntry], path: str | os.PathLike[str]) -> None:
    import json
    from pathlib import Path

    payload = [
        {
            "name": e.name,
            "degree": e.degree,
            "generators": [list(p) for p in e.generators],
        }
        for e in entries
    ]
    Path(path).write_text(
        json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
