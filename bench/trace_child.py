"""Run the npscensus CLI with a span around every call into each layer.

Usage:  python3 bench/trace_child.py SPANS.json CLI-ARGS...

The spans are recorded from this file alone: it replaces each traced
public function in every loaded npscensus module namespace with a timing
wrapper, then calls `npscensus.cli.main`.  A span is
[name, start_s, end_s, parent, group, attrs]; `parent` is the index of the
enclosing span (-1 at top level) and `group` is the label of the group the
call works on, inherited from the parent when the call names none.  The
work the wrapper itself does (labels, counters) falls outside the span's
start and end, so it shows as trace overhead, not as layer time.  Spans
stay in memory and are written to SPANS.json when the CLI returns, also
when it raises.  The exit code is the CLI's own.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from collections import Counter

T0 = time.perf_counter()

# (span name, module, attribute); a missing attribute is skipped and listed
# under "untraced" in the output, so a renamed function shows as a gap
# instead of breaking the run.
TARGETS = (
    ("parse.parse_spec", "npscensus.specs", "parse_spec"),
    ("parse.parse_presentation", "npscensus.presentation", "parse_presentation"),
    ("build.build", "npscensus.families", "build"),
    ("build.direct_product", "npscensus.core", "direct_product"),
    ("build.semidirect_product", "npscensus.core", "semidirect_product"),
    ("build.group_from_generators", "npscensus.core", "group_from_generators"),
    ("coset.coset_enumerate", "npscensus.coset", "coset_enumerate"),
    ("corpus.load_corpus", "npscensus.corpus", "load_corpus"),
    ("corpus.group", "npscensus.corpus", "CorpusEntry.group"),
    ("lattice.all_subgroups", "npscensus.lattice", "all_subgroups"),
    ("power.power_subgroup", "npscensus.lattice", "power_subgroup"),
    ("counts.counts", "npscensus.lattice", "counts"),
    ("iso.are_isomorphic", "npscensus.isomorphism", "are_isomorphic"),
    ("catalog.expected_nps", "npscensus.catalog", "expected_nps"),
    ("catalog.instantiate_bucket", "npscensus.catalog", "instantiate_bucket"),
    ("cli.formula_sweep", "npscensus.cli", "formula_sweep"),
    ("cli.write_csv", "npscensus.cli", "_write_csv"),
    ("cli.write_json", "npscensus.cli", "_write_json"),
)

spans: list[list] = []
stack: list[int] = []
# id -> lattice, to tell a computed lattice from a cached one coming back
seen_lattices: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


def _phi(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def _cyclic_subgroups(orders) -> int:
    """Number of cyclic subgroups: sum of 1/phi(o(x)) over the elements."""
    return sum(n // _phi(o) for o, n in Counter(orders).items())


def _group_label(name: str, args, kwargs) -> str | None:
    """The label of the group a call works on, when its arguments name one."""
    if name == "build.build":
        return str(args[0])
    if name == "corpus.group":
        return args[0].name
    if name in ("lattice.all_subgroups", "power.power_subgroup", "counts.counts",
                "iso.are_isomorphic"):
        return args[0].label
    return kwargs.get("label")


def _attrs(name: str, args, result) -> dict:
    if name.startswith("build."):
        out = {"order": result.order}
        if name == "build.build":
            out["spec"] = str(args[0])
        return out
    if name == "coset.coset_enumerate":
        return {"order": result[0]}
    if name == "iso.are_isomorphic":
        return {"isomorphic": bool(result)}
    if name == "lattice.all_subgroups":
        if seen_lattices.get(id(result)) is result:
            return {"cached": True}
        seen_lattices[id(result)] = result
        from npscensus.core import element_orders  # cached on the group by now

        return {
            "subgroups": len(result.subgroups),
            "classes": len(result.conjugacy_classes),
            "cyclic": _cyclic_subgroups(element_orders(result.group)),
        }
    return {}


def _wrap(name: str, fn):
    def traced(*args, **kwargs):
        parent = stack[-1] if stack else -1
        label = _group_label(name, args, kwargs)
        if label is None and parent >= 0:
            label = spans[parent][4]
        rec = [name, 0.0, 0.0, parent, label, {}]
        stack.append(len(spans))
        spans.append(rec)
        rec[1] = time.perf_counter() - T0
        result = None
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            rec[5]["error"] = type(exc).__name__
            raise
        finally:
            rec[2] = time.perf_counter() - T0
            stack.pop()
        rec[5].update(_attrs(name, args, result))
        return result

    return traced


def install() -> list[str]:
    """Wrap every target in place; returns the targets that do not exist."""
    import npscensus.cli  # noqa: F401  loads every layer module

    missing = []
    modules = [m for n, m in list(sys.modules.items()) if n.startswith("npscensus") and m]
    for name, modname, attr in TARGETS:
        owner = sys.modules.get(modname)
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, path[-1], None) if owner is not None else None
        if original is None:
            missing.append(f"{modname}.{attr}")
            continue
        wrapper = _wrap(name, original)
        if len(path) > 1:
            setattr(owner, path[-1], wrapper)
            continue
        for mod in modules:
            if getattr(mod, path[-1], None) is original:
                setattr(mod, path[-1], wrapper)
    return missing


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    missing = install()
    import npscensus.cli

    try:
        return npscensus.cli.main(cli_args)
    finally:
        stack.clear()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"end_s": time.perf_counter() - T0, "untraced": missing, "spans": spans},
                fh,
            )


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
