"""Per-layer metrics from the spans that trace_child.py writes.

A layer's busy time is the summed duration of its outermost spans, so
recursion (build inside build) is not counted twice; layers nest (coset
inside build, lattice inside iso), so busy times of different layers
overlap.  `cli.other_s` is what no span covers: the traced wall time minus
the top-level spans, which leaves interpreter start, import, argument
parsing and the CLI's own loops.
"""

from __future__ import annotations

from collections import defaultdict


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(docs: list[dict], traced_wall_s: float) -> dict[str, float]:
    """Sum the span files of one traced pass into the per-layer metrics."""
    busy: dict[str, float] = defaultdict(float)
    n: dict[str, int] = defaultdict(int)
    top_level = 0.0
    power_in_lattice = 0.0
    lattice_in_counts = 0.0
    load = closure = 0.0
    subgroups = cyclic = classes = cosets = isomorphic = rejected = table_cells = 0
    specs: set[str] = set()
    for doc in docs:
        spans = doc["spans"]
        for name, start, end, parent, _group, attrs in spans:
            dur = end - start
            layer = _layer(name)
            n[name] += 1
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(spans[p][0])
                p = spans[p][3]
            if parent < 0:
                top_level += dur
            if not any(_layer(a) == layer for a in ancestors):
                busy[layer] += dur
            if name == "power.power_subgroup" and "lattice.all_subgroups" in ancestors:
                power_in_lattice += dur
            if name == "lattice.all_subgroups" and parent >= 0 \
                    and spans[parent][0] == "counts.counts":
                lattice_in_counts += dur
            if name == "corpus.load_corpus":
                load += dur
            elif name == "corpus.group":
                closure += dur
                rejected += "error" in attrs
            elif name == "build.build" and "error" not in attrs:
                specs.add(attrs["spec"])
                table_cells += attrs["order"] ** 2
            elif name == "coset.coset_enumerate" and "error" not in attrs:
                cosets += attrs["order"]
            elif name == "iso.are_isomorphic":
                isomorphic += attrs.get("isomorphic", False)
            elif name == "lattice.all_subgroups":
                subgroups += attrs.get("subgroups", 0)
                cyclic += attrs.get("cyclic", 0)
                classes += attrs.get("classes", 0)
    lattice_self = busy["lattice"] - power_in_lattice
    build_calls = n["build.build"]
    return {
        "lattice.busy_s": busy["lattice"],
        "lattice.self_s": lattice_self,
        "lattice.subgroups": subgroups,
        "lattice.cyclic": cyclic,
        "lattice.classes": classes,
        "lattice.us_per_subgroup": lattice_self / subgroups * 1e6 if subgroups else 0.0,
        "power.calls": n["power.power_subgroup"],
        "power.busy_s": busy["power"],
        "counts.busy_s": busy["counts"] - lattice_in_counts,
        "build.calls": build_calls,
        "build.busy_s": busy["build"],
        "build.distinct_share": len(specs) / build_calls if build_calls else 0.0,
        "build.table_cells": table_cells,
        "corpus.load_s": load,
        "corpus.closure_s": closure,
        "corpus.rejected": rejected,
        "coset.calls": n["coset.coset_enumerate"],
        "coset.busy_s": busy["coset"],
        "coset.cosets": cosets,
        "parse.busy_s": busy["parse"],
        "iso.calls": n["iso.are_isomorphic"],
        "iso.busy_s": busy["iso"],
        "iso.isomorphic": isomorphic,
        "catalog.busy_s": busy["catalog"],
        "cli.busy_s": busy["cli"],
        "cli.other_s": traced_wall_s - top_level,
        "trace.wall_s": traced_wall_s,
    }
