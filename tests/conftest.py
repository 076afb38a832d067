"""Shared corpus of constructed groups, and a probe for groups left to
the cycle collector.

One Group object per label, built once per session; each object caches
its lattice as plain data (bitsets, never the group itself), so counts
computed in one test are reused by the rest of the suite.
"""

from __future__ import annotations

import gc

import pytest

from npscensus import Group, cyclic_group, parse_spec, semidirect_product
from npscensus.catalog import instantiate_bucket
from npscensus.families import build

EXTRA_SPECS = [
    "Sym(4)",
    "M(3)",
    "M(5)",
    "B1(2,2)",
    "B1(2,3)",
    "B1(3,2)",
    "B2(2,3)",
    "B2(3,2)",
    "D(16)",
    "D(32)",
    "Q(32)",
    "S(32)",
    "X(1,3)",
    "X(1,5)",
    "X(2,3)",
    "Q(8)xC(2)",
    "Q(8)xC(2)xC(2)",
    "Gn(1,3)xC(3)",
    "Gn(1,3)xC(3)xC(3)",
    "F(2,7)",
    "G(r=2;p=2,n=3;q=5,m=1)",
    "D(6)xC(2)",
    "D(10)xC(2)",
    "D(14)xC(2)",
    "C(15)",
    "C(30)",
]


def _holomorph_c7():
    return semidirect_product(
        cyclic_group(7),
        cyclic_group(6),
        [tuple(3 * i % 7 for i in range(7))],
        label="C7:C6",
    )


def build_zoo() -> dict[str, object]:
    zoo: dict[str, object] = {}
    for k in range(14):
        for spec, _tmpl in instantiate_bucket(k, max_n=2, max_order=600):
            label = str(spec)
            if label not in zoo:
                zoo[label] = build(spec)
    for text in EXTRA_SPECS:
        spec = parse_spec(text)
        label = str(spec)
        if label not in zoo:
            zoo[label] = build(spec)
    zoo["C7:C6"] = _holomorph_c7()
    return zoo


@pytest.fixture(scope="session")
def zoo():
    return build_zoo()


def _groups_left_for_collector(call) -> list[str]:
    """The groups that `call()` leaves for the cycle collector, that is,
    does not free by reference counting."""
    gc.collect()
    gc.disable()
    try:
        call()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return [repr(o) for o in gc.garbage if isinstance(o, Group)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.fixture
def groups_left_for_collector():
    return _groups_left_for_collector
