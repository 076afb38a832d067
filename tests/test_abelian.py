"""Counts of abelian groups from their type (Birkhoff's formula).

`lattice.counts` of an abelian group, and `counts_times_cyclic` of an
abelian A, build no lattice.  Every such count is checked here against the
full lattice (`lattice._lattice_counts`): on every abelian group of order
at most 128, as built from its spec and as a relabelled permutation group,
and on the abelian groups of the benchmark's census corpus.  The formula
itself is pinned against the two independent special cases kept in
`arith` and against the corrected rank-2 closed form.
"""

import ast
import json
import random
from functools import cache
from itertools import product
from pathlib import Path

import pytest

from npscensus.arith import (
    conjugate_partition,
    factorize,
    subgroup_count_abelian,
    subgroup_count_elementary_abelian,
    subgroup_count_rank2,
)
from npscensus.core import (
    CapExceeded,
    cyclic_group,
    group_from_generators,
    is_abelian,
    trivial_group,
)
from npscensus.corpus import regular_representation
from npscensus.families import build, split_cyclic
from npscensus.lattice import _lattice_counts, counts, counts_times_cyclic
from npscensus.specs import parse_spec

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
PRIMES = (2, 3, 5, 7, 11)


def partitions(n, top=None):
    """The partitions of n, parts non-increasing and at most `top`."""
    top = n if top is None else top
    if n == 0:
        yield []
        return
    for first in range(min(n, top), 0, -1):
        for rest in partitions(n - first, first):
            yield [first] + rest


def abelian_specs(max_order):
    """One spec per abelian group of order 2..max_order, up to isomorphism,
    as a product of cyclic groups of prime-power order."""
    out = []
    for n in range(2, max_order + 1):
        per_prime = [
            [[p**x for x in lam] for lam in partitions(e)]
            for p, e in factorize(n).items()
        ]
        for combo in product(*per_prime):
            out.append("x".join(f"C({q})" for parts in combo for q in parts))
    return out


ABELIAN_SPECS = abelian_specs(128)


@cache
def lattice_oracle(text):
    return _lattice_counts(build(parse_spec(text)), 600)


def relabelled(g, seed):
    """g as a group of permutations of its own elements, the points and
    the generators in a seeded order, closed again into a new table."""
    rng = random.Random(seed)
    points = list(range(g.order))
    rng.shuffle(points)
    gens = []
    for perm in regular_representation(g):
        image = [0] * g.order
        for i, pi in enumerate(perm):
            image[points[i]] = points[pi]
        gens.append(image)
    rng.shuffle(gens)
    return group_from_generators(g.order, gens, cap=g.order)


def census_abelian_members():
    """The abelian groups of the benchmark's census corpus, as
    (name, group), from its strata and its frozen permutation inputs."""
    tree = ast.parse((BENCH_DIR / "workloads.py").read_text(encoding="utf-8"))
    strata = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and node.target.id == "CENSUS_STRATA"
    )
    inputs = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))[
        "census_inputs"
    ]
    out = []
    for _why, _take, members in strata:
        for name in members:
            inp = inputs[name]
            try:
                g = group_from_generators(inp["degree"], inp["generators"], cap=600)
            except CapExceeded:
                continue  # an error row of the census, counted by nothing
            if is_abelian(g):
                out.append((name, g))
    return out


class TestSubgroupCountAbelian:
    def test_conjugate_partition(self):
        assert conjugate_partition([3, 1]) == [2, 1, 1]
        assert conjugate_partition([1, 1, 1, 0]) == [3]
        assert conjugate_partition([]) == []
        for lam in partitions(9):
            assert conjugate_partition(conjugate_partition(lam)) == lam

    @pytest.mark.parametrize("p", PRIMES)
    def test_rank2_divisor_sum(self, p):
        for b in range(1, 9):
            for a in range(1, b + 1):
                assert subgroup_count_abelian(p, [b, a]) == subgroup_count_rank2(
                    p, a, b
                ), (p, a, b)

    @pytest.mark.parametrize("p", PRIMES)
    def test_elementary_abelian_gaussian_sum(self, p):
        for n in range(9):
            assert subgroup_count_abelian(
                p, [1] * n
            ) == subgroup_count_elementary_abelian(p, n), (p, n)

    def test_values_past_the_lattice(self):
        assert subgroup_count_abelian(2, [1] * 8) == 417199
        assert subgroup_count_abelian(2, [1] * 10) == 229755605


class TestAbelianPathMatchesLattice:
    def test_every_abelian_group_up_to_128(self):
        # the number of abelian groups of order 2..128 up to isomorphism
        assert len(ABELIAN_SPECS) == 246

    @pytest.mark.parametrize("text", ABELIAN_SPECS)
    def test_built_from_spec(self, text):
        g = build(parse_spec(text))
        assert is_abelian(g)
        assert counts(g) == lattice_oracle(text)

    @pytest.mark.parametrize("text", ABELIAN_SPECS)
    def test_relabelled_permutation_group(self, text):
        g = relabelled(build(parse_spec(text)), text)
        # counts are invariant under isomorphism, so the lattice of the
        # spec's own table is the oracle for the relabelled one
        assert counts(g) == lattice_oracle(text)

    def test_trivial_group(self):
        c = counts(trivial_group())
        assert c == _lattice_counts(trivial_group(), 600)
        assert (c.s, c.ps, c.per_prime) == (1, 1, ())

    def test_census_corpus_members(self):
        members = census_abelian_members()
        assert {name for name, _ in members} >= {"C(600)", "C(2)xC(2)xC(2)xC(2)xC(2)xC(2)"}
        for name, g in members:
            assert counts(g) == _lattice_counts(g, 600), name

    @pytest.mark.parametrize(
        "text",
        ["C(2)xC(2)xC(2)xC(2)xC(2)xC(2)", "C(8)xC(4)xC(2)xC(3)", "C(3)xC(3)xC(5)xC(5)"],
    )
    def test_goursat_path_of_an_abelian_product(self, text):
        rest, n = split_cyclic(parse_spec(text))
        assert counts_times_cyclic(build(rest), n) == lattice_oracle(text)

    def test_cap_comes_first(self):
        with pytest.raises(CapExceeded, match="order 32 exceeds lattice cap 16"):
            counts(cyclic_group(32), cap=16)
        with pytest.raises(CapExceeded, match="order 32 exceeds lattice cap 16"):
            counts_times_cyclic(cyclic_group(16), 2, cap=16)
