"""Counts of abelian groups from their type (Birkhoff's formula).

`lattice.counts` of an abelian group, and `counts_times_cyclic` of an
abelian A, build no lattice.  Every such count is checked here against the
full lattice (`lattice._lattice_counts`): on every abelian group of order
at most 128, as built from its spec and as a relabelled permutation group,
and on the abelian groups of the benchmark's census corpus.  The formula
itself is pinned against the two independent special cases kept in
`arith` and against the corrected rank-2 closed form.

`lattice.column_counts` counts an abelian permutation group from the
columns of its closure, and `lattice.cyclic_product_counts` a product of
cyclic factors from their orders, both with no table at all; the table's
counts and the lattice are their oracles here.
"""

import ast
import json
import random
from functools import cache
from itertools import product
from math import prod
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
    Group,
    closure_columns,
    cyclic_group,
    group_from_generators,
    is_abelian,
    trivial_group,
)
from npscensus.corpus import load_corpus, regular_representation
from npscensus.families import build, split_cyclic
from npscensus.lattice import (
    _lattice_counts,
    column_counts,
    counts,
    counts_times_cyclic,
    cyclic_product_counts,
)
from npscensus.specs import parse_spec

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
DATA_DIR = Path(__file__).resolve().parent.parent / "data"
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


def relabelled_generators(g, seed):
    """The regular representation of g, its points and generators in a
    seeded order."""
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
    return gens


def relabelled(g, seed):
    """g as a group of permutations of its own elements, the points and
    the generators in a seeded order, closed again into a new table."""
    return group_from_generators(g.order, relabelled_generators(g, seed), cap=g.order)


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

    @pytest.mark.parametrize("generators", [[], [2]])
    def test_generators_that_miss_elements_are_refused(self, generators):
        # the type is read off the generators' columns, which must reach
        # the whole group: C4 has no generators, or only its square
        c4 = Group(cyclic_group(4).mul, generators)
        for count in (lambda: counts(c4), lambda: counts_times_cyclic(c4, 3)):
            with pytest.raises(ValueError, match="do not reach every element"):
                count()


def corpus_entries():
    return [e for name in ("bucket_groups.json", "control_groups.json")
            for e in load_corpus(DATA_DIR / name)]


# abelian permutation groups that are not regular: (name, degree, perms)
INTRANSITIVE = [
    ("C2xC3 on 5 points", 5, [(1, 0, 3, 4, 2)]),
    ("C2xC3 as two generators on 5 points", 5, [(1, 0, 2, 3, 4), (0, 1, 3, 4, 2)]),
    ("V4 beside two fixed points", 6, [(1, 0, 3, 2, 4, 5), (2, 3, 0, 1, 4, 5)]),
    ("C4xC2 on 6 points", 6, [(1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)]),
    ("C6 and its square on 9 points",
     9, [(1, 2, 3, 4, 5, 0, 7, 8, 6), (2, 3, 4, 5, 0, 1, 8, 6, 7)]),
    ("identity on 4 points", 4, [(0, 1, 2, 3)]),
    ("no generators", 3, []),
    ("degree 1", 1, [(0,)]),
    ("degree 1, no generators", 1, []),
]


class TestColumnCounts:
    """An abelian permutation group is counted from its closure's columns;
    the counts of its table and its lattice must agree with them."""

    @staticmethod
    def agree(degree, perms, oracle=None):
        cols = closure_columns(degree, perms, 600)
        g = group_from_generators(degree, perms, cap=600)
        c = column_counts(cols)
        assert c is not None
        assert c == counts(g) == (oracle or _lattice_counts(g, 600))
        return c

    @pytest.mark.parametrize("text", ABELIAN_SPECS)
    def test_relabelled_regular_representation(self, text):
        g = build(parse_spec(text))
        self.agree(g.order, relabelled_generators(g, text), lattice_oracle(text))

    def test_abelian_zoo_groups(self, zoo):
        seen = 0
        for label, g in zoo.items():
            if is_abelian(g):
                c = self.agree(g.order, relabelled_generators(g, label), _lattice_counts(g, 600))
                assert c.order == g.order
                seen += 1
        assert seen > 20

    @pytest.mark.parametrize("name, degree, perms", INTRANSITIVE, ids=[t[0] for t in INTRANSITIVE])
    def test_intransitive_and_trivial(self, name, degree, perms):
        c = self.agree(degree, perms)
        if c.order == 1:
            assert (c.exponent, c.s, c.ps, c.per_prime) == (1, 1, 1, ())

    def test_abelian_corpus_entries(self):
        seen = 0
        for e in corpus_entries():
            g = e.group(cap=600)
            if is_abelian(g):
                self.agree(e.degree, e.generators)
                seen += 1
        assert seen > 20

    def test_census_corpus_members(self):
        for name, g in census_abelian_members():
            assert column_counts(closure_columns(g.order, regular_representation(g))) == (
                counts(g)
            ), name

    def test_non_abelian_inputs_give_none(self, zoo):
        seen = 0
        for label, g in zoo.items():
            if not is_abelian(g):
                gens = relabelled_generators(g, label)
                assert column_counts(closure_columns(g.order, gens, 600)) is None, label
                seen += 1
        for e in corpus_entries():
            if not is_abelian(e.group(cap=600)):
                assert column_counts(closure_columns(e.degree, e.generators)) is None, e.name
                seen += 1
        assert seen > 100


def cyclic_products(max_order):
    """Every product of cyclic factors of order at most max_order, as the
    factors' orders, non-increasing and each at least 2, and [1]."""

    def below(limit, top):
        yield []
        for n in range(min(top, limit), 1, -1):
            for rest in below(limit // n, n):
                yield [n] + rest

    return [[1]] + [p for p in below(max_order, max_order) if p]


def invariant_factors(orders):
    """The invariant factors d_1, d_2, ... of C(n_1) x C(n_2) x ..., each
    a multiple of the next: d_i is the product over the primes of the
    i-th largest prime-power part."""
    parts: dict[int, list[int]] = {}
    for n in orders:
        for p, e in factorize(n).items():
            parts.setdefault(p, []).append(p**e)
    columns = [sorted(qs, reverse=True) for qs in parts.values()]
    depth = max(map(len, columns), default=0)
    return tuple(prod(qs[i] for qs in columns if i < len(qs)) for i in range(depth))


@cache
def table_counts(factors):
    """counts() of the table of C(d_1) x C(d_2) x ... for the invariant
    factors d_i."""
    return counts(build(parse_spec("x".join(f"C({d})" for d in factors) or "C(1)")))


class TestCyclicProductSpecs:
    """A spec of cyclic factors, C(n) included, is counted from its type:
    `cli._spec_counts` builds no table for it."""

    def test_every_spec_up_to_600(self):
        from npscensus.cli import _spec_counts

        specs = cyclic_products(600)
        assert len(specs) == 3793
        for orders in specs:
            spec = parse_spec("x".join(f"C({n})" for n in orders))
            # counts are the same for every spec of one group, so the table
            # of its invariant factors is built once a group
            want = table_counts(invariant_factors(orders))
            assert _spec_counts(spec, 600) == (want, None), spec
            assert cyclic_product_counts(orders) == want, spec

    @pytest.mark.parametrize(
        "text", ["C(600)", "C(2)xC(2)xC(2)xC(2)xC(2)xC(2)", "C(8)xC(8)xC(2)", "C(1)", "C(1)xC(5)"]
    )
    def test_nps_builds_no_table(self, text, capsys, monkeypatch):
        import npscensus.cli
        from npscensus import core, families

        c = counts(build(parse_spec(text)))
        want = [
            f"group: {text}",
            f"order: {c.order}",
            f"exponent: {c.exponent}",
            f"subgroups: {c.s}",
            f"power subgroups: {c.ps}",
            f"nonpower subgroups: {c.nps}",
        ]

        def no_table(*args, **kwargs):
            raise AssertionError("a table was built")

        monkeypatch.setattr(npscensus.cli, "build", no_table)
        monkeypatch.setattr(core, "group_from_columns", no_table)
        monkeypatch.setattr(families, "group_from_columns", no_table)
        monkeypatch.setattr(core.Group, "_setup", no_table)
        assert npscensus.cli.main(["nps", text]) == 0
        assert capsys.readouterr().out.splitlines() == want
