"""Subgroup lattice enumeration, power subgroups, and counts.

Completeness of the lattice is checked against an independent oracle for
orders up to 12: every identity-containing subset of divisor size is
tested for closure directly.  Larger groups are covered by join-closure
sampling, by the frozen counts below, which were computed with the
divisor-sum subgroup formula for abelian groups where available, and by a
reference lattice built by the pairwise-join closure of cyclic subgroups.
"""

from itertools import combinations
from math import gcd

import pytest

from npscensus.arith import divisors, factorize, p_valuation, subgroup_count_rank2
from npscensus.core import (
    CapExceeded,
    center,
    coset_closure,
    cyclic_group,
    cyclic_subgroups,
    direct_product,
    element_orders,
    exponent,
    generated_subgroup,
    is_normal_subgroup,
    subgroup_group,
)
from npscensus.cli import formula_sweep
from npscensus.families import build, split_cyclic
from npscensus.isomorphism import are_isomorphic
from npscensus.lattice import (
    _lattice_counts,
    all_subgroups,
    conjugates,
    counts,
    counts_times_cyclic,
    cyclic_nonpower_p_count,
    frattini,
    is_normal,
    omega,
    power_subgroup,
    power_subgroups,
    sylow,
)
from npscensus.specs import SpecError, parse_spec


def brute_force_subgroup_count(G):
    """Independent completeness oracle: try every identity-containing
    subset whose size divides |G|.  Only feasible for tiny groups."""
    n = G.order
    rest = list(range(1, n))
    count = 0
    for size in divisors(n):
        for extra in combinations(rest, size - 1):
            elems = (0,) + extra
            eset = set(elems)
            if all(G.mul[a][b] in eset for a in elems for b in elems):
                count += 1
    return count


def naive_power_subgroup_members(G, m):
    powers = {G.power(x, m) for x in range(G.order)}
    elems = set(powers) | {0}
    while True:
        new = {G.mul[a][b] for a in elems for b in elems} - elems
        if not new:
            return elems
        elems |= new


def reference_lattice(G):
    """Subgroup bitsets in lattice order, by closing the cyclic subgroups
    under pairwise join; each subgroup keeps the generators it was joined
    from."""
    found = {}
    for x in range(G.order):
        found.setdefault(generated_subgroup(G, [x]).members, (x,))
    cyclic = list(found.items())
    work = list(cyclic)
    for _members, gens in work:
        for _c, (x,) in cyclic:
            joined = gens + (x,)
            members = generated_subgroup(G, joined).members
            if members not in found:
                found[members] = joined
                work.append((members, joined))
    return sorted(found, key=lambda m: (bin(m).count("1"), m))


REFERENCE_ZOO = [
    "C(2)xC(2)xC(2)xC(2)xC(2)",
    "D(8)xD(8)",
    "Sym(4)",
    "SL23",
    "C3Q8",
    "Q(8)xC(2)xC(3)",
    "X(2,3)",
    "Gn(2,5)",
    "B1(2,3)",
    # groups where most joins are skipped before their first coset
    "D(72)",
    "D(128)",
    "Sym(5)",
]


@pytest.fixture(scope="module", params=REFERENCE_ZOO)
def reference_group(request):
    return build(parse_spec(request.param))


@pytest.fixture(scope="module")
def q8():
    return build(parse_spec("Q(8)"))


class TestAllSubgroups:
    def test_klein_four(self):
        v4 = direct_product(cyclic_group(2), cyclic_group(2))
        assert len(all_subgroups(v4).subgroups) == 5

    def test_q8_times_c2_has_19_subgroups(self, q8):
        g = direct_product(q8, cyclic_group(2))
        assert len(all_subgroups(g).subgroups) == 19

    def test_c3_c9(self):
        g = direct_product(cyclic_group(3), cyclic_group(9))
        # divisor-sum subgroup count for C_{p^a} x C_{p^b}
        assert subgroup_count_rank2(3, 1, 2) == 10
        assert len(all_subgroups(g).subgroups) == 10

    def test_matches_exhaustive_subset_oracle(self, q8):
        small = {
            "C(6)": cyclic_group(6),
            "C(2)xC(2)": direct_product(cyclic_group(2), cyclic_group(2)),
            "Sym(3)": build(parse_spec("Gn(1,3)")),
            "D(8)": build(parse_spec("D(8)")),
            "Q(8)": q8,
            "C(12)": cyclic_group(12),
            "C(2)xC(4)": direct_product(cyclic_group(2), cyclic_group(4)),
            "Alt(4)": build(parse_spec("Alt(4)")),
            "D(12)": build(parse_spec("D(12)")),
        }
        for label, g in small.items():
            oracle = brute_force_subgroup_count(g)
            assert len(all_subgroups(g).subgroups) == oracle, label

    def test_contains_trivial_and_whole(self, zoo):
        for g in zoo.values():
            lat = all_subgroups(g)
            assert lat.subgroups[0].size == 1
            assert lat.subgroups[-1].size == g.order

    def test_sorted_and_deduplicated(self, zoo):
        for g in zoo.values():
            lat = all_subgroups(g)
            keys = [(s.size, s.members) for s in lat.subgroups]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)

    def test_join_closure_witness(self, zoo):
        for g in list(zoo.values())[::5]:
            lat = all_subgroups(g)
            index = {s.members: None for s in lat.subgroups}
            subs = lat.subgroups
            step = max(1, len(subs) // 8)
            sample = subs[::step]
            for a in sample:
                for b in sample:
                    join = generated_subgroup(
                        g, list(a.elements()) + list(b.elements())
                    )
                    assert join.members in index

    @pytest.mark.parametrize("p,a,b", [(2, 4, 6), (2, 5, 5), (3, 3, 3)])
    def test_large_rank2_abelian_count(self, p, a, b):
        # orders 1024, 1024 and 729, where a join picks cosets of up to 512
        # elements at once; the pairwise-join reference is too slow here
        g = direct_product(cyclic_group(p**a), cyclic_group(p**b), cap=1200)
        assert _lattice_counts(g, cap=1200).s == subgroup_count_rank2(p, a, b)

    @pytest.mark.parametrize(
        "n,s",
        [(3, 6), (4, 10), (9, 16), (16, 36), (30, 80), (49, 60), (64, 134),
         (97, 100), (105, 200), (128, 263), (210, 592), (300, 886)],
    )
    def test_dihedral_count(self, n, s):
        # D(2n) has the cyclic <r^(n/d)> and the n/d dihedral <r^(n/d), r^i s>
        # for each d | n, so s(D(2n)) = tau(n) + sigma(n)
        assert len(divisors(n)) + sum(divisors(n)) == s
        assert len(all_subgroups(build(parse_spec(f"D({2 * n})"))).subgroups) == s

    def test_cap_exceeded(self):
        g = cyclic_group(32)
        with pytest.raises(CapExceeded):
            all_subgroups(g, cap=16)

    def test_cap_applies_to_a_cached_lattice(self):
        g = cyclic_group(32)
        whole = all_subgroups(g, 600).subgroups[-1]
        assert "lattice" in g._cache
        for call in (
            lambda: all_subgroups(g, cap=16),
            lambda: sylow(g, 2, cap=16),
            lambda: is_normal(g, whole, cap=16),
            lambda: omega(g, 1, cap=16),
        ):
            with pytest.raises(CapExceeded, match="order 32 exceeds lattice cap 16"):
                call()
        assert all_subgroups(g, 32).subgroups[-1] == whole

    def test_omega_checks_the_cap_before_any_work(self):
        with pytest.raises(CapExceeded, match="order 1024 exceeds lattice cap 16"):
            omega(cyclic_group(1024), 1, cap=16)


class TestAgainstPairwiseJoinReference:
    def test_subgroups_in_order(self, reference_group):
        g = reference_group
        lat = all_subgroups(g)
        assert [s.members for s in lat.subgroups] == reference_lattice(g)

    def test_normal_flags(self, reference_group):
        g = reference_group
        lat = all_subgroups(g)
        assert lat.normal_flags == tuple(
            is_normal_subgroup(g, s) for s in lat.subgroups
        )

    def test_conjugacy_classes(self, reference_group):
        g = reference_group
        lat = all_subgroups(g)
        classes = set()
        for s in lat.subgroups:
            conj = {
                sum(1 << g.conjugate(x, y) for x in s.elements())
                for y in range(g.order)
            }
            classes.add(tuple(sorted(lat.index_of(c) for c in conj)))
        assert lat.conjugacy_classes == tuple(sorted(classes))

    def test_power_index(self, reference_group):
        g = reference_group
        lat = all_subgroups(g)
        expected = {}
        for m in divisors(exponent(g)):
            members = sum(1 << x for x in naive_power_subgroup_members(g, m))
            expected[m] = lat.index_of(members)
        assert lat.power_index == expected

    def test_power_subgroup_every_m(self, reference_group):
        g = reference_group
        for m in range(1, exponent(g) + 1):
            assert set(power_subgroup(g, m).elements()) == (
                naive_power_subgroup_members(g, m)
            ), m


class TestJoinsSkippedEarly:
    """A join of S with the zuppo z_j that canonical augmentation rejects
    because the first coset g_j*S holds a generator of a lower zuppo is
    skipped before any coset is built, and a rejected join is abandoned at
    the first coset that holds any generator of a lower zuppo.  The counts
    are deterministic, and each bound is the count itself."""

    @pytest.mark.parametrize(
        "text,subgroups,joins,cosets",
        [
            ("D(8)xD(8)", 389, 414, 784),
            ("D(128)", 134, 63, 321),
            ("Sym(5)", 156, 376, 953),
            ("Sym(4)xSym(3)", 372, 1225, 3041),
        ],
    )
    def test_join_counts(self, monkeypatch, text, subgroups, joins, cosets):
        import npscensus.lattice as lattice

        g = build(parse_spec(text))
        orders = element_orders(g)
        zuppos = [c for c in cyclic_subgroups(g) if len(factorize(len(c))) == 1]
        # the number of the zuppo that each of its generators generates
        znum = {x: i for i, c in enumerate(zuppos) for x in c if orders[x] == len(c)}
        # per join started: whether its first coset holds a lower generator
        started = []
        cosets_built = []

        def counted(mul, take, seen, gens, zidx, bound):
            j = znum[gens[-1]]
            first = [mul[gens[-1]][y] for y in seen]
            started.append(min(znum.get(x, j) for x in first) < j)

            def counted_take(row):
                cosets_built.append(row)
                return take(row)

            return coset_closure(mul, counted_take, seen, gens, zidx, bound)

        monkeypatch.setattr(lattice, "coset_closure", counted)
        assert len(all_subgroups(g).subgroups) == subgroups
        assert not any(started), "a join started whose first coset holds a lower generator"
        assert len(started) <= joins
        assert len(cosets_built) <= cosets


class TestPowerSubgroups:
    def test_m_one_is_whole_group(self, q8):
        assert power_subgroup(q8, 1).size == 8

    def test_m_exponent_is_trivial(self, q8):
        assert power_subgroup(q8, exponent(q8)).size == 1

    def test_q8_squares_generate_center(self, q8):
        sq = power_subgroup(q8, 2)
        assert sq == center(q8)
        assert set(sq.elements()) == naive_power_subgroup_members(q8, 2)

    def test_matches_naive_closure(self, zoo):
        for g in list(zoo.values())[::7]:
            if g.order > 100:
                continue
            for m in divisors(exponent(g)):
                assert set(power_subgroup(g, m).elements()) == (
                    naive_power_subgroup_members(g, m)
                )

    def test_cyclic_group_all_divisors_distinct(self):
        c12 = cyclic_group(12)
        ps = power_subgroups(c12)
        assert len(ps) == 6
        assert len({sub.members for sub in ps.values()}) == 6
        c = counts(c12)
        assert (c.ps, c.nps) == (6, 0)

    def test_d8(self):
        c = counts(build(parse_spec("D(8)")))
        assert (c.s, c.ps, c.nps) == (10, 3, 7)

    def test_c2_c4(self):
        c = counts(build(parse_spec("C(2)xC(4)")))
        assert (c.ps, c.nps) == (3, 5)

    def test_gcd_reduction(self, zoo):
        # G^m = G^gcd(m, e) for every 1 <= m <= e
        for g in zoo.values():
            if g.order <= 60:
                e = exponent(g)
                for m in range(1, e + 1):
                    want = power_subgroup(g, gcd(m, e)).members
                    assert power_subgroup(g, m).members == want, (g, m)


class TestCounts:
    def test_direct_calculation_trio(self):
        assert counts(build(parse_spec("SL23"))).nps == 11
        assert counts(build(parse_spec("Sym(4)"))).nps == 26
        assert counts(build(parse_spec("C3Q8"))).nps == 13

    def test_s_equals_ps_plus_nps(self, zoo):
        for g in zoo.values():
            c = counts(g)
            assert c.s == c.ps + c.nps
            assert c.ps >= 1

    def test_per_prime_profile(self):
        c = counts(build(parse_spec("C(3)xC(3)")))
        assert len(c.per_prime) == 1
        pd = c.per_prime[0]
        assert (pd.p, pd.f, pd.k) == (3, 1, 0)

    def test_per_prime_f_is_the_largest_p_element_order(self, zoo):
        for label, g in zoo.items():
            orders = element_orders(g)
            for c in (counts(g), _lattice_counts(g, 600)):
                for pd in c.per_prime:
                    assert pd.f == max(p_valuation(o, pd.p) for o in orders), label

    def test_per_prime_with_cyclic_power_subgroup(self):
        c = counts(build(parse_spec("D(8)")))
        (pd,) = c.per_prime
        # D8^2 is cyclic of order 2, the largest cyclic power 2-subgroup
        assert (pd.p, pd.f, pd.k) == (2, 2, 1)


# products with a cyclic factor beyond the sweep's: deeper, with more
# factors, or with a factor of order 5 next to 2 and 3
DEEP_PRODUCTS = [
    "C(2)xC(2)xC(2)xC(2)xC(2)xC(2)",
    "D(8)xC(2)xC(2)xC(2)",
    "C(3)xC(3)xC(3)xC(2)xC(2)",
    "Q(8)xC(2)xC(3)xC(5)",
    "C(8)xC(8)xC(2)",
    "D(16)xC(2)",
]
SWEEP_PRODUCTS = [str(s) for s in formula_sweep(6, 1200) if split_cyclic(s)]


def times_cyclic(spec, cap=1200):
    rest, n = split_cyclic(spec)
    return counts_times_cyclic(build(rest, cap=cap), n, cap)


class TestCountsTimesCyclic:
    """Goursat's count of A x C(n) from the lattice of A, against the
    full lattice of the product."""

    def test_sweep_has_products(self):
        assert len(SWEEP_PRODUCTS) == 47

    @pytest.mark.parametrize("text", SWEEP_PRODUCTS + DEEP_PRODUCTS)
    def test_matches_lattice(self, text):
        spec = parse_spec(text)
        assert times_cyclic(spec) == _lattice_counts(build(spec, cap=1200), cap=1200)

    def test_matches_lattice_on_zoo_products(self, zoo):
        checked = 0
        for label, g in zoo.items():
            try:
                spec = parse_spec(label)
            except SpecError:
                continue  # a group built without a spec
            if split_cyclic(spec):
                assert times_cyclic(spec) == _lattice_counts(g, 600), label
                checked += 1
        assert checked >= 10

    def test_split_takes_the_largest_cyclic_factor(self):
        rest, n = split_cyclic(parse_spec("C(2)xQ(8)xC(4)xC(3)"))
        assert (str(rest), n) == ("C(2)xQ(8)xC(3)", 4)
        rest, n = split_cyclic(parse_spec("X(2,5)"))
        assert (str(rest), n) == ("D(10)xC(3)", 3)
        assert split_cyclic(parse_spec("D(8)xD(8)")) is None
        assert split_cyclic(parse_spec("C(12)")) is None

    def test_cap_on_the_product_order(self):
        with pytest.raises(CapExceeded, match="order 16 exceeds lattice cap 15"):
            counts_times_cyclic(cyclic_group(8), 2, cap=15)


class TestNormalityAndConjugates:
    def test_center_is_normal(self, zoo):
        for g in list(zoo.values())[::4]:
            z = center(g)
            assert is_normal(g, z)

    def test_sylow2_of_sym3_has_three_conjugates(self):
        s3 = build(parse_spec("Gn(1,3)"))
        p = sylow(s3, 2)
        assert p.size == 2
        assert len(conjugates(s3, p)) == 3

    def test_sylow5_normal_in_metacyclic(self):
        g = build(parse_spec("G(r=2;p=2,n=2;q=5,m=1)"))
        p = sylow(g, 5)
        assert len(conjugates(g, p)) == 1
        assert is_normal(g, p)

    def test_power_subgroups_are_normal(self, zoo):
        for g in zoo.values():
            lat = all_subgroups(g)
            for idx in lat.power_subgroup_indices:
                assert lat.normal_flags[idx]

    def test_conjugacy_classes_partition(self, zoo):
        for g in list(zoo.values())[::6]:
            lat = all_subgroups(g)
            seen = [i for cls in lat.conjugacy_classes for i in cls]
            assert sorted(seen) == list(range(len(lat.subgroups)))


class TestSylowFrattiniOmega:
    def test_sylow_orders(self):
        a4 = build(parse_spec("Alt(4)"))
        assert sylow(a4, 2).size == 4
        s3 = build(parse_spec("Gn(1,3)"))
        assert sylow(s3, 3).size == 3
        assert sylow(s3, 5).size == 1  # p does not divide the order

    def test_sylow2_of_sl23_is_quaternion(self):
        sl = build(parse_spec("SL23"))
        p = sylow(sl, 2)
        assert p.size == 8
        assert are_isomorphic(subgroup_group(sl, p), build(parse_spec("Q(8)")))

    def test_frattini(self, q8):
        v4 = direct_product(cyclic_group(2), cyclic_group(2))
        assert frattini(v4).size == 1
        assert frattini(cyclic_group(4)).size == 2
        assert frattini(q8) == center(q8)

    def test_omega(self):
        c4 = cyclic_group(4)
        assert omega(c4, 1).size == 2
        assert omega(c4, 5).size == 4
        with pytest.raises(ValueError):
            omega(cyclic_group(6), 1)

    def test_omega_of_b1_is_elementary_times_cyclic(self):
        b1 = build(parse_spec("B1(2,3)"))
        w = omega(b1, 1)  # n - 1 = 1
        target = build(parse_spec("C(3)xC(3)xC(3)"))
        assert are_isomorphic(subgroup_group(b1, w), target)


class TestCyclicNonpowerCount:
    def test_cyclic_group_has_none(self):
        assert cyclic_nonpower_p_count(cyclic_group(9), 3) == 0

    def test_c3_c3(self):
        g = build(parse_spec("C(3)xC(3)"))
        # four C3 subgroups, none of which is a power subgroup
        assert cyclic_nonpower_p_count(g, 3) == 4

    def test_m3_value_and_bound(self):
        m3 = build(parse_spec("M(3)"))
        got = cyclic_nonpower_p_count(m3, 3)
        # 13 subgroups of order 3 in the extraspecial group of exponent 3
        assert got == 13
        assert got >= 3 * 1 - 0 + 1


class TestCacheFreesGroups:
    """The cached lattice is plain data that never refers back to its
    group, so a group is freed by reference counting when the last
    reference to it goes, lattice and all."""

    def test_counts_of_a_non_abelian_group(self, groups_left_for_collector):
        assert groups_left_for_collector(lambda: counts(build(parse_spec("D(8)")))) == []

    def test_counts_times_cyclic(self, groups_left_for_collector):
        q8 = parse_spec("Q(8)")
        assert groups_left_for_collector(lambda: counts_times_cyclic(build(q8), 3)) == []

    def test_are_isomorphic_on_an_isomorphic_pair(self, groups_left_for_collector):
        # the pair agrees on every invariant, so both lattices are computed
        def call():
            assert are_isomorphic(build(parse_spec("D(8)")), build(parse_spec("B2(1,2)")))

        assert groups_left_for_collector(call) == []

    def test_lattice_queries(self, groups_left_for_collector):
        def call():
            g = build(parse_spec("Sym(4)"))
            lat = all_subgroups(g)
            p = sylow(g, 2)
            assert not is_normal(g, p)
            assert len(conjugates(g, p)) == 3
            assert lat.subgroups[lat.index_of(p.members)] == p

        assert groups_left_for_collector(call) == []

    def test_a_lattice_is_computed_inside_all_subgroups(self, monkeypatch):
        # bench/trace_child.py times all_subgroups as the lattice layer, so a
        # lattice computed on any path must be computed inside that call,
        # and a cached one must not go through it again
        import npscensus.lattice as lattice

        calls = []

        def traced(G, cap=lattice.DEFAULT_ORDER_CAP):
            calls.append("lattice" in G._cache)
            return all_subgroups(G, cap)

        monkeypatch.setattr(lattice, "all_subgroups", traced)
        g = build(parse_spec("D(8)"))
        counts(g)
        counts(g)
        counts_times_cyclic(g, 3)
        sylow(g, 2)
        assert calls == [False]
        h = build(parse_spec("Q(8)"))
        counts_times_cyclic(h, 3)
        assert calls == [False, False]

    @pytest.mark.parametrize("text", ["Sym(4)", "Q(8)xC(2)", "D(16)", "C(12)"])
    def test_repeated_calls_give_equal_lattices(self, text):
        g = build(parse_spec(text))
        first = all_subgroups(g)
        assert all_subgroups(g) == first
        assert repr(all_subgroups(g)) == repr(first)
