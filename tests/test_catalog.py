"""Expected-count catalog and the classification lists."""

from fractions import Fraction
from itertools import islice

import pytest

from npscensus.arith import subgroup_count_rank2
from npscensus.catalog import (
    EXACT,
    LOWER_BOUND,
    UNDER_REVIEW,
    abelian_rank2_counts,
    expected_nps,
    instances_of_order,
    instantiate_bucket,
    minimal_instances,
    printed_rank2_formula,
    theorem_catalog,
)
from npscensus.families import (
    FamilySpec,
    UnknownFamilyError,
    build,
    expected_order,
    cyclic_spec,
    product_spec,
)
from npscensus.lattice import _lattice_counts, counts
from npscensus.specs import parse_spec


def expect(text):
    return expected_nps(parse_spec(text))


class TestExactEntries:
    CASES = [
        # dihedral, quaternion, semidihedral, modular 2-groups
        ("D(8)", 7),
        ("D(16)", 15),
        ("D(32)", 31),
        ("D(64)", 63),
        ("Q(8)", 3),
        ("Q(16)", 7),
        ("S(16)", 11),
        ("S(32)", 23),
        ("M(4,2)", 7),
        ("M(6,2)", 11),
        ("M(4,3)", 10),
        ("M(3,5)", 11),
        # extraspecial exponent p
        ("M(3)", 17),
        ("M(5)", 37),
        # odd dihedral via the metacyclic count
        ("D(6)", 3),
        ("D(18)", 12),
        # G_{n,q^m} shorthand family: count independent of n
        ("Gn(1,3)", 3),
        ("Gn(2,3)", 3),
        ("Gn(1,5)", 5),
        ("Gn(3,5)", 5),
        ("Gn(1,7)", 7),
        ("Gn(2,9)", 12),
        ("Gn(1,11)", 11),
        ("Gn(1,13)", 13),
        # F family
        ("F(1,7)", 7),
        ("F(2,13)", 13),
        # A family
        ("A(1)", 7),
        ("A(2)", 10),
        ("A(3)", 13),
        # B families at n >= 2
        ("B1(2,2)", 20),
        ("B1(2,3)", 38),
        ("B1(3,2)", 30),
        ("B2(2,2)", 12),
        ("B2(2,3)", 20),
        ("B2(3,2)", 18),
        # sporadic direct calculations
        ("SL23", 11),
        ("Sym(4)", 26),
        ("C3Q8", 13),
        # X family
        ("X(1,5)", 10),
        ("X(1,7)", 14),
        ("X(2,5)", 42),
        ("X(1,3)", 10),
        ("X(2,3)", 48),
        # coprime compositions
        ("Q(8)xC(3)", 6),
        ("Q(8)xC(9)", 9),
        ("Q(8)xC(35)", 12),
        ("C(2)xC(2)xC(3)", 6),
        ("C(3)xC(3)xC(2)", 8),
        ("C(2)xC(4)xC(3)", 10),
        ("C(3)xC(3)xC(4)", 12),
        ("C(5)xC(5)xC(2)", 12),
        ("Gn(1,3)xC(5)", 6),
        ("Gn(2,3)xC(25)", 9),
        ("Gn(1,3)xC(35)", 12),
        ("Gn(1,5)xC(3)", 10),
        # products with a shared prime that have dedicated statements
        ("Gn(1,3)xC(3)", 10),
        ("Gn(2,3)xC(3)", 14),
        ("Q(8)xC(2)", 16),
        ("D(6)xC(2)", 13),
        ("D(10)xC(2)", 19),
        ("D(14)xC(2)", 25),
    ]

    @pytest.mark.parametrize("text,value", CASES)
    def test_value(self, text, value):
        e = expect(text)
        assert e.kind == EXACT
        assert e.value == value

    def test_cyclic_is_zero(self):
        e = expect("C(360)")
        assert (e.kind, e.value) == (EXACT, 0)

    def test_metacyclic_twist_order_scales_count(self):
        # ord_5(2) = 4 = 2^2 so k = 2 doubles the base count
        e = expect("G(r=2;p=2,n=2;q=5,m=1)")
        assert (e.kind, e.value) == (EXACT, 10)
        e = expect("G(r=4;p=2,n=2;q=5,m=1)")  # ord_5(4) = 2, k = 1
        assert (e.kind, e.value) == (EXACT, 5)

    def test_same_prime_odd_matches_abelian(self):
        e = expect("G(r=4;p=3,n=1;q=3,m=2)")
        assert (e.kind, e.value) == (EXACT, abelian_rank2_counts(3, 1, 2).nps) == (EXACT, 7)


class TestBoundsAndReview:
    def test_lower_bound_entries(self):
        for text, bound in [
            ("Gn(1,3)xC(3)xC(3)", 10),
            ("Q(8)xC(2)xC(2)", 16),
            ("D(6)xC(2)xC(2)", 13),
            ("X(3,3)", 49),
        ]:
            e = expect(text)
            assert e.kind == LOWER_BOUND
            assert e.value == bound

    def test_rank2_prime_power_is_under_review(self):
        e = expect("C(2)xC(4)")
        assert e.kind == UNDER_REVIEW
        assert e.value == 10  # printed formula value, oracle gives 5

    def test_printed_formula_values(self):
        assert printed_rank2_formula(2, 1, 2) == 10
        assert printed_rank2_formula(2, 1, 1) == 7
        assert printed_rank2_formula(11, 1, 1) == Fraction(1222, 100)

    def test_no_entry(self):
        with pytest.raises(UnknownFamilyError, match="no catalog entry"):
            expect("Alt(5)")
        with pytest.raises(UnknownFamilyError):
            expect("Sym(3)xC(3)")  # covered by the classification, not a formula


# one spec per catalog rule, with its full outcome: kind|value|source, or
# the exception class and text
RULE_OUTCOMES = [
    ("X(1,3)", "exact|10|nps(X_1,3) = 10"),
    ("X(2,3)", "exact|48|nps(X_2,3) = 48"),
    ("X(3,3)", "lower_bound|49|nps(X_n,3) > 48 for n > 2"),
    ("X(2,5)", "exact|42|nps(X_n,p) = (p+3) s(C3^n) - 6 for p > 3"),
    ("D(6)xC(3)", "exact|10|nps(X_1,3) = 10"),
    ("D(10)xC(3)xC(3)", "exact|42|nps(X_n,p) = (p+3) s(C3^n) - 6 for p > 3"),
    ("Gn(2,3)xC(3)", "exact|14|nps(G_m,3 x C3) = 4m + 6, a bound for more C3 factors"),
    ("Gn(2,3)xC(3)xC(3)", "lower_bound|14|nps(G_m,3 x C3) = 4m + 6, a bound for more C3 factors"),
    ("Q(8)xC(2)", "exact|16|nps(Q8 x C2) = 16, a bound for more C2 factors"),
    ("Q(8)xC(2)xC(2)", "lower_bound|16|nps(Q8 x C2) = 16, a bound for more C2 factors"),
    ("D(14)xC(2)", "exact|25|nps(D_2p x C2) = 3p + 4, a bound for more C2 factors"),
    ("D(14)xC(2)xC(2)", "lower_bound|25|nps(D_2p x C2) = 3p + 4, a bound for more C2 factors"),
    (
        "C(4)xC(8)",
        "from_formula_under_review|23|printed rank-2 abelian closed form"
        " (under review; enumeration is authoritative)",
    ),
    (
        "C(2)xC(4)xC(3)",
        "exact|10|coprime product composition: divisor-sum count for a rank-2 abelian"
        " p-group; cyclic groups have no nonpower subgroups",
    ),
    (
        "Q(8)xC(35)",
        "exact|12|coprime product composition: nps(Q_2^n) = 2^(n-1) - 1; cyclic groups"
        " have no nonpower subgroups",
    ),
    (
        "Gn(1,5)xC(3)",
        "exact|10|coprime product composition: nps(G_n,p^m) = p(p^m - 1)/(p - 1) for odd p;"
        " cyclic groups have no nonpower subgroups",
    ),
    ("Sym(4)", "exact|26|direct calculation: nps(Sym(4)) = 26"),
    ("Alt(4)", "exact|7|nps(Alt(4)) = 7"),
    ("SL23", "exact|11|direct calculation: nps(SL(2,3)) = 11"),
    ("C3Q8", "exact|13|direct calculation: nps(C3 x| Q8) = 13"),
    ("Alt(5)", "UnknownFamilyError|no catalog entry for Alt(5)"),
    ("Sym(3)xC(3)", "UnknownFamilyError|no catalog entry for Sym(3)xC(3)"),
    ("Q(8)xC(4)", "UnknownFamilyError|no catalog entry for Q(8)xC(4)"),
    # the product statements read the head, the first factor
    ("C(3)xGn(1,3)", "UnknownFamilyError|no catalog entry for C(3)xGn(1,3)"),
]


@pytest.mark.parametrize("text, outcome", RULE_OUTCOMES)
def test_rule_outcome(text, outcome):
    try:
        e = expect(text)
    except UnknownFamilyError as err:
        got = f"{type(err).__name__}|{err}"
    else:
        got = f"{e.kind}|{e.value}|{e.source}"
    assert got == outcome


class TestAbelianRank2Reference:
    @pytest.mark.parametrize(
        "p,n1,n2,nps",
        [
            (2, 1, 1, 3),
            (2, 1, 2, 5),
            (2, 1, 3, 7),
            (2, 2, 2, 12),
            (3, 1, 2, 7),
            (3, 1, 3, 10),
            (3, 1, 4, 13),
            (5, 1, 1, 6),
            (5, 1, 2, 11),
            (7, 1, 1, 8),
            (11, 1, 1, 12),
            (2, 1, 6, 13),
        ],
    )
    def test_reference_counts(self, p, n1, n2, nps):
        assert abelian_rank2_counts(p, n1, n2).nps == nps

    def test_reference_matches_enumeration(self):
        for p, n1, n2 in [(2, 1, 2), (2, 2, 2), (3, 1, 2), (2, 1, 4), (5, 1, 1)]:
            g = build(product_spec(cyclic_spec(p**n1), cyclic_spec(p**n2)))
            c = _lattice_counts(g, 600)
            ref = abelian_rank2_counts(p, n1, n2)
            assert (c.s, c.ps, c.nps) == (ref.s, ref.ps, ref.nps)

    def test_divisor_sum_total(self):
        assert subgroup_count_rank2(3, 1, 2) == 10
        assert subgroup_count_rank2(2, 1, 2) == 8


class TestTheoremCatalog:
    def test_k0_is_cyclic_only(self):
        (member,) = theorem_catalog(0)
        assert "cyclic" in member.constraints

    def test_k1_k2_empty(self):
        assert theorem_catalog(1) == ()
        assert theorem_catalog(2) == ()

    def test_k11_membership(self):
        templates = {m.template for m in theorem_catalog(11)}
        assert templates == {
            "C(2)xC(32)",
            "C(5)xC(25)",
            "S(16)",
            "M(6,2)",
            "M(3,5)",
            "SL23",
            "Gn(n,11)",
            "G(r=3;p=5,n;q=11,m=1)",
        }

    def test_bucket_sizes(self):
        sizes = {k: len(theorem_catalog(k)) for k in range(14)}
        assert sizes == {
            0: 1, 1: 0, 2: 0, 3: 3, 4: 1, 5: 2, 6: 4, 7: 9,
            8: 2, 9: 5, 10: 7, 11: 8, 12: 9, 13: 9,
        }

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            theorem_catalog(14)

    def test_buckets_built_once(self):
        for k in range(14):
            first = theorem_catalog(k)
            again = theorem_catalog(k)
            assert again == first
            assert again is first
        with pytest.raises(ValueError):
            theorem_catalog(14)

    def test_instantiation_respects_caps(self):
        for spec, _ in instantiate_bucket(12, max_n=4, max_order=600):
            assert expected_order(spec) <= 600

    def test_instantiation_covers_free_n(self):
        labels = {str(s) for s, _ in instantiate_bucket(3, max_n=3, max_order=600)}
        assert {"Gn(1,3)", "Gn(2,3)", "Gn(3,3)"} <= labels

    def test_every_instance_is_buildable(self):
        for k in range(14):
            for spec, _ in instantiate_bucket(k, max_n=2, max_order=600):
                assert build(spec).order == expected_order(spec)


class TestBucketWalk:
    """`BucketMember.instances` and the catalog functions that read it."""

    @pytest.mark.parametrize("k", range(14))
    def test_order_rises_strictly_with_n(self, k):
        # what lets instances_of_order stop at the first order >= its target
        for member in theorem_catalog(k):
            specs = list(islice(member.instances(), 13))
            assert len(specs) == (1 if member.lowest_n is None else 13)
            orders = [expected_order(s) for s in specs]
            assert all(a < b for a, b in zip(orders, orders[1:])), member.template

    def test_walk_bounds(self):
        fixed, _, gn3 = theorem_catalog(3)
        assert list(fixed.instances()) == list(fixed.instances(0)) == [parse_spec("C(2)xC(2)")]
        assert [str(s) for s in gn3.instances(3)] == ["Gn(1,3)", "Gn(2,3)", "Gn(3,3)"]
        (g25,) = [m for m in theorem_catalog(10) if m.lowest_n == 2]
        assert list(g25.instances(1)) == []
        assert [str(s) for s in g25.instances(2)] == ["G(r=2;p=2,n=2;q=5,m=1)"]

    @pytest.mark.parametrize("k", range(14))
    def test_instances_of_order_finds_every_instance(self, k):
        for spec, _ in instantiate_bucket(k, 8, 4096):
            assert spec in instances_of_order(k, expected_order(spec)), spec

    def test_instances_of_order(self):
        assert [str(s) for s in instances_of_order(3, 24)] == ["Gn(3,3)"]
        assert [str(s) for s in instances_of_order(6, 24)] == ["Q(8)xC(3)"]
        # C3 x| C14 has nps 6, but k = 6 fixes q = 5 in Gn(n,3)xC(q)
        assert instances_of_order(6, 42) == []
        # no member reaches this order, and every walk still ends
        assert instances_of_order(13, 3**200 + 2) == []

    @pytest.mark.parametrize("k", range(14))
    def test_minimal_instances_are_the_first_of_each_member(self, k):
        first: dict[str, FamilySpec] = {}
        for spec, template in instantiate_bucket(k, 8, 4096):
            first.setdefault(template, spec)
        if k == 0:
            first = {"C(n)": cyclic_spec(1)}  # instantiate_bucket samples C(n)
        minimal = minimal_instances(k, 4096)
        assert [t for _, t in minimal] == [m.template for m in theorem_catalog(k)]
        assert minimal == [(s, t) for t, s in first.items()]

    def test_minimal_instances_within_the_cap(self):
        within = minimal_instances(12, 100)
        assert within == [(s, t) for s, t in minimal_instances(12, 4096)
                          if expected_order(s) <= 100]
        assert len(within) < len(theorem_catalog(12))


class TestSpecText:
    """The sweep and the buckets are written as spec text, and each report
    label is that text: it parses back to the spec it labels."""

    def test_report_labels_parse_back(self):
        from npscensus.cli import formula_sweep

        specs = formula_sweep(4, 600) + formula_sweep(6, 1200)
        specs += [s for k in range(14) for s, _ in instantiate_bucket(k, 6, 1200)]
        assert [s for s in specs if parse_spec(str(s)) != s] == []

    @pytest.mark.parametrize("k", range(14))
    def test_member_instances_print_as_their_spec_text(self, k):
        for member in theorem_catalog(k):
            if member.lowest_n is None:
                assert [str(s) for s in member.instances()] == [member.spec]
            else:
                texts = [member.spec.format(n) for n in range(member.lowest_n, 7)]
                assert [str(s) for s in member.instances(6)] == texts


class TestCountIndependentOfFreeParameter:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gn5(self, n):
        g = build(FamilySpec("GN", (n, 5, 1)))
        assert counts(g).nps == 5


class TestSideConditions:
    """The classification's prime side conditions, probed beyond the
    minimal instantiation."""

    SECOND_PRIME_CHOICES = [
        # k = 6: p > 2 prime / q > 3 prime
        ("C(2)xC(2)xC(5)", 6),
        ("Q(8)xC(5)", 6),
        ("Gn(1,3)xC(7)", 6),
        # k = 8: p != 3
        ("C(3)xC(3)xC(5)", 8),
        # k = 9
        ("C(2)xC(2)xC(25)", 9),
        ("Q(8)xC(25)", 9),
        ("Gn(1,3)xC(49)", 9),
        # k = 10: p != 2 / q != 2, 5
        ("C(2)xC(4)xC(5)", 10),
        ("Gn(1,5)xC(7)", 10),
        ("Gn(2,5)xC(3)", 10),
        # k = 12: 3 < q < r with (q, r) = (5, 11); s != 3 with s = 5; p != 5
        ("Q(8)xC(55)", 12),
        ("C(2)xC(2)xC(55)", 12),
        ("C(3)xC(3)xC(25)", 12),
        ("C(5)xC(5)xC(3)", 12),
        ("Gn(1,3)xC(55)", 12),
    ]

    @pytest.mark.parametrize("text,k", SECOND_PRIME_CHOICES)
    def test_bucket_value_survives_other_admissible_primes(self, text, k):
        assert counts(build(parse_spec(text))).nps == k

    EXCLUDED_CHOICES = [
        # each violates a side condition; the count must leave the bucket
        ("Gn(1,5)xC(5)", 10, 16),  # q = 5 excluded
        ("C(3)xC(3)xC(9)", 12, 47),  # s = 3 excluded
        ("C(2)xC(4)xC(2)", 10, 24),  # p = 2 excluded
        ("Q(8)xC(2)", 6, 16),  # p = 2 excluded
        ("C(5)xC(5)xC(5)", 12, 62),  # p = 5 excluded
        ("Gn(1,3)xC(3)", 6, 10),  # q = 3 excluded
        ("C(2)xC(2)xC(2)", 6, 14),  # p = 2 excluded
        ("Gn(1,3)xC(15)", 12, 20),  # needs 3 < q < r
    ]

    @pytest.mark.parametrize("text,k_excluded,actual", EXCLUDED_CHOICES)
    def test_excluded_parameters_leave_the_bucket(self, text, k_excluded, actual):
        got = counts(build(parse_spec(text))).nps
        assert got == actual
        assert got != k_excluded


class TestTwistChoiceInvariance:
    """Counts depend on the multiplicative order of the twist, not the
    twist itself, and different twists of the same order are isomorphic."""

    def test_f_family_twists(self):
        from npscensus.isomorphism import are_isomorphic

        f2 = build(FamilySpec("F", (1, 7), r=2))
        f4 = build(FamilySpec("F", (1, 7), r=4))
        assert are_isomorphic(f2, f4)
        assert counts(f2).nps == counts(f4).nps == 7

    def test_general_twists_of_equal_order(self):
        from npscensus.isomorphism import are_isomorphic

        g3 = build(FamilySpec("G", (5, 1, 11, 1), r=3))
        g9 = build(FamilySpec("G", (5, 1, 11, 1), r=9))
        assert are_isomorphic(g3, g9)
        assert counts(g3).nps == counts(g9).nps == 11
        assert expected_nps(parse_spec("G(r=9;p=5,n=1;q=11,m=1)")).value == 11


def test_every_catalog_entry_holds_on_the_corpus(zoo):
    """Whenever the catalog knows a group in the corpus, enumeration must
    agree (exact) or satisfy the bound (lower_bound)."""
    checked = 0
    for label, g in zoo.items():
        if label == "C7:C6":
            continue
        try:
            e = expected_nps(parse_spec(label))
        except UnknownFamilyError:
            continue
        got = counts(g).nps
        if e.kind == EXACT:
            assert got == e.value, f"{label}: {got} != {e.value}"
            checked += 1
        elif e.kind == LOWER_BOUND:
            assert got >= e.value, f"{label}: {got} < bound {e.value}"
            checked += 1
    assert checked >= 50
