"""Family spec validation, construction, and built-in presentations."""

import re
from math import gcd, isqrt

import pytest

from npscensus.arith import (
    divisors,
    factorize,
    integer_root,
    is_prime,
    multiplicative_order,
    prime_power,
)
from npscensus.core import CapExceeded, exponent, is_abelian
from npscensus.coset import coset_enumerate
from npscensus.families import (
    AFAMILY,
    EXTRASPECIAL,
    FAMILIES,
    FFAMILY,
    GENERAL,
    GSHORT,
    MODULAR,
    QUATERNION,
    SYM,
    FamilySpec,
    UnknownFamilyError,
    _f_twist,
    build,
    builtin_presentation,
    cyclic_spec,
    expected_order,
    product_spec,
    validate,
)
from npscensus.isomorphism import are_isomorphic
from npscensus.presentation import parse_presentation
from npscensus.specs import parse_spec


class TestValidate:
    def test_twist_congruence_accepted(self):
        # 2^2 = 4 = 1 mod 3
        assert validate(FamilySpec(GENERAL, (2, 1, 3, 1), r=2)) is None

    def test_twist_congruence_rejected(self):
        # 2^2 = 4 != 1 mod 5
        diag = validate(FamilySpec(GENERAL, (2, 1, 5, 1), r=2))
        assert diag is not None and "mod 5" in diag

    def test_f_family_order_three_twist(self):
        assert validate(FamilySpec(FFAMILY, (1, 7), r=2)) is None
        diag = validate(FamilySpec(FFAMILY, (1, 7), r=3))
        assert diag is not None  # 3 has order 6 mod 7

    def test_f_family_needs_p_1_mod_3(self):
        assert validate(FamilySpec(FFAMILY, (1, 5))) is not None

    @pytest.mark.parametrize("q", [7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97])
    def test_f_family_twist_test_is_order_three(self, q):
        # every residue class, r = 0 mod q (not a unit) among them
        for r in range(-3 * q, 3 * q):
            order_three = gcd(r, q) == 1 and multiplicative_order(r, q) == 3
            assert (validate(FamilySpec(FFAMILY, (1, q), r=r)) is None) == order_three

    def test_f_family_default_twist_is_the_smallest_cube_root_of_unity(self):
        for q in range(2, 3000):
            if is_prime(q):
                roots = [t for t in range(2, q) if pow(t, 3, q) == 1]
                assert _f_twist(q) == (roots[0] if roots else None)
        # no twist is searched for any q but a prime = 1 mod 3
        assert _f_twist(91) is None
        q = 10**18 + 3
        w = _f_twist(q)
        assert w != 1 and pow(w, 3, q) == 1 and w < q - 1 - w

    def test_modular_parameter_floor(self):
        assert validate(FamilySpec(MODULAR, (3, 2))) is not None  # needs n >= 4 at p=2
        assert validate(FamilySpec(MODULAR, (3, 3))) is None
        assert validate(FamilySpec(MODULAR, (2, 5))) is not None

    def test_quaternion_and_semidihedral_floors(self):
        assert validate(parse_spec("Q(4)")) is not None
        assert validate(parse_spec("Q(8)")) is None
        assert validate(parse_spec("S(8)")) is not None
        assert validate(parse_spec("S(16)")) is None

    def test_extraspecial_needs_odd_prime(self):
        assert validate(FamilySpec(EXTRASPECIAL, (2,))) is not None
        assert validate(FamilySpec(EXTRASPECIAL, (9,))) is not None

    def test_primality_enforced(self):
        assert validate(FamilySpec(GSHORT, (1, 4, 1))) is not None

    def test_never_raises(self):
        assert validate(FamilySpec("nonsense", (1,))) is not None


def _trial_division_primes(limit):
    return [n for n in range(2, limit) if all(n % d for d in range(2, isqrt(n) + 1))]


class TestPrimality:
    def test_is_prime_matches_trial_division(self):
        primes = set(_trial_division_primes(100_000))
        assert [n for n in range(100_000) if is_prime(n)] == sorted(primes)

    @pytest.mark.parametrize(
        "n, prime",
        [
            (2**61 - 1, True),
            (2**89 - 1, True),
            (1000000000000000003, True),
            (561, False),  # Carmichael
            (3215031751, False),  # strong pseudoprime to bases 2, 3, 5 and 7
            (3825123056546413051, False),  # strong pseudoprime to bases 2..23
            (1000000007 * 1000000009, False),
        ],
    )
    def test_is_prime_large(self, n, prime):
        assert is_prime(n) is prime

    def test_prime_power_matches_factorize(self):
        for n in range(1, 5000):
            fact = factorize(n)
            want = next(iter(fact.items())) if len(fact) == 1 else None
            assert prime_power(n) == want, n

    def test_divisors_match_trial_division(self):
        for n in range(1, 5001):
            small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
            assert divisors(n) == sorted({*small, *(n // d for d in small)}), n

    def test_factorize_stops_at_a_prime_cofactor(self):
        q = 1000000000000000003
        assert factorize(q) == {q: 1}
        assert factorize(2**5 * 3 * q) == {2: 5, 3: 1, q: 1}
        assert divisors(3 * q) == [1, 3, q, 3 * q]

    def test_prime_power_large(self):
        q = 2**61 - 1
        assert prime_power(q**5) == (q, 5)
        assert prime_power(q**2 * 43) is None
        assert prime_power(43**7 * 47) is None
        assert prime_power(3**200) == (3, 200)
        # a small base with a long exponent: P = 2^n of Gn(n,q) past the cap
        assert prime_power(2**1_000_000) == (2, 1_000_000)
        assert prime_power(5**100_000 * 7) is None

    def test_integer_root(self):
        for n in list(range(200)) + [10**40, 10**40 - 1, 2**300 + 5]:
            for k in range(1, 12):
                r = integer_root(n, k)
                assert r**k <= n < (r + 1) ** k, (n, k)


# one spec per family row, for the over-cap test; C(3000) alone would be a
# 3000 x 3000 table
OVER_CAP = (
    "C(3000)", "D(600)", "Q(1024)", "S(16)", "M(4,2)", "M(3)",
    "G(r=2;p=2,n=2;q=5,m=1)", "Gn(3,9)", "F(1,7)", "B1(1,2)", "B2(2,3)",
    "A(3)", "Sym(2)", "Alt(5)", "SL23", "C3Q8", "X(1,5)", "Q(8)xC(3)",
)


class TestBuildOrders:
    CASES = [
        ("C(9)", 9),
        ("D(14)", 14),
        ("Q(32)", 32),
        ("S(32)", 32),
        ("M(5,2)", 32),
        ("M(5)", 125),
        ("G(r=2;p=2,n=2;q=5,m=1)", 20),
        ("Gn(3,9)", 72),
        ("F(2,13)", 117),
        ("B1(3,2)", 32),
        ("B2(2,3)", 81),
        ("A(3)", 108),
        ("Sym(4)", 24),
        ("Alt(5)", 60),
        ("SL23", 24),
        ("C3Q8", 24),
        ("X(1,5)", 30),
        ("Q(8)xC(2)xC(2)", 32),
    ]

    @pytest.mark.parametrize("text,order", CASES)
    def test_order_contract(self, text, order):
        spec = parse_spec(text)
        assert expected_order(spec) == order
        assert build(spec).order == order

    def test_invalid_spec_raises(self):
        with pytest.raises(ValueError, match="invalid spec"):
            build(FamilySpec(GENERAL, (2, 1, 5, 1), r=2))

    @pytest.mark.parametrize("text", ["Q(1024)", "M(11)", "B1(3,5)"])
    def test_presented_family_over_cap_raises_before_any_table(
        self, text, monkeypatch
    ):
        from npscensus import core, families

        def no_table(*args, **kwargs):
            raise AssertionError("a table was started")

        monkeypatch.setattr(families, "metacyclic_group", no_table)
        monkeypatch.setattr(families, "_class2", no_table)
        monkeypatch.setattr(core, "group_from_columns", no_table)
        with pytest.raises(CapExceeded, match="exceeds cap 600"):
            build(parse_spec(text), cap=600)

    @pytest.mark.parametrize("text", [*OVER_CAP, "C(2)xC(2000)", "A(6)"])
    def test_over_cap_spec_refused_before_any_table(self, text, monkeypatch):
        from npscensus import core, families

        def no_table(*args, **kwargs):
            raise AssertionError("a table was started")

        for module in (families, core):
            for name in (
                "cyclic_group", "metacyclic_group", "_class2", "group_from_columns",
                "_sl23",
            ):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, no_table)
        spec = parse_spec(text)
        cap = expected_order(spec) - 1
        with pytest.raises(
            CapExceeded, match=re.escape(f"order of {spec} exceeds cap {cap}")
        ):
            build(spec, cap=cap)


def _metacyclic_sweep_specs() -> list[str]:
    """Every metacyclic spec of the default formula sweep and of the
    theorem buckets, once each."""
    from npscensus.catalog import instantiate_bucket
    from npscensus.cli import formula_sweep
    from npscensus.families import metacyclic_of

    specs = formula_sweep(6, 1200)
    for k in range(14):
        specs += [spec for spec, _ in instantiate_bucket(k, 6, 600)]
    return list(dict.fromkeys(str(s) for s in specs if metacyclic_of(s)))


def _split_sweep_specs() -> list[str]:
    """The specs of `_metacyclic_sweep_specs` with no carry (t = 0)."""
    from npscensus.families import metacyclic_of

    return [t for t in _metacyclic_sweep_specs() if not metacyclic_of(parse_spec(t))[3]]


class TestMetacyclicTables:
    @pytest.mark.parametrize("text", _split_sweep_specs())
    def test_same_as_semidirect_product_of_cyclic_groups(self, text):
        from npscensus.core import cyclic_group, semidirect_product
        from npscensus.families import metacyclic_of

        spec = parse_spec(text)
        Q, P, r, _ = metacyclic_of(spec)
        action = tuple(pow(r, -1, Q) * i % Q for i in range(Q))
        old = semidirect_product(
            cyclic_group(Q), cyclic_group(P), [action], cap=1200, label=text
        )
        new = build(spec, cap=1200)
        assert (new.mul, new.inv) == (old.mul, old.inv)
        assert (new.generators, new.label) == (old.generators, old.label)

    def test_cap_checked_first(self, monkeypatch):
        from npscensus import families

        def no_table(*args, **kwargs):
            raise AssertionError("metacyclic table started")

        monkeypatch.setattr(families, "metacyclic_group", no_table)
        with pytest.raises(CapExceeded, match=r"order of D\(600\) exceeds cap 599"):
            build(parse_spec("D(600)"), cap=599)

    @pytest.mark.parametrize("Q,P,r", [(5, 2, 2), (9, 4, 3)])
    def test_twist_must_have_order_dividing_p(self, Q, P, r):
        from npscensus.core import metacyclic_group

        with pytest.raises(
            ValueError,
            match="generator images do not extend to a homomorphism K -> Aut",
        ):
            metacyclic_group(Q, P, r, 0, "x")


# the families whose table is not a split metacyclic product, each against
# the coset enumeration of its built-in presentation
PRESENTED = (
    *(f"Q({2 ** k})" for k in range(3, 10)),
    "C3Q8",
    "M(3)", "M(5)", "M(7)",
    *(f"B1({n},2)" for n in range(1, 6)),
    "B1(1,3)", "B1(2,3)", "B1(3,3)", "B1(1,5)", "B1(2,5)",
)


class TestPresentedFamilies:
    @pytest.mark.parametrize("text", PRESENTED)
    def test_table_is_the_presented_group(self, text):
        from npscensus.lattice import _lattice_counts

        spec = parse_spec(text)
        table = build(spec, cap=1200)
        order, presented = coset_enumerate(builtin_presentation(spec))
        assert table.order == order == expected_order(spec)
        assert are_isomorphic(table, presented, cap=1200)
        assert _lattice_counts(table, 1200) == _lattice_counts(presented, 1200)

    def test_build_enumerates_no_cosets(self, monkeypatch):
        # every row at its smallest parameters, every spec of the extended
        # formula sweep and every bucket instance is made as a table
        from npscensus import coset
        from npscensus.catalog import instantiate_bucket
        from npscensus.cli import formula_sweep

        def no_cosets(*args, **kwargs):
            raise AssertionError("coset enumeration started")

        monkeypatch.setattr(coset, "enumerate_cosets", no_cosets)
        specs = [parse_spec(text) for text in SMALLEST.values()]
        specs += formula_sweep(6, 1200)
        for k in range(14):
            specs += [spec for spec, _ in instantiate_bucket(k, 6, 600)]
        for spec in specs:
            assert build(spec, cap=1200).order == expected_order(spec)

    @pytest.mark.parametrize("t", [1, 3])
    def test_carry_must_be_fixed_by_the_twist(self, t):
        from npscensus.core import metacyclic_group

        # a^2 = b^t in C_4 x|_-1 C_2 needs -t = t mod 4
        with pytest.raises(ValueError, match="do not extend to a homomorphism"):
            metacyclic_group(4, 2, -1, t, "x")


class TestClaimedIsomorphisms:
    def test_a1_is_alt4(self):
        assert are_isomorphic(build(parse_spec("A(1)")), build(parse_spec("Alt(4)")))

    def test_b2_12_is_d8(self):
        assert are_isomorphic(build(parse_spec("B2(1,2)")), build(parse_spec("D(8)")))

    def test_b1_1p_is_extraspecial(self):
        b1 = build(parse_spec("B1(1,3)"))
        assert b1.order == 27
        assert exponent(b1) == 3
        assert are_isomorphic(b1, build(parse_spec("M(3)")))

    def test_b2_1p_is_modular_p3(self):
        assert are_isomorphic(build(parse_spec("B2(1,3)")), build(parse_spec("M(3,3)")))

    def test_gshort_n1_is_dihedral(self):
        assert are_isomorphic(build(parse_spec("Gn(1,3)")), build(parse_spec("D(6)")))
        assert are_isomorphic(build(parse_spec("Gn(1,3)")), build(parse_spec("Sym(3)")))

    def test_trivial_twist_gives_abelian(self):
        g = build(FamilySpec(GENERAL, (2, 2, 3, 1), r=1))
        assert is_abelian(g)
        assert are_isomorphic(g, build(product_spec(cyclic_spec(4), cyclic_spec(3))))

    def test_c3q8_is_c3_by_q8(self):
        # Q8 acting on C3 by inversion through one generator
        from npscensus.core import cyclic_group, semidirect_product

        q8 = build(parse_spec("Q(8)"))
        action = [(0, 2, 1)] + [(0, 1, 2)] * (len(q8.generators) - 1)
        c3q8 = semidirect_product(cyclic_group(3), q8, action)
        assert are_isomorphic(build(parse_spec("C3Q8")), c3q8)

    def test_semidihedral_is_the_metacyclic_special_case(self):
        s16 = build(parse_spec("S(16)"))
        alt = build(FamilySpec(GENERAL, (2, 1, 2, 3), r=3))
        assert are_isomorphic(s16, alt)

    def test_extraspecial_exponents(self):
        # M(3,p) has exponent p^2; M(p) has exponent p
        assert exponent(build(parse_spec("M(3,3)"))) == 9
        assert exponent(build(parse_spec("M(3,5)"))) == 25
        assert exponent(build(parse_spec("M(3)"))) == 3
        assert exponent(build(parse_spec("M(5)"))) == 5

    def test_sl23_structure(self):
        sl = build(parse_spec("SL23"))
        from npscensus.core import center, derived_subgroup

        assert center(sl).size == 2
        assert derived_subgroup(sl).size == 8


class TestBuiltinPresentations:
    def test_gshort_text(self):
        pres = builtin_presentation(FamilySpec(GSHORT, (1, 3, 1)))
        expect = parse_presentation("a,b | a^2=1, b^3=1, a^-1 b a = b^-1")
        assert pres.relators == expect.relators

    def test_a_family_text(self):
        pres = builtin_presentation(FamilySpec(AFAMILY, (2,)))
        expect = parse_presentation(
            "a,b,c | a^9=1, b^2=1, b c = c b, b^a = c, c^a = b c"
        )
        assert pres.relators == expect.relators

    def test_quaternion_enumerates_to_declared_order(self):
        for two_n in (8, 16, 32, 64):
            pres = builtin_presentation(FamilySpec(QUATERNION, (two_n,)))
            order, _ = coset_enumerate(pres)
            assert order == two_n

    def test_no_presentation_families(self):
        for text in ["Sym(4)", "Alt(4)", "SL23", "X(1,5)", "Q(8)xC(2)"]:
            with pytest.raises(UnknownFamilyError, match="no presentation"):
                builtin_presentation(parse_spec(text))

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError, match="invalid spec"):
            builtin_presentation(FamilySpec(SYM, (0,)))


class TestSpecDisplay:
    @pytest.mark.parametrize(
        "text",
        [
            "C(7)",
            "Q(16)",
            "M(4,3)",
            "M(5)",
            "G(r=2;p=2,n=3;q=5,m=1)",
            "Gn(2,9)",
            "F(1,7)",
            "B2(2,2)",
            "A(2)",
            "X(2,3)",
            "SL23",
            "C3Q8",
            "Q(8)xC(2)xC(2)",
        ],
    )
    def test_str_round_trips_through_parser(self, text):
        spec = parse_spec(text)
        assert parse_spec(str(spec)) == spec

    @pytest.mark.parametrize("text", ["D(8,2)", "Sym(3,3)", "C(2)xD(8,2)", "D()"])
    def test_wrong_parameter_count_shown_as_given(self, text):
        assert str(parse_spec(text)) == text

    def test_explicit_twist_shown_unless_it_is_the_default(self):
        assert str(parse_spec("F(1,7,2)")) == "F(1,7)"
        assert str(parse_spec("F(1,7,4)")) == "F(1,7,4)"
        # 9^3 = 1 mod 91, but only a prime q = 1 mod 3 has a default twist
        assert str(parse_spec("F(1,91,9)")) == "F(1,91,9)"

    def test_build_labels_groups(self):
        g = build(parse_spec("M(4,3)"))
        assert g.label == "M(4,3)"


# every table row at its smallest admissible parameters
SMALLEST = {
    "C": "C(1)",
    "D": "D(2)",
    "Q": "Q(8)",
    "S": "S(16)",
    "M": "M(3,3)",
    "MP": "M(3)",
    "G": "G(r=1;p=2,n=1;q=2,m=1)",
    "GN": "Gn(1,2)",
    "F": "F(1,7)",
    "B1": "B1(1,2)",
    "B2": "B2(1,2)",
    "A": "A(1)",
    "Sym": "Sym(1)",
    "Alt": "Alt(1)",
    "SL23": "SL23",
    "C3Q8": "C3Q8",
    "X": "X(1,3)",
    "prod": "C(1)xC(1)",
}


class TestFamilyTable:
    def test_every_kind_constant_has_a_row(self):
        from npscensus import families

        kinds = {
            getattr(families, name)
            for name in (
                "CYCLIC", "DIHEDRAL", "QUATERNION", "SEMIDIHEDRAL", "MODULAR",
                "EXTRASPECIAL", "GENERAL", "GSHORT", "FFAMILY", "B1", "B2",
                "AFAMILY", "SYM", "ALT", "SL23", "C3Q8", "XFAMILY", "PRODUCT",
            )
        }
        over_cap = {parse_spec(text).kind for text in OVER_CAP}
        assert kinds == set(FAMILIES) == set(SMALLEST) == over_cap

    def test_catalog_counts_only_table_kinds(self):
        from npscensus.catalog import _COUNTS

        assert set(_COUNTS) <= set(FAMILIES)

    @pytest.mark.parametrize("kind", sorted(SMALLEST))
    def test_row_at_smallest_parameters(self, kind):
        spec = parse_spec(SMALLEST[kind])
        assert spec.kind == kind
        assert validate(spec) is None
        assert parse_spec(str(spec)) == spec
        g = build(spec)
        assert expected_order(spec) == g.order
        fam = FAMILIES[kind]
        if fam.metacyclic is None and fam.presentation is None:
            with pytest.raises(UnknownFamilyError, match="no presentation"):
                builtin_presentation(spec)
            return
        order, presented = coset_enumerate(builtin_presentation(spec))
        assert order == g.order
        assert are_isomorphic(presented, g)

    @pytest.mark.parametrize("kind", sorted(SMALLEST))
    def test_row_parameters_just_below_are_rejected(self, kind):
        # lowering any one parameter of the smallest spec leaves the family
        spec = parse_spec(SMALLEST[kind])
        for i, v in enumerate(spec.params):
            lower = spec.params[:i] + (v - 1,) + spec.params[i + 1:]
            assert validate(FamilySpec(kind, lower, r=spec.r)) is not None, lower

    def test_parser_names_documented(self):
        import re
        from pathlib import Path

        from npscensus.cli import _build_parser

        epilog = _build_parser().epilog
        readme = Path(__file__).resolve().parents[1].joinpath("README.md")
        text = readme.read_text(encoding="utf-8")
        spec_list = text.split("### Family spec mini-language")[1].split("###")[0]
        for fam in FAMILIES.values():
            for name in fam.parser_names:
                tail = r"\(" if fam.arity else r"\b"
                pattern = rf"(?<![A-Za-z0-9]){re.escape(name)}{tail}"
                assert re.search(pattern, epilog, re.IGNORECASE), name
                assert re.search(pattern, spec_list, re.IGNORECASE), name
