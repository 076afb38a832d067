"""Mini-language parsing for family specs."""

import pytest

from npscensus.families import (
    EXTRASPECIAL,
    GENERAL,
    GSHORT,
    MODULAR,
    PRODUCT,
    FamilySpec,
    expected_order,
)
from npscensus.specs import SpecError, parse_spec


class TestAtoms:
    def test_cyclic(self):
        assert parse_spec("C(7)") == FamilySpec("C", (7,))

    def test_modular_vs_extraspecial_by_arity(self):
        assert parse_spec("M(4,3)").kind == MODULAR
        assert parse_spec("M(5)").kind == EXTRASPECIAL

    def test_general_named_arguments(self):
        s = parse_spec("G(r=2;p=2,n=3;q=5,m=1)")
        assert s == FamilySpec(GENERAL, (2, 3, 5, 1), r=2)

    def test_negative_twist(self):
        s = parse_spec("G(r=-1;p=2,n=2;q=3,m=2)")
        assert s.r == -1

    def test_gshort_prime_power(self):
        assert parse_spec("Gn(2,9)") == FamilySpec(GSHORT, (2, 3, 2))

    def test_gshort_large_prime_power(self):
        q = 1000000000000000003
        assert parse_spec(f"Gn(1,{q})") == FamilySpec(GSHORT, (1, q, 1))
        assert parse_spec(f"Gn(1,{q ** 3})") == FamilySpec(GSHORT, (1, q, 3))
        with pytest.raises(SpecError, match="not a prime power"):
            parse_spec(f"Gn(1,{1000000007 * 1000000009})")

    def test_f_optional_twist(self):
        assert parse_spec("F(1,7)").r is None
        assert parse_spec("F(1,7,4)").r == 4

    def test_no_argument_families(self):
        assert parse_spec("SL23").params == ()
        assert parse_spec("C3Q8").params == ()

    def test_case_and_whitespace_insensitive(self):
        assert parse_spec(" sym( 4 ) ") == parse_spec("Sym(4)")
        assert parse_spec("c3q8") == parse_spec("C3Q8")


class TestProducts:
    def test_simple_product(self):
        s = parse_spec("Q(8)xC(2)")
        assert s.kind == PRODUCT
        assert [f.kind for f in s.factors] == ["Q", "C"]

    def test_products_flatten(self):
        s = parse_spec("Q(8)xC(2)xC(2)")
        assert len(s.factors) == 3
        assert expected_order(s) == 32

    def test_single_factor_collapses(self):
        assert parse_spec("C(4)").kind == "C"

    def test_no_arg_family_in_product(self):
        s = parse_spec("SL23xC(5)")
        assert expected_order(s) == 120


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "Z(3)",
            "C(x)",
            "C(3",
            "M(1,2,3)",
            "G(2,1,3,1)",
            "Gn(1,6)",
            "Q(8)y",
            "C(3)x",
            "SL23(2)",
            "D(8)xx C(2)",
        ],
    )
    def test_rejected(self, bad):
        with pytest.raises(SpecError):
            parse_spec(bad)

    def test_error_carries_position(self):
        with pytest.raises(SpecError) as info:
            parse_spec("Q(8)y")
        assert info.value.position is not None

    def test_error_raised_on_every_call(self):
        # parse_spec is cached by text, and an exception is never cached
        for _ in range(2):
            with pytest.raises(SpecError, match="expected 'x' or end of spec"):
                parse_spec("Q(8)y")


def test_parse_is_cached_by_text():
    spec = parse_spec("Q(8)xC(2)")
    assert parse_spec("Q(8)xC(2)") is spec
    assert parse_spec("Q(8) x C(2)") == spec


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "C(7)",
            "D(8)",
            "Q(16)",
            "S(16)",
            "M(4,3)",
            "M(5)",
            "Gn(2,9)",
            "G(r=2;p=2,n=3;q=5,m=1)",
            "G(r=-1;p=2,n=2;q=3,m=2)",
            "B1(2,3)",
            "B2(2,2)",
            "A(2)",
            "F(1,7)",
            "X(2,3)",
            "SL23",
            "C3Q8",
            "Sym(4)",
            "Alt(4)",
            "Q(8)xC(2)xC(2)",
            "Gn(1,3)xC(35)",
        ],
    )
    def test_parse_str_parse(self, text):
        spec = parse_spec(text)
        assert parse_spec(str(spec)) == spec
