"""Isomorphism testing: fingerprints plus generator-image backtracking."""

import pytest

from npscensus.core import CapExceeded, cyclic_group, direct_product, group_from_generators
from npscensus.coset import coset_enumerate
from npscensus.families import build, builtin_presentation
from npscensus.isomorphism import are_isomorphic, conjugacy_class_sizes
from npscensus.specs import parse_spec


def g(text):
    return build(parse_spec(text))


class TestBasics:
    def test_same_object(self):
        q8 = g("Q(8)")
        assert are_isomorphic(q8, q8)

    def test_exponent_distinguishes_c4_from_klein(self):
        assert not are_isomorphic(cyclic_group(4), g("C(2)xC(2)"))

    def test_reflexive_and_symmetric_on_sample(self, zoo):
        sample = list(zoo.values())[::9]
        for a in sample:
            if a.order > 200:
                continue
            assert are_isomorphic(a, a)
        for a in sample:
            for b in sample:
                if a.order > 200 or b.order > 200:
                    continue
                assert are_isomorphic(a, b) == are_isomorphic(b, a)

    def test_cap(self):
        big = cyclic_group(700)
        with pytest.raises(CapExceeded, match="order 700 exceeds lattice cap 600"):
            are_isomorphic(big, big)


class TestDistinguishesOrder16Groups:
    def test_three_pairwise_distinct(self):
        q16, m42, c2c8 = g("Q(16)"), g("M(4,2)"), g("C(2)xC(8)")
        assert not are_isomorphic(q16, m42)
        assert not are_isomorphic(q16, c2c8)
        assert not are_isomorphic(m42, c2c8)

    def test_b2_22_not_abelian_c4_c4(self):
        assert not are_isomorphic(g("B2(2,2)"), g("C(4)xC(4)"))


class TestFindsIsomorphisms:
    def test_across_representations(self):
        natural = group_from_generators(4, [(1, 2, 3, 0), (3, 2, 1, 0)])
        assert are_isomorphic(natural, g("D(8)"))

    def test_semidirect_vs_presentation(self):
        spec = parse_spec("C3Q8")
        direct = build(spec)
        _, enumerated = coset_enumerate(builtin_presentation(spec))
        assert are_isomorphic(direct, enumerated)

    def test_direct_products_commute(self):
        a = direct_product(cyclic_group(3), cyclic_group(8))
        b = direct_product(cyclic_group(8), cyclic_group(3))
        assert are_isomorphic(a, b)

    def test_elementary_abelian_many_generators(self):
        a = g("C(3)xC(3)xC(3)")
        b = g("C(3)xC(3)xC(3)")
        assert are_isomorphic(a, b)

    def test_medium_p_group(self):
        spec = parse_spec("M(5,3)")
        direct = build(spec)
        _, enumerated = coset_enumerate(builtin_presentation(spec))
        assert are_isomorphic(direct, enumerated)


class TestFingerprints:
    def test_conjugacy_class_sizes_sym3(self):
        s3 = g("Gn(1,3)")
        assert conjugacy_class_sizes(s3) == (1, 2, 3)

    def test_conjugacy_class_sizes_abelian(self):
        assert conjugacy_class_sizes(cyclic_group(5)) == (1, 1, 1, 1, 1)
