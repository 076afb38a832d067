"""Coset enumeration over the trivial subgroup."""

import random

import pytest

from npscensus import coset
from npscensus.core import CapExceeded, center, exponent, is_abelian
from npscensus.coset import (
    DEFAULT_MAX_COSETS,
    CosetTable,
    enumerate_cosets,
    group_from_coset_table,
)
from npscensus.families import builtin_presentation
from npscensus.lattice import counts
from npscensus.presentation import Presentation, parse_presentation
from npscensus.specs import parse_spec


def enumerate_group(text: str):
    return group_from_coset_table(enumerate_cosets(parse_presentation(text)))


class TestEnumeration:
    def test_cyclic(self):
        g = enumerate_group("a | a^5=1")
        assert g.order == 5
        assert is_abelian(g)

    def test_sym3(self):
        g = enumerate_group("a,b | a^2=1, b^3=1, a^-1 b a = b^-1")
        assert g.order == 6
        assert not is_abelian(g)

    def test_quaternion8(self):
        g = enumerate_group("a,b,z | a^2 = b^2 = z, z^2 = 1, b^-1 a b = a^-1")
        assert g.order == 8
        assert exponent(g) == 4
        assert center(g).size == 2

    def test_b1_order_is_p_to_n_plus_2(self):
        g = enumerate_group("a,b,c | [a,b]=c, a^3 = b^9 = c^3 = 1, [a,c]=1, [b,c]=1")
        assert g.order == 81

    def test_coxeter_style_presentation(self):
        # two generating reflections at angle pi/4: dihedral of order 8
        g = enumerate_group("r,s | r^2=1, s^2=1, (r s)^4 = 1")
        assert g.order == 8
        assert counts(g).nps == 7

    def test_trivial_presentation(self):
        g = group_from_coset_table(enumerate_cosets(Presentation((), ())))
        assert g.order == 1

    def test_no_generators_take_the_general_path(self):
        table = enumerate_cosets(Presentation((), ()))
        assert table == CosetTable(0, ((),))
        g = group_from_coset_table(table)
        assert (g.order, g.mul, g.generators) == (1, ((0,),), ())

    def test_generator_with_no_relators_caps(self):
        pres = parse_presentation("a,b | a^2=1")
        message = "coset enumeration exceeded 50 cosets (presentation may be infinite)"
        with pytest.raises(CapExceeded) as info:
            enumerate_cosets(pres, max_cosets=50)
        assert str(info.value) == message

    def test_collapse_to_trivial(self):
        # b = b^2 forces b = 1
        assert enumerate_group("b | b = b^2").order == 1

    def test_heavy_coincidence_case(self):
        # 2x3 presentation of the trivial group: |a| divides 2 and 3
        assert enumerate_group("a | a^2 = 1, a^3 = 1").order == 1


class TestCosetTable:
    def test_complete_table_is_a_permutation_action(self):
        table = enumerate_cosets(
            parse_presentation("a,b | a^2=1, b^3=1, a^-1 b a = b^-1")
        )
        for perm in table.generator_permutations():
            assert sorted(perm) == list(range(table.num_cosets))

    def test_determinism(self):
        text = "a,b | a^4=1, b^4=1, a^-1 b a = b^-1"
        t1 = enumerate_cosets(parse_presentation(text))
        t2 = enumerate_cosets(parse_presentation(text))
        assert t1 == t2

    def test_row_zero_is_subgroup_coset(self):
        table = enumerate_cosets(parse_presentation("a | a^4 = 1"))
        assert isinstance(table, CosetTable)
        # from the identity coset, generator column 0 moves to coset a
        assert table.rows[0][0] != 0

    def test_regular_representation_multiplication(self):
        g = enumerate_group("a | a^6 = 1")
        assert g.order == 6
        g.validate()
        gen = g.generators[0]
        x = 0
        seen = []
        for _ in range(6):
            x = g.mul[x][gen]
            seen.append(x)
        assert x == 0
        assert len(set(seen)) == 6


class _ReferenceHLT:
    """Plain HLT: scans every relator from every live coset, skipping none.

    Same definition order, union-find and cap as `coset._Enumerator`, so
    the two must give equal tables, and stop at the cap in the same state;
    kept apart from the module on purpose.
    """

    def __init__(self, pres, max_cosets):
        self.ncols = 2 * len(pres.generators)
        self.relators = [
            tuple(2 * g if s > 0 else 2 * g + 1 for g, s in r) for r in pres.relators if r
        ]
        self.max_cosets = max_cosets
        self.table = [[-1] * self.ncols]
        self.p = [0]
        self.capped = False

    def rep(self, c):
        while self.p[c] != c:
            c = self.p[c]
        return c

    def define(self, c, col):
        if len(self.table) >= self.max_cosets:
            self.capped = True
            return -1
        d = len(self.table)
        self.table.append([-1] * self.ncols)
        self.p.append(d)
        self.table[c][col] = d
        self.table[d][col ^ 1] = c
        return d

    def coincidence(self, a, b):
        queue = [(a, b)]
        while queue:
            a, b = map(self.rep, queue.pop())
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            self.p[b] = a
            for col, e in enumerate(self.table[b]):
                if e == -1:
                    continue
                self.table[b][col] = -1
                u, f = self.rep(a), self.rep(e)
                if self.table[u][col] != -1:
                    queue.append((self.table[u][col], f))
                    continue
                self.table[u][col] = f
                if self.table[f][col ^ 1] != -1:
                    queue.append((self.table[f][col ^ 1], u))
                else:
                    self.table[f][col ^ 1] = u

    def scan_and_fill(self, c, rel):
        i, j = 0, len(rel) - 1
        f = b = c
        while True:
            while i <= j and self.table[f][rel[i]] != -1:
                f = self.rep(self.table[f][rel[i]])
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i and self.table[b][rel[j] ^ 1] != -1:
                b = self.rep(self.table[b][rel[j] ^ 1])
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                self.table[f][rel[i]] = b
                self.table[b][rel[i] ^ 1] = f
                return
            f = self.define(f, rel[i])
            if f == -1:
                return
            i += 1

    def rows_and_status(self):
        c = 0
        while c < len(self.table) and not self.capped:
            if self.rep(c) == c:
                for rel in self.relators:
                    self.scan_and_fill(c, rel)
                    if self.capped or self.rep(c) != c:
                        break
                if not self.capped and self.rep(c) == c:
                    for col in range(self.ncols):
                        if self.table[c][col] == -1 and self.define(c, col) == -1:
                            break
            c += 1
        live = [c for c in range(len(self.table)) if self.rep(c) == c]
        remap = {c: i for i, c in enumerate(live)}
        rows = tuple(
            tuple(remap[self.rep(v)] if v != -1 else -1 for v in self.table[c])
            for c in live
        )
        return rows, "capped" if self.capped else "complete"


def _random_presentation(rng):
    """Generators of order at most 4 and 5, a power of a random word, and
    half the time one more relator."""

    def word():
        return " ".join(
            rng.choice("ab") + rng.choice(["", "", "^-1", "^2"])
            for _ in range(rng.randint(2, 4))
        )

    rels = [f"a^{rng.randint(2, 4)}", f"b^{rng.randint(2, 5)}"]
    rels.append(f"({word()})^{rng.randint(2, 4)}")
    if rng.random() < 0.5:
        rels.append(word())
    return "a, b | " + ", ".join(rels)


# this seed gives eight finite groups (orders 1 to 24), so the default cap
# stays quick; the two infinite presentations above cover the cap itself
_rng = random.Random(17)
EQUIVALENCE_CASES = (
    [f"a | a^{n} = 1" for n in (*range(1, 14), 31, 59, 1000)]
    + [f"a, b | a^2 = 1, b^{n} = 1, a^-1 b a = b^-1" for n in (*range(1, 10), 39, 302)]
    + [
        "r, s | r^2 = 1, s^2 = 1, (r s)^3 = 1",
        "r, s | r^2 = 1, s^2 = 1, (r s)^6 = 1",
        "a, b | a^3 = 1, b^3 = 1, (a b)^3 = 1, (a b^2)^2 = 1",
        "a, b | (a b)^3 = 1, (a b^2)^2 = 1, a^4 = 1",
        "a, b | a^2 = b^3 = (a b)^5 = 1",
        "a | a^2 = 1, a^3 = 1",
        "b | b = b^2",
        # infinite: the enumeration stops at the cap
        "a, b | a^2 = 1",
        "a, b | (a b)^3 = 1",
    ]
    + [
        builtin_presentation(parse_spec(spec)).to_text()
        for spec in ("Q(8)", "Q(32)", "M(3)", "M(5)", "B1(2,3)", "C3Q8", "A(1)")
    ]
    + [_random_presentation(_rng) for _ in range(8)]
)


class TestSkippedScansChangeNothing:
    """A relator w^k is not rescanned where its cycle is already closed;
    the table must be the one the plain HLT gives, complete or, where the
    enumeration raises at the cap, the partial one it leaves behind."""

    @pytest.mark.parametrize("cap", [37, 200, DEFAULT_MAX_COSETS])
    @pytest.mark.parametrize("text", EQUIVALENCE_CASES)
    def test_same_rows_and_status_as_plain_hlt(self, text, cap):
        pres = parse_presentation(text)
        relators = [coset._columns(r) for r in pres.relators if r]
        enum = coset._Enumerator(len(pres.generators), relators, cap)
        try:
            enum.run()
            status = "complete"
        except CapExceeded:
            status = "capped"
        rows = tuple(map(tuple, enum.compressed()))
        assert (rows, status) == _ReferenceHLT(pres, cap).rows_and_status()
