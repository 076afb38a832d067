"""Group construction and structural operations.

Expected values marked as derived were computed with the independent
oracles defined at the top of this file (naive set closures working on
raw permutations or tables, no shared code with the package internals).
"""

import functools
import random
import sys
import tracemalloc

import pytest

from npscensus.core import (
    CapExceeded,
    Group,
    Morphism,
    Subgroup,
    center,
    conjugation,
    cyclic_group,
    derived_subgroup,
    direct_product,
    element_order,
    element_orders,
    exponent,
    generated_indices,
    generated_subgroup,
    generating_sequence_of_subset,
    group_from_generators,
    is_abelian,
    is_normal_subgroup,
    orbits,
    quotient,
    semidirect_product,
    subgroup_group,
    trivial_group,
)

# permutations used throughout: right-regular generators of Q8 on the
# element list (1, -1, i, -i, j, -j, k, -k)
Q8_GEN_I = (2, 3, 1, 0, 7, 6, 4, 5)
Q8_GEN_J = (4, 5, 6, 7, 1, 0, 3, 2)


def naive_perm_closure(degree, perms):
    """Fixpoint closure of a permutation set under composition; order-free."""

    def compose(p, q):  # right action: apply p, then q
        return tuple(q[p[i]] for i in range(degree))

    ident = tuple(range(degree))
    elems = {ident} | {tuple(p) for p in perms}
    while True:
        new = {compose(a, b) for a in elems for b in elems} - elems
        if not new:
            return elems
        elems |= new


def naive_closure(G, gens):
    """Breadth-first closure from the identity, one element times one
    generator at a time."""
    elems = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = G.mul[x][g]
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return elems


def naive_order(G, x):
    k, y = 1, x
    while y != 0:
        y = G.mul[y][x]
        k += 1
    return k


def naive_subset_closure(G, seed):
    """Close a set of element indices under products, by full rescan."""
    elems = set(seed) | {0}
    while True:
        new = {G.mul[a][b] for a in elems for b in elems} - elems
        if not new:
            return elems
        elems |= new


@pytest.fixture(scope="module")
def s3():
    return group_from_generators(3, [(1, 2, 0), (1, 0, 2)], label="Sym(3)")


@pytest.fixture(scope="module")
def q8():
    return group_from_generators(8, [Q8_GEN_I, Q8_GEN_J], label="Q8")


class TestGroupFromGenerators:
    def test_symmetric_group_order(self, s3):
        assert s3.order == 6

    def test_empty_generators_give_trivial_group(self):
        g = group_from_generators(1, [])
        assert g.order == 1

    def test_q8_order_matches_naive_closure(self, q8):
        oracle = naive_perm_closure(8, [Q8_GEN_I, Q8_GEN_J])
        assert len(oracle) == 8
        assert q8.order == len(oracle)

    def test_identity_is_element_zero(self, q8):
        assert all(q8.mul[0][x] == x for x in range(8))

    def test_cap_enforced(self):
        with pytest.raises(CapExceeded):
            group_from_generators(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], cap=20)

    def test_non_bijective_input_rejected(self):
        with pytest.raises(ValueError):
            group_from_generators(3, [(0, 0, 1)])

    def test_bfs_numbering_deterministic(self, s3):
        again = group_from_generators(3, [(1, 2, 0), (1, 0, 2)])
        assert again.mul == s3.mul
        assert again.generators == s3.generators

    def test_regular_representation_peak_is_one_table(self):
        # the closure's degree-n permutations are as large as the n x n
        # table; they are freed before the table is made, and the table is
        # made row by row, so the peak stays near one table
        n = 300
        cycle = tuple(range(1, n)) + (0,)
        tracemalloc.start()
        try:
            g = group_from_generators(n, [cycle])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = sys.getsizeof(g.mul) + sum(map(sys.getsizeof, g.mul))
        assert g.mul == cyclic_group(n).mul
        assert peak < 1.5 * table


class TestTableAxioms:
    def test_exhaustive_associativity_small(self, s3, q8):
        for g in (s3, q8, cyclic_group(12)):
            n = g.order
            for a in range(n):
                for b in range(n):
                    ab = g.mul[a][b]
                    for c in range(n):
                        assert g.mul[ab][c] == g.mul[a][g.mul[b][c]]

    def test_validate_accepts_good_tables(self, s3, q8):
        s3.validate()
        q8.validate()

    def test_validate_rejects_broken_identity(self):
        with pytest.raises(ValueError, match="element 0 is not a two-sided identity"):
            Group([[1, 0], [0, 1]], [1])

    def test_rejects_identity_broken_in_column_only(self):
        with pytest.raises(ValueError, match="element 0 is not a two-sided identity"):
            Group([[0, 1], [0, 1]], [1])

    def test_rejects_row_without_inverse(self):
        with pytest.raises(ValueError, match="element 2 has no two-sided inverse"):
            Group([[0, 1, 2], [1, 0, 2], [2, 2, 1]], [1, 2])

    def test_rejects_one_sided_inverse(self):
        with pytest.raises(ValueError, match="element 1 has no two-sided inverse"):
            Group([[0, 1, 2], [1, 2, 0], [2, 2, 1]], [1, 2])

    def test_given_inverses_are_checked(self):
        mul = cyclic_group(3).mul
        g = Group._with_inverses(mul, (0, 2, 1), [1], label="C3")
        assert g.inv == Group(mul, [1]).inv
        assert (g.generators, g.label) == ((1,), "C3")
        for bad in ((0, 1, 2), (0, 2, 0), (0, 2, 3), (0, 2)):
            with pytest.raises(ValueError, match="inverse"):
                Group._with_inverses(mul, bad, [1])
        with pytest.raises(ValueError, match="element 0 is not a two-sided identity"):
            Group._with_inverses([[1, 0], [0, 1]], (0, 1), [1])

    def test_zoo_tables_valid(self, zoo):
        for label, g in zoo.items():
            if g.order <= 256:
                g.validate()


class TestElementOrder:
    def test_identity(self, s3):
        assert element_order(s3, 0) == 1

    def test_cyclic_generator(self):
        c6 = cyclic_group(6)
        assert element_order(c6, 1) == 6

    def test_q8_central_involution(self, q8):
        involutions = [x for x in range(1, 8) if naive_order(q8, x) == 2]
        assert len(involutions) == 1
        assert element_order(q8, involutions[0]) == 2

    def test_out_of_range(self, s3):
        with pytest.raises(IndexError):
            element_order(s3, 6)

    def test_orders_match_single_walks(self, zoo):
        for g in zoo.values():
            walks = tuple(element_order(g, x) for x in range(g.order))
            assert element_orders(g) == walks, g.label

    def test_orders_before_and_after_the_lattice(self, zoo):
        # one power walk serves both the orders and the lattice's cyclic
        # subgroups, whichever asks first
        from npscensus.lattice import all_subgroups

        for g in zoo.values():
            naive = tuple(naive_order(g, x) for x in range(g.order))
            first = Group(g.mul, g.generators, label=g.label)
            assert element_orders(first) == naive, g.label
            later = Group(g.mul, g.generators, label=g.label)
            lattice = all_subgroups(later)
            assert element_orders(later) == naive, g.label
            members = [h.members for h in lattice.subgroups]
            assert [h.members for h in all_subgroups(first).subgroups] == members

    def test_orders_divide_exponent_divides_order(self, zoo):
        for g in zoo.values():
            e = exponent(g)
            assert g.order % e == 0
            for o in element_orders(g):
                assert e % o == 0


class TestExponent:
    def test_elementary_abelian(self):
        v4 = direct_product(cyclic_group(2), cyclic_group(2))
        assert exponent(v4) == 2

    def test_q8(self, q8):
        from math import lcm

        assert exponent(q8) == lcm(*[naive_order(q8, x) for x in range(8)]) == 4

    def test_sym3(self, s3):
        assert exponent(s3) == 6


class TestCenterAndDerived:
    def test_center_of_abelian_is_whole(self):
        c12 = cyclic_group(12)
        assert center(c12).size == 12

    def test_derived_subgroup_of_abelian_is_trivial(self):
        for g in (cyclic_group(12), direct_product(cyclic_group(2), cyclic_group(4))):
            assert derived_subgroup(g).size == 1

    def test_sym3_centerless_with_derived_c3(self, s3):
        assert center(s3).size == 1
        naive = naive_subset_closure(
            s3, {s3.commutator(x, y) for x in range(6) for y in range(6)}
        )
        assert len(naive) == 3
        assert derived_subgroup(s3).size == 3

    def test_q8_center_and_derived(self, q8):
        z = center(q8)
        assert z.size == 2
        naive_center = {
            x
            for x in range(8)
            if all(q8.mul[x][y] == q8.mul[y][x] for y in range(8))
        }
        assert set(z.elements()) == naive_center
        assert derived_subgroup(q8) == z

    def test_derived_quotient_abelian(self, zoo):
        for g in zoo.values():
            if g.order > 300:
                continue
            q, _ = quotient(g, derived_subgroup(g))
            assert is_abelian(q)

    def test_derived_matches_all_commutators(self, zoo):
        """G' from the generators' commutators equals the subgroup that all
        |G|^2 commutators generate."""
        for label, g in zoo.items():
            mul, inv = g.mul, g.inv
            comms = {
                mul[mul[mul[inv[x]][inv[y]]][x]][y]
                for x in range(g.order)
                for y in range(g.order)
            }
            naive = naive_subset_closure(g, comms)
            d = derived_subgroup(g)
            assert d.members == sum(1 << x for x in naive), label
            assert d.size == len(naive), label


class TestDirectProduct:
    def test_orders_multiply(self, s3, q8):
        assert direct_product(s3, q8).order == 48

    def test_c2_c2(self):
        v4 = direct_product(cyclic_group(2), cyclic_group(2))
        assert v4.order == 4
        assert exponent(v4) == 2

    def test_cap(self, q8):
        with pytest.raises(CapExceeded):
            direct_product(q8, q8, cap=60)


class TestSemidirectProduct:
    def test_trivial_action_matches_direct_product(self):
        c3, c4 = cyclic_group(3), cyclic_group(4)
        sd = semidirect_product(c3, c4, [(0, 1, 2)])
        dp = direct_product(c3, c4)
        assert sd.order == dp.order == 12
        # identical tables under the same (n, k) pair encoding
        assert sd.mul == dp.mul

    def test_inversion_gives_sym3(self, s3):
        g = semidirect_product(cyclic_group(3), cyclic_group(2), [(0, 2, 1)])
        assert g.order == 6
        assert not is_abelian(g)
        assert sorted(element_orders(g)) == sorted(element_orders(s3))

    def test_holomorph_c7(self):
        g = semidirect_product(
            cyclic_group(7), cyclic_group(6), [tuple(3 * i % 7 for i in range(7))]
        )
        assert g.order == 42
        assert center(g).size == 1

    def test_rejects_non_automorphism(self):
        with pytest.raises(ValueError, match="action entry is not an automorphism of N"):
            semidirect_product(cyclic_group(4), cyclic_group(2), [(0, 2, 1, 3)])

    def test_rejects_non_permutation_action(self):
        with pytest.raises(ValueError, match="action entry is not a permutation of N"):
            semidirect_product(cyclic_group(4), cyclic_group(2), [(0, 1, 1, 3)])

    def test_rejects_non_homomorphic_assignment(self):
        # inversion has order 2, not a valid image of a C3 generator
        with pytest.raises(
            ValueError,
            match="generator images do not extend to a homomorphism K -> Aut",
        ):
            semidirect_product(cyclic_group(3), cyclic_group(3), [(0, 2, 1)])

    def test_rejects_generator_image_of_wrong_order(self):
        # multiplication by 2 has order 4 mod 5, not a valid image of a C2
        # generator
        with pytest.raises(
            ValueError,
            match="generator images do not extend to a homomorphism K -> Aut",
        ):
            semidirect_product(cyclic_group(5), cyclic_group(2), [(0, 2, 4, 1, 3)])

    def test_two_generators_checked_one_by_one(self):
        v4 = direct_product(cyclic_group(2), cyclic_group(2))
        c5 = cyclic_group(5)
        inversion, ident = (0, 4, 3, 2, 1), tuple(range(5))
        assert_same_table(
            semidirect_product(c5, v4, [inversion, ident]),
            ref_semidirect_product(c5, v4, [inversion, ident]),
        )
        with pytest.raises(
            ValueError,
            match="generator images do not extend to a homomorphism K -> Aut",
        ):
            semidirect_product(c5, v4, [inversion, (0, 2, 4, 1, 3)])

    def test_conjugation_convention(self):
        # in C7 x| C6 with action i -> 3i: k^-1 n k = act(k^-1)(n)
        c7, c6 = cyclic_group(7), cyclic_group(6)
        act = tuple(3 * i % 7 for i in range(7))
        g = semidirect_product(c7, c6, [act])
        n = 1 * 6 + 0  # (b, 0) with b the C7 generator
        k = 0 * 6 + 1  # (0, a) with a the C6 generator
        conj = g.mul[g.mul[g.inv[k]][n]][k]
        # act(k^-1) = act(k)^-1: 3i inverted is 5i (3*5 = 15 = 1 mod 7)
        assert conj == (5 * 1 % 7) * 6 + 0


class TestQuotient:
    def test_quotient_by_whole_group(self, q8):
        whole = generated_subgroup(q8, range(8))
        q, _ = quotient(q8, whole)
        assert q.order == 1

    def test_q8_mod_center_is_klein(self, q8):
        q, proj = quotient(q8, center(q8))
        assert q.order == 4
        assert exponent(q) == 2  # order 4 + exponent 2 forces C2 x C2
        proj.validate()

    def test_projection_is_morphism(self, s3):
        q, proj = quotient(s3, derived_subgroup(s3))
        assert isinstance(proj, Morphism)
        proj.validate()
        assert q.order == 2

    def test_morphism_validate_rejects_non_homomorphism(self, s3):
        bad = Morphism(s3, cyclic_group(2), tuple(x % 2 for x in range(6)))
        with pytest.raises(ValueError, match="homomorphism"):
            bad.validate()

    def test_sl23_mod_center_is_alt4(self):
        from npscensus.families import build
        from npscensus.isomorphism import are_isomorphic
        from npscensus.lattice import counts
        from npscensus.specs import parse_spec

        sl = build(parse_spec("SL23"))
        q, _ = quotient(sl, center(sl))
        assert q.order == 12
        assert counts(q).nps == 7
        assert are_isomorphic(q, build(parse_spec("Alt(4)")))

    def test_non_normal_rejected(self, s3):
        h = generated_subgroup(s3, [s3.generators[1]])  # a transposition
        assert h.size == 2
        assert not is_normal_subgroup(s3, h)
        with pytest.raises(ValueError, match="normal"):
            quotient(s3, h)


def subgroup_from_members(G, members):
    """The subgroup with these members, after checking that they hold the
    identity and are closed under inverses and products."""
    if not members & 1:
        raise ValueError("subgroup must contain the identity")
    elems = [x for x in range(G.order) if members >> x & 1]
    for x in elems:
        if not members >> G.inv[x] & 1:
            raise ValueError("set is not closed under inverses")
        if any(not members >> G.mul[x][y] & 1 for y in elems):
            raise ValueError("set is not closed under multiplication")
    return Subgroup(G, members, len(elems))


class TestSubgroups:
    def test_generated_subgroup_lagrange(self, q8):
        for x in range(8):
            sub = generated_subgroup(q8, [x])
            assert q8.order % sub.size == 0

    def test_subgroup_from_members_validates(self, s3, q8):
        with pytest.raises(ValueError):
            subgroup_from_members(s3, 0b000110)  # two transpositions, not closed
        for x in range(8):
            sub = generated_subgroup(q8, [x])
            assert subgroup_from_members(q8, sub.members) == sub

    def test_subgroup_group_reindexes(self, q8):
        z = center(q8)
        zg = subgroup_group(q8, z)
        assert zg.order == 2
        zg.validate()

    def test_subgroup_contains_identity(self, zoo):
        for g in zoo.values():
            sub = generated_subgroup(g, g.generators[:1])
            assert 0 in sub
            assert isinstance(sub, Subgroup)


class TestGeneratedIndices:
    """The coset closure against a breadth-first closure.  C(1) and C(2)
    are in the set because a closure over the trivial subgroup picks
    cosets of one element, where itemgetter returns a bare entry."""

    @staticmethod
    def check(G, gens):
        elems = generated_indices(G, gens)
        assert elems[0] == 0
        assert len(elems) == len(set(elems))
        assert set(elems) == naive_closure(G, gens)
        assert generated_subgroup(G, gens).members == sum(1 << x for x in elems)

    def test_every_zoo_group(self, zoo):
        rng = random.Random(5)
        for G in [cyclic_group(1), cyclic_group(2), *zoo.values()]:
            for x in range(G.order):
                self.check(G, [x])
            self.check(G, G.generators)
            for _ in range(3):
                size = rng.randint(1, min(4, G.order))
                self.check(G, rng.sample(range(G.order), size))

    def test_repeated_and_identity_generators(self, q8):
        self.check(q8, [0, 2, 2, 0, 4, 2])
        assert generated_indices(q8, []) == [0]
        assert generated_indices(q8, [0, 0]) == [0]


def test_trivial_group():
    t = trivial_group()
    assert t.order == 1
    assert exponent(t) == 1


# ---------------------------------------------------------------------------
# Table kernels against the per-cell loops they replaced.  The reference
# copies below fill every cell with its own Python step; the kernels must
# give the same numbering, inverses and generators.


class RefGroup:
    """Per-cell Group constructor: identity and inverses checked cell by cell."""

    def __init__(self, mul, generators, label=None):
        n = len(mul)
        self.order = n
        self.mul = tuple(tuple(row) for row in mul)
        for x in range(n):
            if self.mul[0][x] != x or self.mul[x][0] != x:
                raise ValueError("element 0 is not a two-sided identity")
        inv = [-1] * n
        for x in range(n):
            row = self.mul[x]
            for y in range(n):
                if row[y] == 0:
                    inv[x] = y
                    break
            if inv[x] < 0 or self.mul[inv[x]][x] != 0:
                raise ValueError(f"element {x} has no two-sided inverse")
        self.inv = tuple(inv)
        gens = []
        for g in generators:
            if g not in gens:
                gens.append(g)
        self.generators = tuple(gens)
        self.label = label


def ref_cyclic_group(n, label=None):
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    return RefGroup(mul, [1] if n > 1 else [], label=label or f"C{n}")


def ref_direct_product(G, H, cap=None, label=None):
    n1, n2 = G.order, H.order
    gm, hm = G.mul, H.mul
    n = n1 * n2
    mul = [[0] * n for _ in range(n)]
    for a1 in range(n1):
        for b1 in range(n2):
            row = mul[a1 * n2 + b1]
            for a2 in range(n1):
                for b2 in range(n2):
                    row[a2 * n2 + b2] = gm[a1][a2] * n2 + hm[b1][b2]
    gens = [g * n2 for g in G.generators] + list(H.generators)
    return RefGroup(mul, gens, label=label)


def ref_semidirect_product(N, K, action, cap=None, label=None):
    nn, nk = N.order, K.order
    gen_auts = []
    for t in map(tuple, action):
        if any(t[N.mul[a][b]] != N.mul[t[a]][t[b]] for a in range(nn) for b in range(nn)):
            raise ValueError("action entry is not an automorphism of N")
        gen_auts.append(t)
    auts = [None] * nk
    auts[0] = tuple(range(nn))
    queue = [0]
    for k in queue:
        for gi, g in enumerate(K.generators):
            y = K.mul[k][g]
            if auts[y] is None:
                auts[y] = tuple(auts[k][gen_auts[gi][i]] for i in range(nn))
                queue.append(y)
    for k1 in range(nk):
        for k2 in range(nk):
            a12 = auts[K.mul[k1][k2]]
            if any(a12[i] != auts[k1][auts[k2][i]] for i in range(nn)):
                raise ValueError("generator images do not extend to a homomorphism")
    n = nn * nk
    mul = [[0] * n for _ in range(n)]
    for n1 in range(nn):
        for k1 in range(nk):
            row = mul[n1 * nk + k1]
            for n2 in range(nn):
                for k2 in range(nk):
                    row[n2 * nk + k2] = N.mul[n1][auts[k1][n2]] * nk + K.mul[k1][k2]
    gens = [g * nk for g in N.generators] + list(K.generators)
    return RefGroup(mul, gens, label=label)


def ref_group_from_coset_table(table, label=None):
    n = table.num_cosets
    rows = table.rows
    parent, colof, seen, queue = [0] * n, [-1] * n, [False] * n, [0]
    seen[0] = True
    for c in queue:
        for col in range(2 * table.num_generators):
            d = rows[c][col]
            if not seen[d]:
                seen[d] = True
                parent[d], colof[d] = c, col
                queue.append(d)
    mul = [[0] * n for _ in range(n)]
    for x in range(n):
        mrow = mul[x]
        mrow[0] = x
        for c in queue[1:]:
            mrow[c] = rows[mrow[parent[c]]][colof[c]]
    gens = [rows[0][2 * i] for i in range(table.num_generators)]
    return RefGroup(mul, list(dict.fromkeys(g for g in gens if g != 0)), label=label)


def ref_group_from_generators(degree, perms, cap=None, label=None):
    gens = [tuple(p) for p in perms]
    ident = tuple(range(degree))
    index, elems, parent, genpos = {ident: 0}, [ident], [0], [-1]
    gen_cols = [[] for _ in gens]
    for i, x in enumerate(elems):
        for gi, p in enumerate(gens):
            y = tuple(p[v] for v in x)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
                parent.append(i)
                genpos.append(gi)
            gen_cols[gi].append(index[y])
    n = len(elems)
    mul = [[0] * n for _ in range(n)]
    for x in range(n):
        mrow = mul[x]
        mrow[0] = x
        for i in range(1, n):
            mrow[i] = gen_cols[genpos[i]][mrow[parent[i]]]
    return RefGroup(mul, [gen_cols[gi][0] for gi in range(len(gens))], label=label)


def ref_quotient(G, N, label=None):
    n, mul = G.order, G.mul
    nelems = [x for x in range(n) if N.members >> x & 1]
    coset_of, reps = [-1] * n, []
    for x in range(n):
        if coset_of[x] < 0:
            for s in nelems:
                coset_of[mul[s][x]] = len(reps)
            reps.append(x)
    q = len(reps)
    qmul = [[coset_of[mul[reps[i]][reps[j]]] for j in range(q)] for i in range(q)]
    qgens = [coset_of[g] for g in G.generators if coset_of[g] != 0]
    return RefGroup(qmul, list(dict.fromkeys(qgens)), label=label)


def ref_subgroup_group(G, H, label=None):
    elems = [x for x in range(G.order) if H.members >> x & 1]
    index = {e: i for i, e in enumerate(elems)}
    mul = [[index[G.mul[a][b]] for b in elems] for a in elems]
    gens = [index[g] for g in generating_sequence_of_subset(G, elems)]
    return RefGroup(mul, gens, label=label)


def ref_metacyclic(P, Q, r, t, label=None):
    """b^v a^k as v * P + k with a^-1 b a = b^r and a^P = b^t, cell by
    cell: b^v1 a^k1 b^v2 a^k2 = b^(v1 + r^-k1 v2 + c) a^((k1 + k2) mod P),
    c = t when k1 + k2 >= P, else 0."""
    n = P * Q
    mul = [[0] * n for _ in range(n)]
    for v1 in range(Q):
        for k1 in range(P):
            s = pow(r, -k1, Q)
            for v2 in range(Q):
                for k2 in range(P):
                    c = t if k1 + k2 >= P else 0
                    v = (v1 + s * v2 + c) % Q
                    mul[v1 * P + k1][v2 * P + k2] = v * P + (k1 + k2) % P
    gens = ([P] if Q > 1 else []) + ([1] if P > 1 else [])
    return RefGroup(mul, gens, label=label)


def assert_same_table(new, ref):
    assert all(type(row) is tuple for row in new.mul)
    assert new.mul == ref.mul
    assert new.inv == ref.inv
    assert new.generators == ref.generators


class TestKernelsMatchPerCellLoops:
    @pytest.mark.parametrize("n", [*range(1, 65), 600])
    def test_cyclic_group(self, n):
        # C(n) is the metacyclic table (n, 1, 1, 0)
        new = cyclic_group(n)
        assert_same_table(new, ref_cyclic_group(n))
        assert new.label == f"C{n}"

    def test_trivial_factors(self):
        c1, c3 = cyclic_group(1), cyclic_group(3)
        r1, r3 = ref_cyclic_group(1), ref_cyclic_group(3)
        assert_same_table(direct_product(c1, c3), ref_direct_product(r1, r3))
        assert_same_table(direct_product(c3, c1), ref_direct_product(r3, r1))
        assert_same_table(
            semidirect_product(c1, c3, [(0,)]), ref_semidirect_product(r1, r3, [(0,)])
        )
        inversion = [(0, 2, 1)]
        assert_same_table(
            semidirect_product(c3, cyclic_group(2), inversion),
            ref_semidirect_product(r3, ref_cyclic_group(2), inversion),
        )

    @pytest.mark.parametrize(
        "text",
        ["D(8)xD(8)", "Q(8)xC(2)xC(2)", "A(2)", "X(2,5)", "M(3)", "B1(2,3)"],
    )
    def test_products(self, text, monkeypatch):
        from npscensus import families
        from npscensus.specs import parse_spec

        def ref_product(factors, cap, label):
            # the factors' product by the per-cell loop, left to right
            groups = [families.build(f, cap, check=False) for f in factors]
            return functools.reduce(ref_direct_product, groups)

        spec = parse_spec(text)
        new = families.build(spec)
        monkeypatch.setattr(families, "cyclic_group", ref_cyclic_group)
        monkeypatch.setattr(families, "direct_product", ref_direct_product)
        monkeypatch.setattr(families, "_direct_product", ref_product)
        monkeypatch.setattr(families, "semidirect_product", ref_semidirect_product)
        ref = families.build(spec)
        assert isinstance(ref, RefGroup)
        assert_same_table(new, ref)
        assert new.label == text

    @pytest.mark.parametrize(
        "text",
        [
            "D(2)",
            "D(12)",
            "S(32)",
            "M(4,3)",
            "G(r=1;p=2,n=2;q=3,m=1)",
            "G(r=4;p=3,n=2;q=3,m=2)",
            "Gn(3,5)",
            "Gn(3,9)",
            "F(2,7)",
            "B2(2,3)",
        ],
    )
    def test_metacyclic(self, text):
        # one spec per metacyclic family, a trivial twist and a prime-power
        # C_{q^m} among them: the column-built table against the per-cell
        # semidirect product of the two cyclic groups
        from npscensus.families import build, metacyclic_of
        from npscensus.specs import parse_spec

        spec = parse_spec(text)
        Q, P, r, t = metacyclic_of(spec)
        assert t == 0
        action = tuple(pow(r, -1, Q) * i % Q for i in range(Q))
        new = build(spec)
        ref = ref_semidirect_product(ref_cyclic_group(Q), ref_cyclic_group(P), [action])
        assert_same_table(new, ref)
        assert new.label == text

    @pytest.mark.parametrize("text", ["Q(8)", "Q(16)", "Q(128)"])
    def test_quaternion(self, text):
        # the non-split case of the column-built table, a^2 = b^(Q/2), against
        # the per-cell product of b^v a^k
        from npscensus.families import build
        from npscensus.specs import parse_spec

        new = build(parse_spec(text))
        assert_same_table(new, ref_metacyclic(2, new.order // 2, -1, new.order // 4))
        assert new.label == text

    def test_c3q8(self):
        # C3 x| Q8 is the non-split C12.C2 with a^2 = b^6, a^-1 b a = b^-1
        from npscensus.families import build
        from npscensus.specs import parse_spec

        new = build(parse_spec("C3Q8"))
        assert_same_table(new, ref_metacyclic(2, 12, -1, 6))
        assert new.label == "C3Q8"

    def test_carried_metacyclic(self):
        # every valid (Q, P, r, t) of order at most 48, split and not, with
        # Q = 1 (the cyclic C_P) and P = 1 (C_Q, with a = b^t) among them:
        # r^P = 1 and r * t = t mod Q
        from npscensus.core import metacyclic_group

        checked = 0
        for Q in range(1, 49):
            for P in range(1, 48 // Q + 1):
                for r in range(Q):
                    if pow(r, P, Q) != 1 % Q:
                        continue
                    for t in range(Q):
                        if (r - 1) * t % Q:
                            continue
                        new = metacyclic_group(Q, P, r, t, "x")
                        assert_same_table(new, ref_metacyclic(P, Q, r, t))
                        assert new.label == "x"
                        checked += 1
        assert checked == 2145

    @pytest.mark.parametrize("text", ["Q(32)", "M(5)", "B1(2,3)"])
    def test_group_from_coset_table(self, text):
        from npscensus.coset import enumerate_cosets, group_from_coset_table
        from npscensus.families import builtin_presentation
        from npscensus.specs import parse_spec

        table = enumerate_cosets(builtin_presentation(parse_spec(text)))
        assert_same_table(
            group_from_coset_table(table), ref_group_from_coset_table(table)
        )

    def test_group_from_generators(self):
        for degree, perms in (
            (8, [Q8_GEN_I, Q8_GEN_J]),
            (5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]),
        ):
            assert_same_table(
                group_from_generators(degree, perms),
                ref_group_from_generators(degree, perms),
            )

    def test_quotient_and_subgroup_group(self, zoo):
        # by the centre, the derived subgroup and, in the smaller groups,
        # every normal subgroup; each generator's cyclic subgroup besides
        from npscensus.lattice import all_subgroups

        for G in zoo.values():
            normal = [center(G), derived_subgroup(G)]
            if G.order <= 64:
                lat = all_subgroups(G)
                normal += [h for h, n in zip(lat.subgroups, lat.normal_flags) if n]
            for N in normal:
                assert_same_table(quotient(G, N)[0], ref_quotient(G, N))
            for H in normal + [generated_subgroup(G, [g]) for g in G.generators]:
                assert_same_table(subgroup_group(G, H), ref_subgroup_group(G, H))

    def test_inverses_are_the_identity_in_each_row(self, zoo):
        for G in zoo.values():
            assert G.inv == tuple(row.index(0) for row in G.mul), G.label


def _natural_sym(n):
    """Sym(n) on its n points: an n-cycle and a transposition."""
    if n == 1:
        return []
    return [tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n))]


# permutation groups, most of them not regular on their points, with the number
# of closures group_from_generators makes: 1 when the base images already
# tell the elements apart, 2 when it closes again on all points
PERMUTATION_GROUPS = [
    ("Sym(3)", 3, _natural_sym(3), 2),
    ("Sym(5)", 5, _natural_sym(5), 2),
    ("Sym(4)", 4, _natural_sym(4), 2),
    # C7 x| C6, x -> x + 1 and x -> 3x
    ("C7:C6", 7, [tuple((x + 1) % 7 for x in range(7)), tuple(3 * x % 7 for x in range(7))], 2),
    # Sym(3) on 0..2 and a 4-cycle on 3..6 in one generator, two fixed points
    ("intransitive", 9, [(1, 2, 0, 4, 5, 6, 3, 7, 8), (1, 0, 2, 3, 4, 5, 6, 7, 8)], 2),
    # C2 x C3 on two orbits: one base point of each tells the elements apart
    ("C2xC3", 5, [(1, 0, 3, 4, 2)], 1),
    # the Klein group on 4 points, regular, and beside two fixed points
    ("V4", 6, [(1, 0, 3, 2, 4, 5), (2, 3, 0, 1, 4, 5)], 1),
    ("identity", 4, [(0, 1, 2, 3)], 1),
    ("trivial", 3, [], 1),
]


class TestBaseKeyedClosure:
    """group_from_generators closes on the images of one point per orbit,
    and on all points when those do not tell the elements apart; the table
    is the all-points closure's either way."""

    @pytest.mark.parametrize("name, degree, perms, closures", PERMUTATION_GROUPS)
    def test_matches_the_all_points_closure(self, name, degree, perms, closures, monkeypatch):
        from npscensus import core

        keys = []
        real = core._closure

        def counted(gens, points, cap):
            keys.append(list(points))
            return real(gens, points, cap)

        monkeypatch.setattr(core, "_closure", counted)
        assert_same_table(
            group_from_generators(degree, perms), ref_group_from_generators(degree, perms)
        )
        assert len(keys) == closures
        if closures == 2:
            assert keys[1] == list(range(degree))

    def test_corpora_and_regular_representations(self, monkeypatch):
        from pathlib import Path

        from npscensus import core
        from npscensus.corpus import load_corpus, regular_representation
        from npscensus.families import build
        from npscensus.specs import parse_spec

        data = Path(__file__).resolve().parent.parent / "data"
        for name in ("bucket_groups.json", "control_groups.json"):
            for e in load_corpus(data / name):
                assert_same_table(
                    group_from_generators(e.degree, e.generators),
                    ref_group_from_generators(e.degree, e.generators),
                )
        calls = []
        real = core._closure
        monkeypatch.setattr(core, "_closure", lambda *args: calls.append(1) or real(*args))
        for text in ("D(600)", "Q(256)", "Sym(5)", "D(8)xD(8)xC(2)"):
            G = build(parse_spec(text))
            perms = regular_representation(G)
            calls.clear()
            assert_same_table(
                group_from_generators(G.order, perms), ref_group_from_generators(G.order, perms)
            )
            # one orbit, and its smallest point tells the elements apart
            assert len(calls) == 1, text

    def test_random_permutation_groups(self):
        rng = random.Random(7)
        for _ in range(300):
            degree = rng.randint(1, 5)
            perms = [rng.sample(range(degree), degree) for _ in range(rng.randint(0, 3))]
            assert_same_table(
                group_from_generators(degree, perms), ref_group_from_generators(degree, perms)
            )


def union_find_orbits(n, maps):
    """The orbits as the classes of x ~ p[x] under union-find, each sorted,
    in the order of their smallest points."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for p in maps:
        for x in range(n):
            a, b = find(x), find(p[x])
            if a != b:
                root[max(a, b)] = min(a, b)
    classes = {}
    for x in range(n):
        classes.setdefault(find(x), []).append(x)
    return [classes[r] for r in sorted(classes)]


def block_permutation(rng, blocks):
    """A random permutation that maps each block to itself."""
    image = {}
    for block in blocks:
        image.update(zip(block, rng.sample(block, len(block))))
    return [image[x] for x in range(len(image))]


class TestOrbits:
    """`orbits` against a union-find that shares no code with it."""

    def check(self, n, maps):
        got = orbits(n, maps)
        assert [sorted(o) for o in got] == union_find_orbits(n, maps)
        # each orbit starts at its smallest point, and lists no point twice
        assert all(o[0] == min(o) and len(set(o)) == len(o) for o in got)

    def test_random_maps(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(1, 12)
            maps = [rng.sample(range(n), n) for _ in range(rng.randint(1, 3))]
            self.check(n, maps)

    def test_intransitive_maps(self):
        rng = random.Random(12)
        for _ in range(300):
            n = rng.randint(1, 15)
            points = rng.sample(range(n), n)
            cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1))) if n > 1 else []
            blocks = [points[a:b] for a, b in zip([0] + cuts, cuts + [n])]
            maps = [block_permutation(rng, blocks) for _ in range(rng.randint(1, 3))]
            self.check(n, maps)
            # every orbit lies in one block
            block_of = {x: i for i, block in enumerate(blocks) for x in block}
            assert all(len({block_of[x] for x in o}) == 1 for o in orbits(n, maps))

    def test_identity_and_no_maps(self):
        for n in (1, 2, 7):
            singletons = [[x] for x in range(n)]
            assert orbits(n, [list(range(n))]) == singletons
            assert orbits(n, [list(range(n)), tuple(range(n))]) == singletons
            assert orbits(n, []) == singletons
        assert orbits(0, []) == []

    def test_cycle_is_walked_from_its_smallest_point(self):
        assert orbits(5, [(2, 0, 4, 3, 1)]) == [[0, 2, 4, 1], [3]]


def test_conjugation_matches_conjugate(zoo):
    rng = random.Random(13)
    for label, G in zoo.items():
        picks = set(G.generators) | {0} | set(rng.sample(range(G.order), min(G.order, 4)))
        for g in picks:
            conj = conjugation(G, g)
            assert len(conj) == G.order, label
            assert all(conj[x] == G.conjugate(x, g) for x in range(G.order)), (label, g)
    assert conjugation(trivial_group(), 0) == (0,)
