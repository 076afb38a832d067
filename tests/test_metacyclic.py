"""The metacyclic counting path against the lattice oracle.

`lattice.metacyclic_counts` counts <b>.<a>, |b| = Q, a^P = b^t and
a^-1 b a = b^r, from (Q, P, r, t) alone.  Every test here compares its
whole `CountSummary` (order, exponent, s, ps, nps and the per-prime
profile) with `_lattice_counts` on the group's table: on all split groups
of order up to 300 with every twist, on all non-split ones of order up to
64 with every twist and carry, on every metacyclic spec of the extended
sweep and of the bucket instances, and on each metacyclic family at its
smallest parameters.  `counts` reads (Q, P, r, t) off a table: it is
compared with the lattice on renumbered tables of every non-abelian
metacyclic group of order up to 120, on the test zoo and on both corpora.
"""

import random
from pathlib import Path

import pytest

from npscensus.arith import divisors, geometric_sum
from npscensus.core import Group, is_abelian
from npscensus.corpus import load_corpus
from npscensus.families import FAMILIES, _metacyclic, build, metacyclic_of
from npscensus.lattice import (
    _lattice_counts,
    _metacyclic_parameters,
    counts,
    metacyclic_counts,
)
from npscensus.specs import parse_spec
from test_families import _metacyclic_sweep_specs

DATA = Path(__file__).resolve().parent.parent / "data"

# every metacyclic spec of formula_sweep(6, 1200) and of the bucket
# instances with max_n 6, once each
SWEEP = _metacyclic_sweep_specs()
# each family with a metacyclic construction at its smallest parameters,
# and the edge twists: trivial (abelian) and p = q = 2
SMALLEST = [
    "D(2)",
    "D(4)",
    "S(16)",
    "M(4,2)",
    "M(3,3)",
    "G(r=1;p=2,n=1;q=3,m=1)",
    "G(r=-1;p=2,n=1;q=3,m=1)",
    "G(r=-1;p=2,n=3;q=2,m=3)",
    "Gn(1,3)",
    "F(1,7)",
    "B2(1,2)",
    "B2(2,2)",
    "Q(8)",
    "C3Q8",
]


def arithmetic(spec):
    return metacyclic_counts(*metacyclic_of(spec))


def test_geometric_sum():
    for mod in (1, 2, 12, 97):
        for x in range(-3, 14):
            for k in range(40):
                assert geometric_sum(x, k, mod) == sum(x**i for i in range(k)) % mod


def test_every_split_group_up_to_order_300():
    checked, wrong = 0, []
    for Q in range(1, 301):
        for P in range(1, 300 // Q + 1):
            for r in range(Q):
                if pow(r, P, Q) != 1 % Q:
                    continue
                oracle = _lattice_counts(_metacyclic(Q, P, r, 0, "G"), 300)
                if metacyclic_counts(Q, P, r) != oracle:
                    wrong.append((Q, P, r))
                checked += 1
    assert wrong == []
    assert checked == 3548


def test_every_non_split_group_up_to_order_64():
    # a^P = b^t for every carry 0 < t < Q with r t = t mod Q
    checked, wrong = 0, []
    for Q in range(2, 33):
        for P in range(2, 64 // Q + 1):
            for r in range(Q):
                if pow(r, P, Q) != 1:
                    continue
                for t in range(1, Q):
                    if (r - 1) * t % Q:
                        continue
                    oracle = _lattice_counts(_metacyclic(Q, P, r, t, "G"), 64)
                    if metacyclic_counts(Q, P, r, t) != oracle:
                        wrong.append((Q, P, r, t))
                    checked += 1
    assert wrong == []
    assert checked == 1337


def test_sweep_list():
    # the sweep's 74, Q(8)...Q(64) and C3Q8 among them, and 8 bucket
    # instances that the sweep lacks
    assert len(SWEEP) == 82
    assert {"Gn(6,13)", "Q(64)", "C3Q8"} <= set(SWEEP)


@pytest.mark.parametrize("text", SWEEP + SMALLEST)
def test_matches_the_lattice(text):
    spec = parse_spec(text)
    assert arithmetic(spec) == _lattice_counts(build(spec, cap=1200), 1200)


def test_smallest_cover_every_metacyclic_family():
    kinds = {parse_spec(t).kind for t in SMALLEST}
    assert kinds == {kind for kind, fam in FAMILIES.items() if fam.metacyclic}


@pytest.mark.parametrize("n", [1000, 2**20, 997 * 991, 3**12 * 5**4])
def test_dihedral_past_the_cap(n):
    # s(D(2n)) = tau(n) + sigma(n), as in test_lattice.py's lattice counts
    c = arithmetic(parse_spec(f"D({2 * n})"))
    assert c.order == 2 * n
    assert c.s == len(divisors(n)) + sum(divisors(n))


@pytest.mark.parametrize("n", [8, 20, 30])
def test_a_bucket_family_past_the_cap(n):
    # Gn(n,3) is a member of the k = 3 bucket for every n
    assert arithmetic(parse_spec(f"Gn({n},3)")).nps == 3


def test_twist_must_have_order_dividing_p():
    with pytest.raises(ValueError, match="do not extend to a homomorphism"):
        metacyclic_counts(5, 2, 2)


@pytest.mark.parametrize("t", [1, 3])
def test_carry_must_be_fixed_by_the_twist(t):
    with pytest.raises(ValueError, match="do not extend to a homomorphism"):
        metacyclic_counts(4, 2, -1, t)


# groups with no cyclic normal subgroup whose quotient is cyclic: counts
# takes the lattice for them
NOT_METACYCLIC = ["Q(8)xC(2)", "SL23", "Alt(4)", "M(5)", "D(8)xD(8)"]


def _relabelled(G, rng):
    """G with its elements other than the identity renumbered at random:
    the product of sigma(x) and sigma(y) is sigma(x y)."""
    n = G.order
    sigma = [0] + rng.sample(range(1, n), n - 1)
    unsigma = [0] * n
    for x, y in enumerate(sigma):
        unsigma[y] = x
    mul = [None] * n
    for x, row in enumerate(G.mul):
        # row sigma(x) at z is sigma(x * sigma^-1(z))
        mul[sigma[x]] = [sigma[row[y]] for y in unsigma]
    return Group(mul, [sigma[g] for g in G.generators])


class TestCountsRecognizeMetacyclicTables:
    """`counts` reads (Q, P, r, t) off the table of a metacyclic group and
    counts it by `metacyclic_counts`; the lattice stays the oracle."""

    def test_zoo_and_corpora_match_the_lattice(self, zoo):
        groups = list(zoo.values())
        for name in ("bucket_groups.json", "control_groups.json"):
            groups += [e.group(cap=600) for e in load_corpus(DATA / name)]
        checked = 0
        for G in groups:
            if not is_abelian(G):
                assert counts(G) == _lattice_counts(G, 600), G.label
                checked += 1
        assert checked > 100

    def test_every_metacyclic_spec_of_the_zoo_is_recognized(self, zoo):
        for label, G in zoo.items():
            if label != "C7:C6" and metacyclic_of(parse_spec(label)) is not None:
                assert _metacyclic_parameters(G) is not None, label

    def test_relabelled_tables_up_to_order_120(self):
        # every (Q, P, r, t) with a non-abelian group of order at most 120,
        # split and not, its table renumbered at random
        rng = random.Random(22)
        checked = 0
        for Q in range(3, 61):
            for P in range(2, 120 // Q + 1):
                for r in range(2, Q):
                    if pow(r, P, Q) != 1:
                        continue
                    for t in range(Q):
                        if (r - 1) * t % Q:
                            continue
                        G = _relabelled(_metacyclic(Q, P, r, t, "G"), rng)
                        assert _metacyclic_parameters(G) is not None, (Q, P, r, t)
                        assert counts(G) == _lattice_counts(G, 120), (Q, P, r, t)
                        checked += 1
        assert checked == 1404

    @pytest.mark.parametrize("text", NOT_METACYCLIC)
    def test_fall_through_to_the_lattice(self, text):
        G = build(parse_spec(text))
        assert _metacyclic_parameters(G) is None
        assert counts(G) == _lattice_counts(G, 600)
