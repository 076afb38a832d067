"""The metacyclic counting path against the lattice oracle.

`lattice.metacyclic_counts` counts <b>.<a>, |b| = Q, a^P = b^t and
a^-1 b a = b^r, from (Q, P, r, t) alone.  Every test here compares its
whole `CountSummary` (order, exponent, s, ps, nps and the per-prime
profile) with `_lattice_counts` on the group's table: on all split groups
of order up to 300 with every twist, on all non-split ones of order up to
64 with every twist and carry, on every metacyclic spec of the extended
sweep and of the bucket instances, and on each metacyclic family at its
smallest parameters.
"""

import pytest

from npscensus.arith import divisors, geometric_sum
from npscensus.families import FAMILIES, _metacyclic, build, metacyclic_of
from npscensus.lattice import _lattice_counts, metacyclic_counts
from npscensus.specs import parse_spec
from test_families import _metacyclic_sweep_specs

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
