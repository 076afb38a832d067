"""Machine-readable catalogs of expected nonpower-subgroup counts.

Two catalogs live here:

  * `expected_nps(spec)` gives the known count (or lower bound) for a
    family instance, together with how trustworthy it is:
      - "exact": must equal brute-force enumeration;
      - "lower_bound": enumeration must be >= the value;
      - "from_formula_under_review": the printed closed form for
        C_{p^a} x C_{p^b} disagrees with enumeration on small cases (and
        is not always an integer); enumeration is authoritative and
        reports show both values.
  * `theorem_catalog(k)` transcribes the classification lists for
    k = 0..13: which groups have exactly k nonpower subgroups.

`expected_nps` tries its rules in this order: a rank-2 cyclic pair
C_{p^a} x C_{p^b} is under review; then come the statements about
products whose factors share a prime (X_n,p = D_2p x C3^n, and the
`_TIMES_CYCLIC` rows for head x C(c)^t); then the family counts, with
coprime composition for a product (`_family_counts`).

For coprime direct products A x B the counts compose:
ps(AxB) = ps(A) ps(B) and nps(AxB) = nps(A) s(B) + ps(A) nps(B).

The CLI counts the computed side of a check with no table for a
metacyclic spec (from its parameters) and a spec of cyclic factors (from
their orders), by Goursat's lemma from the lattice of A for any other
A x C(n), and by `lattice.counts` on the built group for every other spec.
Every path counts an abelian group from its type by Birkhoff's formula
(`arith.subgroup_count_abelian`).  The full lattice stays the oracle for
every other group and in the tests, which compare each path with it.  The
abelian values here come from their own formulas
(`arith.subgroup_count_rank2`, `arith.subgroup_count_elementary_abelian`),
not from Birkhoff's, so an abelian row checks one formula against another.
"""

from __future__ import annotations

from functools import cache, reduce
from math import gcd
from typing import TYPE_CHECKING, Iterator

from .arith import (
    divisors,
    factorize,
    is_prime,
    multiplicative_order,
    p_valuation,
    prime_power,
    subgroup_count_elementary_abelian,
    subgroup_count_rank2,
)
from .core import DEFAULT_ORDER_CAP, Record
from .families import (
    AFAMILY,
    ALT,
    B1,
    B2,
    C3Q8,
    CYCLIC,
    DIHEDRAL,
    EXTRASPECIAL,
    FFAMILY,
    GENERAL,
    GSHORT,
    MODULAR,
    PRODUCT,
    QUATERNION,
    SEMIDIHEDRAL,
    SL23,
    SYM,
    XFAMILY,
    FamilySpec,
    UnknownFamilyError,
    check_valid,
    cyclic_spec,
    expected_order,
    metacyclic_of,
    product_spec,
)
from .specs import parse_spec

if TYPE_CHECKING:
    from fractions import Fraction

EXACT = "exact"
LOWER_BOUND = "lower_bound"
UNDER_REVIEW = "from_formula_under_review"


class ExpectedNps(Record):
    """Catalog value for nps of a family instance.

    `value` is an int for exact/lower-bound entries; under-review entries
    carry the printed formula's value, which can be a non-integral
    Fraction.
    """

    kind: str
    value: int | Fraction
    source: str


class _Counts(Record):
    """(s, ps, nps) triple used for coprime composition."""

    s: int
    ps: int
    nps: int


def printed_rank2_formula(p: int, n1: int, n2: int) -> Fraction:
    """The printed closed form for nps(C_{p^n1} x C_{p^n2}), n1 <= n2,
    evaluated literally.  Known to disagree with enumeration, which it
    matches once the coefficient of p is (n2 - n1 - 1) where the paper
    prints (n2 - n1 + 1), and the constant is n1 where it prints n2."""
    from fractions import Fraction  # only the rank-2 rows need it

    num = (
        (n2 - n1 + 1) * p ** (n1 + 2)
        - (n2 - n1 - 1) * p ** (n1 + 1)
        - (n2 + 1) * p**2
        + (n2 - n1 + 1) * p
        + n2
    )
    return Fraction(num, (p - 1) ** 2)


def abelian_rank2_counts(p: int, n1: int, n2: int) -> _Counts:
    """Reference counts for C_{p^n1} x C_{p^n2} from the divisor-sum
    subgroup total and the power-subgroup chain G >= G^p >= ... >= 1.
    Kept on `arith.subgroup_count_rank2`, not on the general abelian count
    that `lattice.counts` uses, so that verify-formulas checks one formula
    against another, not against itself."""
    s = subgroup_count_rank2(p, min(n1, n2), max(n1, n2))
    ps = max(n1, n2) + 1
    return _Counts(s=s, ps=ps, nps=s - ps)


def _cyclic_counts(n: int) -> _Counts:
    d = len(divisors(n))
    return _Counts(s=d, ps=d, nps=0)


def _compose_coprime(a: _Counts, b: _Counts) -> _Counts:
    return _Counts(
        s=a.s * b.s,
        ps=a.ps * b.ps,
        nps=a.nps * b.s + a.ps * b.nps,
    )


def _metacyclic_counts(p: int, n: int, q: int, m: int, r: int) -> _Counts | None:
    """Counts for the two-generator metacyclic group C_{q^m} x| C_{p^n}.

    For p != q: nps = k q (q^m - 1)/(q - 1) where p^k is the order of the
    twist mod q^m; the power subgroups are the n chains of full q-part
    plus (n - k + 1) m partial ones plus the Sylow q-subgroup.
    For p == q odd the group shares its counts with C_{p^n} x C_{p^m}.
    """
    qm = q**m
    rr = r % qm
    if rr == 1:
        # abelian: C_{p^n} x C_{q^m}
        if p == q:
            return abelian_rank2_counts(p, n, m)
        return _cyclic_counts(p**n * qm)
    if p == q:
        if p == 2:
            return None  # counts differ from the abelian model at p = 2
        return abelian_rank2_counts(p, n, m)
    ordr = multiplicative_order(rr, qm)
    k = p_valuation(ordr, p)
    nps = k * q * (qm - 1) // (q - 1)
    ps = n + (n - k + 1) * m + 1
    return _Counts(s=nps + ps, ps=ps, nps=nps)


def _with_ps(nps: int, ps: int, source: str) -> tuple[_Counts, str]:
    return _Counts(nps + ps, ps, nps), source


def _dihedral_counts(spec: FamilySpec) -> tuple[_Counts, str] | None:
    """D_2^n for n >= 3, and D_2q^m for an odd prime q."""
    half = spec.params[0] // 2
    fact = factorize(half)
    if len(fact) != 1:
        return None
    ((q, m),) = fact.items()
    if q > 2:
        return _metacyclic_counts(2, 1, q, m, half - 1), "nps(D_2q^m) = q(q^m - 1)/(q - 1)"
    if m >= 2:
        return _with_ps(2 * half - 1, m + 1, "nps(D_2^n) = 2^n - 1")
    return None


def _quaternion_counts(spec: FamilySpec) -> tuple[_Counts, str]:
    n = p_valuation(spec.params[0], 2)
    return _with_ps(2 ** (n - 1) - 1, n, "nps(Q_2^n) = 2^(n-1) - 1")


def _semidihedral_counts(spec: FamilySpec) -> tuple[_Counts, str]:
    n = p_valuation(spec.params[0], 2)
    return _with_ps(3 * 2 ** (n - 2) - 1, n, "nps(S_2^n) = 3*2^(n-2) - 1")


def _modular_counts(spec: FamilySpec) -> tuple[_Counts, str]:
    n, q = spec.params
    return _with_ps(q * (n - 1) + 1, n, "nps(M_n,p) = p(n-1) + 1")


def _extraspecial_counts(spec: FamilySpec) -> tuple[_Counts, str]:
    q = spec.params[0]
    return _with_ps(q * q + 2 * q + 2, 2, "nps(M(p)) = p^2 + 2p + 2")


def _twisted(spec: FamilySpec) -> _Counts | None:
    """Counts from the (p, n, q, m, r) of a split family's (q^m, p^n, r, 0)."""
    Q, P, r, _ = metacyclic_of(spec)  # type: ignore[misc]
    return _metacyclic_counts(*prime_power(P), *prime_power(Q), r)  # type: ignore[misc]


def _general_counts(spec: FamilySpec) -> tuple[_Counts, str] | None:
    mc = _twisted(spec)
    if mc is None:
        return None
    if spec.params[0] == spec.params[2]:
        return mc, "nps matches C_{p^n} x C_{p^m} for odd p"
    return mc, "nps = k q (q^m - 1)/(q - 1), p^k the twist order"


def _gshort_counts(spec: FamilySpec) -> tuple[_Counts, str] | None:
    if spec.params[1] == 2:
        return None
    return _twisted(spec), "nps(G_n,p^m) = p(p^m - 1)/(p - 1) for odd p"


def _b1_counts(spec: FamilySpec) -> tuple[_Counts, str] | None:
    n, q = spec.params
    if n < 2:
        return None
    nps = q * q * (2 * n - 1) + q * (n + 1) + 2
    return _with_ps(nps, n + 1, "nps(B1_n,p) = p^2(2n-1) + p(n+1) + 2")


def _b2_counts(spec: FamilySpec) -> tuple[_Counts, str] | None:
    n, q = spec.params
    if n < 2:
        return None
    nps = q * q * (n - 1) + q * (n + 1) + 2
    return _with_ps(nps, n + 1, "nps(B2_n,p) = p^2(n-1) + p(n+1) + 2")


def _a_counts(spec: FamilySpec) -> tuple[_Counts, str]:
    n = spec.params[0]
    return _with_ps(3 * n + 4, 2 * n + 1, "nps(A_n) = 3n + 4")


# single family instances with counts by direct calculation
_CALCULATED = {
    FamilySpec(ALT, (4,)): (_Counts(10, 3, 7), "nps(Alt(4)) = 7"),
    FamilySpec(SYM, (3,)): (_Counts(6, 3, 3), "nps(Sym(3)) = 3"),
    FamilySpec(SYM, (4,)): (_Counts(30, 4, 26), "direct calculation: nps(Sym(4)) = 26"),
    FamilySpec(SL23): (_Counts(15, 4, 11), "direct calculation: nps(SL(2,3)) = 11"),
    FamilySpec(C3Q8): (_Counts(18, 5, 13), "direct calculation: nps(C3 x| Q8) = 13"),
}


def _product_counts(spec: FamilySpec) -> tuple[_Counts, str] | None:
    """Compose counts over a direct product of factors with pairwise
    coprime orders.  Factors sharing a prime are first merged into
    (order, factors) blocks, kept in order of their first factor, the order
    in which the source names them; the only shared-prime block with known
    counts is a pair of cyclic prime-power factors (via the divisor-sum
    reference)."""
    blocks: list[tuple[int, list[FamilySpec]]] = []
    for f in spec.factors:
        order, fs, at = expected_order(f), [f], len(blocks)
        for i in reversed(range(len(blocks))):
            if gcd(blocks[i][0], order) != 1:
                m, gs = blocks.pop(i)
                order, fs, at = order * m, gs + fs, i
        blocks.insert(at, (order, fs))

    parts = []
    for _, fs in blocks:
        if len(fs) == 1:
            part = _family_counts(fs[0])
        else:
            rank2 = _as_rank2_prime_power(product_spec(*fs))
            part = rank2 and (
                abelian_rank2_counts(*rank2),
                "divisor-sum count for a rank-2 abelian p-group",
            )
        if part is None:
            return None
        parts.append(part)
    counts, sources = zip(*parts)
    return (
        reduce(_compose_coprime, counts),
        "coprime product composition: " + "; ".join(dict.fromkeys(sources)),
    )


# family kind -> full (s, ps, nps) with a source string, None where unknown
_COUNTS = {
    CYCLIC: lambda spec: (
        _cyclic_counts(spec.params[0]),
        "cyclic groups have no nonpower subgroups",
    ),
    DIHEDRAL: _dihedral_counts,
    QUATERNION: _quaternion_counts,
    SEMIDIHEDRAL: _semidihedral_counts,
    MODULAR: _modular_counts,
    EXTRASPECIAL: _extraspecial_counts,
    GENERAL: _general_counts,
    GSHORT: _gshort_counts,
    FFAMILY: lambda spec: (_twisted(spec), "nps(F_n,p) = p"),
    B1: _b1_counts,
    B2: _b2_counts,
    AFAMILY: _a_counts,
    PRODUCT: _product_counts,
}


def _family_counts(spec: FamilySpec) -> tuple[_Counts, str] | None:
    """Full (s, ps, nps) with a source string, when known exactly."""
    if spec in _CALCULATED:
        return _CALCULATED[spec]
    counts = _COUNTS.get(spec.kind)
    return counts(spec) if counts else None


def _match_cyclic(spec: FamilySpec) -> int | None:
    return spec.params[0] if spec.kind == CYCLIC else None


def _as_rank2_prime_power(spec: FamilySpec) -> tuple[int, int, int] | None:
    """(p, n1, n2) when spec is C_{p^n1} x C_{p^n2} for one prime p."""
    if spec.kind != PRODUCT or len(spec.factors) != 2:
        return None
    orders = [_match_cyclic(f) for f in spec.factors]
    if None in orders:
        return None
    fa, fb = map(factorize, orders)
    if len(fa) != 1 or fa.keys() != fb.keys():
        return None
    (p,) = fa
    n1, n2 = sorted((fa[p], fb[p]))
    return p, n1, n2


def _odd_prime_dihedral(spec: FamilySpec) -> int | None:
    """p when spec is D_2p for an odd prime p."""
    p = spec.params[0] // 2 if spec.kind == DIHEDRAL else 0
    return p if p > 2 and is_prime(p) else None


def _x_nps(n: int, p: int) -> ExpectedNps:
    """nps(X_n,p), X_n,p = D_2p x C3^n."""
    if p > 3:
        val = (p + 3) * subgroup_count_elementary_abelian(3, n) - 6
        return ExpectedNps(EXACT, val, "nps(X_n,p) = (p+3) s(C3^n) - 6 for p > 3")
    if n == 1:
        return ExpectedNps(EXACT, 10, "nps(X_1,3) = 10")
    if n == 2:
        return ExpectedNps(EXACT, 48, "nps(X_2,3) = 48")
    return ExpectedNps(LOWER_BOUND, 49, "nps(X_n,3) > 48 for n > 2")


# head x C(c)^t, t >= 1, for heads sharing a prime with c: (head test, c,
# nps of head x C(c), source), exact for t = 1 and a lower bound for more
_TIMES_CYCLIC = (
    (lambda h: h.kind == GSHORT and h.params[1:] == (3, 1), 3, lambda h: 4 * h.params[0] + 6,
     "nps(G_m,3 x C3) = 4m + 6, a bound for more C3 factors"),
    (lambda h: h.kind == QUATERNION and h.params == (8,), 2, lambda h: 16,
     "nps(Q8 x C2) = 16, a bound for more C2 factors"),
    (_odd_prime_dihedral, 2, lambda h: 3 * _odd_prime_dihedral(h) + 4,
     "nps(D_2p x C2) = 3p + 4, a bound for more C2 factors"),
)


def _match_special_products(spec: FamilySpec) -> ExpectedNps | None:
    """Non-coprime product shapes with dedicated statements: X_n,p and
    head x C(c)^t, read from the head, the first factor."""
    if spec.kind == XFAMILY:
        return _x_nps(*spec.params)
    if spec.kind != PRODUCT:
        return None
    head, *tail = spec.factors
    c = _match_cyclic(tail[0])
    if any(f != tail[0] for f in tail):
        return None
    p = _odd_prime_dihedral(head)
    if p is not None and c == 3:
        return _x_nps(len(tail), p)
    for test, row_c, nps, source in _TIMES_CYCLIC:
        if c == row_c and test(head):
            return ExpectedNps(EXACT if len(tail) == 1 else LOWER_BOUND, nps(head), source)
    return None


def expected_nps(spec: FamilySpec) -> ExpectedNps:
    """Catalog lookup.  Raises UnknownFamilyError when no entry applies."""
    check_valid(spec)

    rank2 = _as_rank2_prime_power(spec)
    if rank2 is not None:
        return ExpectedNps(
            UNDER_REVIEW,
            printed_rank2_formula(*rank2),
            "printed rank-2 abelian closed form (under review; enumeration is authoritative)",
        )

    special = _match_special_products(spec)
    if special is not None:
        return special

    fc = _family_counts(spec)
    if fc is not None:
        c, src = fc
        return ExpectedNps(EXACT, c.nps, src)

    raise UnknownFamilyError(f"no catalog entry for {spec}")


# ---------------------------------------------------------------------------
# classification lists: groups with exactly k nonpower subgroups, k = 0..13


class BucketMember(Record):
    """One entry of a classification bucket.

    `template` is display text with n free when `lowest_n` is set;
    `constraints` states the side conditions on free parameters, which
    verification instantiates at their smallest admissible values.  `spec`
    is the spec text of the instance, with `{}` for n when `lowest_n` is
    set.
    """

    template: str
    constraints: str
    lowest_n: int | None  # None for fixed members
    spec: str

    def instances(self, max_n: int | None = None) -> Iterator[FamilySpec]:
        """The member's instances in order of n, from `lowest_n` up to
        `max_n` (without end when None); a fixed member yields its one
        spec.  Every member's order rises strictly with n."""
        if self.lowest_n is None:
            yield parse_spec(self.spec)
            return
        n = self.lowest_n
        while max_n is None or n <= max_n:
            yield parse_spec(self.spec.format(n))
            n += 1


def _fixed(template: str, spec: str | None = None, constraints: str = "") -> BucketMember:
    return BucketMember(template, constraints, None, spec or template)


def _over_n(
    template: str, spec: str, constraints: str = "n >= 1", lowest: int = 1
) -> BucketMember:
    return BucketMember(template, constraints, lowest, spec)


def theorem_catalog(k: int) -> tuple[BucketMember, ...]:
    """Classification bucket for exactly k nonpower subgroups, 0 <= k <= 13.

    Free primes are recorded in `constraints`; verification uses their
    smallest admissible values (q = 5, r = 7, s = 2 in the k = 12 list).
    """
    if not 0 <= k <= 13:
        raise ValueError("k must be between 0 and 13")
    return _buckets()[k]


@cache
def _buckets() -> dict[int, tuple[BucketMember, ...]]:
    """The fourteen classification buckets, built on first use and then
    shared: every member is an immutable record."""
    return {
        0: (_over_n("C(n)", "C({})", "any cyclic group; sampled n"),),
        1: (),
        2: (),
        3: (_fixed("C(2)xC(2)"), _fixed("Q(8)"), _over_n("Gn(n,3)", "Gn({},3)")),
        4: (_fixed("C(3)xC(3)"),),
        5: (_fixed("C(2)xC(4)"), _over_n("Gn(n,5)", "Gn({},5)")),
        6: (
            _fixed("C(5)xC(5)"),
            _fixed("C(2)xC(2)xC(p)", "C(2)xC(2)xC(3)", "p > 2 prime; p = 3"),
            _fixed("Q(8)xC(p)", "Q(8)xC(3)", "p > 2 prime; p = 3"),
            _over_n("Gn(n,3)xC(q)", "Gn({},3)xC(5)", "n >= 1, q > 3 prime; q = 5"),
        ),
        7: (
            _fixed("D(8)"),
            _fixed("Alt(4)"),
            _fixed("C(2)xC(8)"),
            _fixed("Q(16)"),
            _fixed("M(4,2)"),
            _fixed("C(3)xC(9)"),
            _fixed("M(3,3)"),
            _over_n("Gn(n,7)", "Gn({},7)"),
            _over_n("F(n,7)", "F({},7)"),
        ),
        8: (
            _fixed("C(7)xC(7)"),
            _fixed("C(3)xC(3)xC(p)", "C(3)xC(3)xC(2)", "p != 3 prime; p = 2"),
        ),
        9: (
            _fixed("C(2)xC(16)"),
            _fixed("M(5,2)"),
            _fixed("C(2)xC(2)xC(p^2)", "C(2)xC(2)xC(9)", "p > 2 prime; p = 3"),
            _fixed("Q(8)xC(p^2)", "Q(8)xC(9)", "p > 2 prime; p = 3"),
            _over_n("Gn(n,3)xC(q^2)", "Gn({},3)xC(25)", "n >= 1, q > 3 prime; q = 5"),
        ),
        10: (
            _fixed("C(3)xC(27)"),
            _fixed("C(2)xC(4)xC(p)", "C(2)xC(4)xC(3)", "p != 2 prime; p = 3"),
            _fixed("M(4,3)"),
            _fixed("Sym(3)xC(3)"),
            _fixed("A(2)"),
            _over_n("G(r=2;p=2,n;q=5,m=1)", "G(r=2;p=2,n={};q=5,m=1)", "n >= 2", lowest=2),
            _over_n("Gn(n,5)xC(q)", "Gn({},5)xC(3)", "n >= 1, q prime, q != 2, 5; q = 3"),
        ),
        11: (
            _fixed("C(2)xC(32)"),
            _fixed("C(5)xC(25)"),
            _fixed("S(16)"),
            _fixed("M(6,2)"),
            _fixed("M(3,5)"),
            _fixed("SL23"),
            _over_n("Gn(n,11)", "Gn({},11)"),
            _over_n("G(r=3;p=5,n;q=11,m=1)", "G(r=3;p=5,n={};q=11,m=1)"),
        ),
        12: (
            _fixed("C(4)xC(4)"),
            _fixed("C(11)xC(11)"),
            _fixed("Q(8)xC(qr)", "Q(8)xC(35)", "q, r primes, 3 < q < r; q = 5, r = 7"),
            _fixed("C(2)xC(2)xC(qr)", "C(2)xC(2)xC(35)", "3 < q < r primes; q = 5, r = 7"),
            _fixed("C(3)xC(3)xC(s^2)", "C(3)xC(3)xC(4)", "s != 3 prime; s = 2"),
            _fixed("C(5)xC(5)xC(p)", "C(5)xC(5)xC(2)", "p != 5 prime; p = 2"),
            _fixed("B2(2,2)"),
            _over_n("Gn(n,9)", "Gn({},9)"),
            _over_n("Gn(n,3)xC(qr)", "Gn({},3)xC(35)", "n >= 1, 3 < q < r primes; q = 5, r = 7"),
        ),
        13: (
            _fixed("C(2)xC(64)"),
            _fixed("C(3)xC(81)"),
            _fixed("M(7,2)"),
            _fixed("M(5,3)"),
            _fixed("D(12)", constraints="Sym(3) x C2"),
            _fixed("C3Q8"),
            _fixed("A(3)"),
            _over_n("Gn(n,13)", "Gn({},13)"),
            _over_n("F(n,13)", "F({},13)"),
        ),
    }


_SAMPLED_CYCLIC_ORDERS = (1, 2, 6, 12)


def instantiate_bucket(
    k: int, max_n: int = 4, max_order: int = DEFAULT_ORDER_CAP
) -> list[tuple[FamilySpec, str]]:
    """Concrete bucket members within the sweep bounds, with templates."""
    out: list[tuple[FamilySpec, str]] = []
    for member in theorem_catalog(k):
        if k == 0:
            specs = [cyclic_spec(n) for n in _SAMPLED_CYCLIC_ORDERS]
        else:
            specs = member.instances(max_n)
        for spec in specs:
            if expected_order(spec) <= max_order:
                out.append((spec, member.template))
    return out


def minimal_instances(k: int, max_order: int) -> list[tuple[FamilySpec, str]]:
    """The first instance of each member of bucket k, in member order, with
    its template; a member whose first instance exceeds `max_order` is left
    out."""
    out = []
    for member in theorem_catalog(k):
        spec = next(member.instances())
        if expected_order(spec) <= max_order:
            out.append((spec, member.template))
    return out


def instances_of_order(k: int, order: int) -> list[FamilySpec]:
    """The instances of the members of bucket k that have exactly `order`,
    at most one per member, in member order.  A member's walk stops at its
    first instance of at least `order`."""
    out = []
    for member in theorem_catalog(k):
        for spec in member.instances():
            o = expected_order(spec)
            if o >= order:
                if o == order:
                    out.append(spec)
                break
    return out
