"""Subgroup lattice enumeration and power-subgroup bookkeeping.

The lattice is built from zuppos: the cyclic subgroups of prime-power order
greater than 1.  Every element is the product of commuting powers of itself
of prime-power order, so every subgroup is generated by the zuppos it
contains, and cyclic extension by zuppos alone reaches every subgroup
(Neubüser's method, as in GAP's LatticeByCyclicExtension).

The search is made duplicate-free by canonical augmentation (McKay,
"Isomorph-free exhaustive generation", 1998).  Number the zuppos z_0..z_{k-1}
by their smallest generators g_0..g_{k-1}.  Depth-first from the trivial
subgroup, a node S reached by adjoining z_i is extended only by the z_j with
j > i and g_j not in S, and J = <S, g_j> is kept only when J - S holds no
g_i with i < j.  A subgroup H is reached along the path that always adjoins
the smallest zuppo of H missing from the node: its indices rise, and each
join it makes brings in no smaller generator.  No other path reaches H: one
that adjoins z_j while a smaller zuppo z_i of H is still missing must bring
g_i in later, with a join that the rule rejects.  So each subgroup is
produced exactly once.

A join is grown by `core.coset_closure` as a union of left cosets y*S, each
one C-level pick of row y of the table at S's elements.  J - S is the union
of the new cosets, so the rule is checked coset by coset: zidx[x] is the
number of the zuppo that x generates, for every generator x of every zuppo
(k for an element that generates none), and the join is abandoned as soon
as a new coset holds an element with zidx below j.  This rejects the same
joins as a test of the g_i alone: J - S holds a generator x of z_i, i < j,
exactly when J holds z_i and S does not, and then g_i, which generates z_i
too, lies in J - S; g_i is itself such an x.

Two tests reject a join before any coset.  It is skipped when z_j itself
holds a generator of a lower zuppo that S lacks; for the trivial S that
test is the whole rule, so its joins, the zuppos themselves, need no
closure.  It is also skipped, by one bitset AND, when S holds an element of
early[j], the set of the g_j^-1 x over the generators x of the zuppos below
j: g_j*S, the first coset the closure builds, then holds such an x, and it
is disjoint from S since g_j is not in S.

Subgroup identity is bitset equality and all outputs are sorted by
(size, bitset value) for reproducibility.  The conjugacy classes are the
orbits (`core.orbits`) of the generators' conjugation maps on the
subgroups' positions in that order.

The lattice is cached on the group as plain data: the subgroups' bitsets
and sizes, the normal flags, the conjugacy classes and the power
subgroups' positions.  The cache never refers back to the group, so a
group is freed by reference counting once the last reference to it goes;
`all_subgroups` wraps the data in a `Lattice` of `Subgroup`s on each call,
and the other queries wrap only the subgroups they return.  A lattice is
computed only inside `all_subgroups`, the call that `bench/trace_child.py`
times as the lattice layer.

`counts` of an abelian group builds no lattice: it reads the group's type
off its generators' columns (`_column_type`) and counts by Birkhoff's
formula (`arith.subgroup_count_abelian`).  `column_counts` reads the type
of an abelian permutation group off the columns of its closure by the
same `_column_type`, so it needs no table.  Nor does `counts` of a
metacyclic group: it reads (Q, P, r, t) off the table
(`_metacyclic_parameters`) and counts by `metacyclic_counts`.
`counts_times_abelian` counts A x C(n_1) x C(n_2) x ... from the lattice
of A alone, and from the type when A is abelian or trivial.

`metacyclic_counts` needs no group at all: it counts a metacyclic
<b>.<a>, |b| = Q, a^P = b^t and a^-1 b a = b^r, split (t = 0) or not,
from (Q, P, r, t) by divisor sums of geometric sums mod Q, in
O(tau(P) tau(Q) log P) steps for s and tau(PQ) ord(r) log(PQ) for the
power subgroups.  The CLI counts every valid metacyclic family spec this
way, Q(2^n) and C3Q8 included; the lattice stays its oracle in the tests.
Q and P are factorized once a call, and every divisor list and prime set
comes from those two factorizations.
"""

from __future__ import annotations

from math import gcd, lcm, prod
from operator import itemgetter, mul
from typing import Iterable, Sequence

from .arith import (
    conjugate_partition,
    divisors,
    divisors_of,
    factorize,
    geometric_sum,
    multiplicative_order,
    p_part,
    p_valuation,
    subgroup_count_abelian,
    subgroup_type_counts,
    totient,
)
from .core import (
    DEFAULT_ORDER_CAP,
    Group,
    Record,
    Subgroup,
    _bits,
    _spanning_tree,
    bit_table,
    check_cap,
    check_twist,
    conjugation,
    coset_closure,
    cyclic_subgroups,
    derived_subgroup,
    element_orders,
    exponent,
    generated_subgroup,
    getter,
    is_abelian,
    orbits,
)


class PrimeData(Record):
    """Per-prime profile: p^f is the largest p-element order, p^k the
    largest order of a cyclic power p-subgroup."""

    p: int
    f: int
    k: int


class CountSummary(Record):
    order: int
    exponent: int
    s: int
    ps: int
    nps: int
    per_prime: tuple[PrimeData, ...]


class _Node:
    __slots__ = ("members", "size", "elems", "gens")

    def __init__(self, members: int, size: int, elems: list[int], gens: tuple[int, ...]):
        self.members = members
        self.size = size
        self.elems = elems
        self.gens = gens


class Lattice(Record):
    group: Group
    subgroups: tuple[Subgroup, ...]
    normal_flags: tuple[bool, ...]
    conjugacy_classes: tuple[tuple[int, ...], ...]
    power_index: dict[int, int]
    index: dict[int, int]

    _hidden = ("index",)

    def index_of(self, members: int) -> int:
        return self.index[members]

    @property
    def power_subgroup_indices(self) -> set[int]:
        return set(self.power_index.values())


class _LatticeData(Record):
    """The cached lattice of a group, with no reference to the group: the
    subgroups' bitsets, sizes and the generators the search joined each
    from, in lattice order, and the rest as in `Lattice`."""

    members: tuple[int, ...]
    sizes: tuple[int, ...]
    normal_flags: tuple[bool, ...]
    conjugacy_classes: tuple[tuple[int, ...], ...]
    power_index: dict[int, int]
    index: dict[int, int]
    gens: tuple[tuple[int, ...], ...]


def _cyclic_nodes(G: Group) -> list[_Node]:
    """One node per distinct cyclic subgroup, in order of smallest generator."""
    bits = bit_table(G)
    return [
        _Node(
            sum(getter(powers)(bits)),
            len(powers),
            powers,
            (powers[1],) if len(powers) > 1 else (),
        )
        for powers in cyclic_subgroups(G)
    ]


def all_subgroups(G: Group, cap: int = DEFAULT_ORDER_CAP) -> Lattice:
    """The complete subgroup lattice of G, computed on the first call and
    cached on the group as plain data, which each call wraps in a fresh
    `Lattice`; the cap applies to a cached lattice too."""
    check_cap(G.order, cap)
    lat = G._cache.get("lattice")
    if lat is None:
        lat = G._cache["lattice"] = _compute_lattice(G)
    return Lattice(
        group=G,
        subgroups=tuple(Subgroup(G, m, size) for m, size in zip(lat.members, lat.sizes)),
        normal_flags=lat.normal_flags,
        conjugacy_classes=lat.conjugacy_classes,
        power_index=lat.power_index,
        index=lat.index,
    )


def _lattice_data(G: Group, cap: int) -> _LatticeData:
    """The lattice of G as the plain data cached on the group, computed
    through `all_subgroups` when it is not cached yet."""
    check_cap(G.order, cap)
    if "lattice" not in G._cache:
        all_subgroups(G, cap)
    return G._cache["lattice"]  # type: ignore[return-value]


def _compute_lattice(G: Group) -> _LatticeData:
    """The lattice of G by cyclic extension, then its classes and powers."""
    mul = G.mul
    bits = bit_table(G)
    cyclics = _cyclic_nodes(G)
    zuppos = [c for c in cyclics if c.size > 1 and len(factorize(c.size)) == 1]
    zgens = [z.gens[0] for z in zuppos]
    k = len(zuppos)
    orders = element_orders(G)
    trivial = cyclics[0]
    nodes: dict[int, _Node] = {trivial.members: trivial}
    # (node, index of the first zuppo it may be extended by)
    stack: list[tuple[_Node, int]] = []
    # zidx[x]: the number of the zuppo that x generates, k for the rest
    zidx = [k] * G.order
    # inner[j]: the generators of zuppos below j that lie in z_j itself
    inner: list[int] = []
    # early[j]: the bits of g_j^-1 x for the generators x of zuppos below j;
    # S meets it exactly when g_j*S, the first coset of the join, holds an x
    early: list[int] = []
    low: list[int] = []  # the generators of the zuppos below j
    below = 0  # their bits
    for j, z in enumerate(zuppos):
        inner.append(z.members & below)
        early.append(sum(getter(getter(low)(mul[G.inv[zgens[j]]]))(bits)) if low else 0)
        for x in z.elems:
            if orders[x] == z.size:
                zidx[x] = j
                low.append(x)
                below |= bits[x]
        # the trivial subgroup joined with z_j is z_j itself
        if not inner[j]:
            nodes[z.members] = z
            stack.append((z, j + 1))
    while stack:
        S, start = stack.pop()
        sm = S.members
        lack = ~sm
        take = getter(S.elems)
        sset = set(S.elems)
        for j in range(start, k):
            g = zgens[j]
            # z_j brings in the generators in inner[j] that S lacks, and the
            # first coset g_j*S brings in one when S meets early[j]
            if g in sset or inner[j] & lack or early[j] & sm:
                continue
            gens = S.gens + (g,)
            new = coset_closure(mul, take, sset.copy(), gens, zidx, j)
            if new is None:
                continue
            members = sm + sum(getter(new)(bits))
            if members in nodes:
                raise AssertionError("canonical augmentation reached a subgroup twice")
            J = _Node(members, S.size + len(new), S.elems + new, gens)
            nodes[members] = J
            stack.append((J, j + 1))

    order = sorted(nodes.values(), key=lambda nd: (nd.size, nd.members))
    index = {nd.members: i for i, nd in enumerate(order)}

    # conjugacy classes of subgroups: the orbits of the generators'
    # conjugation maps on the lattice indices
    conj_bits = [getter(conjugation(G, g))(bits) for g in G.generators]
    maps: list[list[int]] = [[] for _ in conj_bits]
    for nd in order:
        take = getter(nd.elems)
        for cb, m in zip(conj_bits, maps):
            c = index.get(sum(take(cb)))
            if c is None:
                raise AssertionError("conjugate of a subgroup missing from lattice")
            m.append(c)
    classes = [tuple(sorted(o)) for o in orbits(len(order), maps)]
    normal_flags = [False] * len(order)
    for cls in classes:
        if len(cls) == 1:
            normal_flags[cls[0]] = True

    e = exponent(G)
    power_index: dict[int, int] = {}
    for m in divisors(e):
        sub = power_subgroup(G, m)
        power_index[m] = index[sub.members]

    return _LatticeData(
        members=tuple(nd.members for nd in order),
        sizes=tuple(nd.size for nd in order),
        normal_flags=tuple(normal_flags),
        conjugacy_classes=tuple(classes),
        power_index=power_index,
        index=index,
        gens=tuple(nd.gens for nd in order),
    )


def power_subgroup(G: Group, m: int) -> Subgroup:
    """G^m: the subgroup generated by all m-th powers g^m.

    y^m lies in <x^m> for every y in <x>, so the m-th powers of one
    generator per cyclic subgroup generate G^m.
    """
    if m < 1:
        raise ValueError("m must be positive")
    return generated_subgroup(G, [c[m % len(c)] for c in cyclic_subgroups(G)])


def power_subgroups(G: Group, cap: int = DEFAULT_ORDER_CAP) -> dict[int, Subgroup]:
    """G^m for every divisor m of the exponent; G^m = G^gcd(m, e) in general."""
    lat = _lattice_data(G, cap)
    return {
        m: Subgroup(G, lat.members[i], lat.sizes[i]) for m, i in sorted(lat.power_index.items())
    }


def counts(G: Group, cap: int = DEFAULT_ORDER_CAP) -> CountSummary:
    """s(G), ps(G), nps(G) and the per-prime (f, k) profile: from the type,
    read off the generators' columns by `_column_type`, for an abelian
    group, from (Q, P, r, t) by `metacyclic_counts` for a
    metacyclic one that `_metacyclic_parameters` recognizes, from the
    lattice for the rest.  The cap applies to all three.  The counts are
    cached on the group as plain data: `are_isomorphic` asks again for the
    counts of groups that the CLI has counted.  Two paths build no table
    of the group they count and so do not come here: `column_counts`,
    which the CLI uses on a corpus entry's closure, and
    `counts_times_abelian`, which it uses on a spec with a cyclic
    factor."""
    check_cap(G.order, cap)
    cached = G._cache.get("counts")
    if cached is None:
        if is_abelian(G):
            cached = _abelian_counts(_table_type(G))
        else:
            twist = _metacyclic_parameters(G)
            if twist is not None:
                cached = metacyclic_counts(*twist)
            else:
                cached = _lattice_counts(G, cap)
        G._cache["counts"] = cached
    return cached  # type: ignore[return-value]


def _metacyclic_parameters(G: Group) -> tuple[int, int, int, int] | None:
    """(Q, P, r, t) of G as <b>.<a>, |b| = Q, a^P = b^t and a^-1 b a = b^r,
    read off the table; None when G has no cyclic normal subgroup with a
    cyclic quotient, so that G is not metacyclic.

    The cyclic subgroups N = <b> are tried largest first.  N is normal when
    each generator conjugates b into N, and G/N is cyclic only if N holds
    G'.  G/N, of order P = |G|/|N|, is then generated by aN exactly when
    a^(P/q) is not in N for each prime q dividing P; the order of a is a
    multiple of P then, and every generator of <a> does as well as a, so
    one generator of each cyclic subgroup is tried.  The search is
    skipped when G' is not cyclic: no element of G' has order |G'|.
    """
    n = G.order
    mul, inv = G.mul, G.inv
    bits = bit_table(G)
    derived = derived_subgroup(G)
    # G' lies in every N that the search can return, so it is cyclic
    if not _is_cyclic(G, derived.members, derived.size):
        return None
    derived = derived.members
    cyclics = cyclic_subgroups(G)
    for powers in sorted(cyclics, key=len, reverse=True):
        members = sum(getter(powers)(bits))
        if derived & ~members:
            continue
        b = powers[1]
        if any(not (members >> mul[mul[inv[g]][b]][g]) & 1 for g in G.generators):
            continue
        P = n // len(powers)
        cuts = [P // q for q in factorize(P)]
        for other in cyclics:
            if len(other) % P or any((members >> other[c]) & 1 for c in cuts):
                continue
            a = other[1]
            exps = {x: e for e, x in enumerate(powers)}
            r = exps[mul[mul[inv[a]][b]][a]]
            return len(powers), P, r, exps[other[P % len(other)]]
    return None


def _lattice_counts(G: Group, cap: int) -> CountSummary:
    """counts() from the full lattice of G; the tests' oracle for the
    abelian and the Goursat paths."""
    lat = _lattice_data(G, cap)
    s = len(lat.members)
    power_idx = set(lat.power_index.values())
    ps = len(power_idx)
    cyclic_powers = [
        size
        for members, size in ((lat.members[i], lat.sizes[i]) for i in power_idx)
        if size > 1 and len(factorize(size)) == 1 and _is_cyclic(G, members, size)
    ]
    e = exponent(G)
    return CountSummary(
        order=G.order,
        exponent=e,
        s=s,
        ps=ps,
        nps=s - ps,
        per_prime=_per_prime(factorize(G.order), e, cyclic_powers),
    )


def counts_times_abelian(
    A: Group | None, orders: Sequence[int], cap: int = DEFAULT_ORDER_CAP
) -> CountSummary:
    """counts() of A x B for B = C(n_1) x C(n_2) x ..., the n_i the orders,
    from the lattice of A alone; A None is the trivial group.

    Each subgroup H of A x B is one triple (A1, B2, f): A1 the image of H
    in A, B2 = H meet B, and f: A1 -> B/B2 the homomorphism that sends a
    to the coset of the b with (a, b) in H, as B is abelian.  So s(A x B)
    sums |Hom(A1/A1', B/B2)| over A1 <= A and B2 <= B, a product over the
    primes p of |B|.  By duality B_p, of type l, has as many B2 with
    quotient of type g as subgroups of type g, Birkhoff's N(l, g)
    (`arith.subgroup_type_counts`), and there are p^(sum over i, j of
    min(a_i, g_j)) = p^(sum over k of a'_k g'_k) homomorphisms from type a
    to type g, a' and g' the conjugate partitions.  So A1 with A1/A1' of
    p-type a adds

        prod over p of  sum over g inside l of  N(l, g) p^(sum a'_k g'_k).

    Omega_{p^j} of A1/A1' has order p^(a'_1 + ... + a'_j): the x in A1
    whose coset has order dividing p^j, over |A1'|, counted by the cyclic
    subgroups of A in A1, whose generators behave alike.  A1' is the
    derived subgroup of the generators the lattice joined A1 from, and one
    A1 per conjugacy class is taken, weighted by the class size.

    (A x B)^m = A^m x B^m, so the power subgroups are the distinct pairs
    (A^m, B^m), B^m given by gcd(m, exp B).  The cap applies to the order
    of A x B.  An abelian A makes an abelian product, counted from its
    type, A's read off its columns as counts() does.
    """
    order = (1 if A is None else A.order) * prod(orders)
    check_cap(order, cap)
    types: dict[int, list[int]] = {}  # the type of B
    for n in orders:
        for p, m in factorize(n).items():
            types.setdefault(p, []).append(m)
    if A is None or is_abelian(A):
        own = {} if A is None else _table_type(A)
        return _abelian_counts({p: own.get(p, []) + types.get(p, []) for p in own | types})
    lat = _lattice_data(A, cap)
    cyclics = [(z.members, z.size, totient(z.size)) for z in _cyclic_nodes(A)]
    below_b = {p: list(subgroup_type_counts(p, parts)) for p, parts in types.items()}
    s = 0
    for cls in lat.conjugacy_classes:
        m1 = lat.members[cls[0]]
        derived = derived_subgroup(A, lat.gens[cls[0]]).members
        found: dict[int, int] = {}  # k -> the x in A1 whose coset has order k
        for members, size, phi in cyclics:
            if not members & ~m1:
                k = size // (members & derived).bit_count()
                found[k] = found.get(k, 0) + phi
        term = 1
        for p, below in below_b.items():
            a, omega = [], found[1]  # a', and |Omega_{p^j}| |A1'|
            for j in range(1, max(types[p]) + 1):
                larger = omega + found.get(p**j, 0)
                a.append(p_valuation(larger // omega, p))
                omega = larger
            term *= sum(N * p ** sum(map(mul, a, g)) for g, N in below)
        s += len(cls) * term

    e, eb = exponent(A), lcm(*orders)
    powers = {(lat.power_index[gcd(m, e)], gcd(m, eb)) for m in divisors(lcm(e, eb))}
    cyclic_powers = []
    for i, g in powers:
        parts = [n // gcd(n, g) for n in orders if n // gcd(n, g) > 1]  # B^g
        size = lat.sizes[i] * prod(parts)
        # a product of two nontrivial p-groups is not cyclic
        if size > 1 and len(factorize(size)) == 1 and (
            lat.sizes[i] == 1 and len(parts) == 1
            or not parts and _is_cyclic(A, lat.members[i], lat.sizes[i])
        ):
            cyclic_powers.append(size)
    return CountSummary(
        order=order,
        exponent=lcm(e, eb),
        s=s,
        ps=len(powers),
        nps=s - len(powers),
        per_prime=_per_prime(factorize(order), lcm(e, eb), cyclic_powers),
    )


def metacyclic_counts(Q: int, P: int, r: int, t: int = 0) -> CountSummary:
    """counts() of <b>.<a>, |b| = Q, a^P = b^t and a^-1 b a = b^r, from
    (Q, P, r, t) alone, with no table and no lattice; t = 0 is C_Q x|_r C_P.

    Write the elements as a^e b^f.  As b^f a^e = a^e b^(f r^e),
    (a^e b^f)^k = a^(ke) b^(f (1 + r^e + ... + r^((k-1)e))).  A subgroup
    H meets <b> in <b^d>, d | Q, and maps onto <a^e>, e | P, in G/<b>;
    with S_e = 1 + r^e + ... + r^((P/e - 1)e) mod Q, (a^e b^f)^(P/e) =
    b^(t + f S_e), so H is <b^d, a^e b^f> for the f mod d with
    t + f S_e = 0 mod d.  There are g = gcd(S_e, d) of them when g | t,
    and none otherwise, so

        s = sum over d | Q and e | P of [g | t] g,

    and the elements a^e b^f have orders whose lcm is
    (P/e) Q / gcd(Q, S_e, t), the exponent being the lcm of these.
    (a^j b^f)^m = a^(jm) b^(f T_j) with T_j = 1 + r^j + ... + r^((m-1)j),
    so with D = gcd(Q, T_0, ..., T_(o-1)), o the order of r mod Q, and
    e = gcd(m, P), G^m holds b^D' for D' = gcd(D, (m/e) t), and a^e b^x
    for x = ((u m - e)/P) t, as a^(um) = a^e (a^P)^((um - e)/P) for
    u = (m/e)^-1 mod P/e, 0 for e = P.  G^m = <b^D', a^e b^x>, and the power
    subgroups are the distinct (D', e, x mod D') over m | PQ.  One of
    order p^k > 1 is cyclic when either part is trivial, or when a^e b^x
    has order p^k, that is t + S_e x is not 0 mod p D': p | Q and the
    order of r^e divides the p-power P/e, so r^e = 1 and S_e = 0 mod p,
    and every a^e b^(x + iD') has that order.  Each sum is a geometric
    one, `arith.geometric_sum`.

    With a^-1 for a the twist is r^-1 and the group the same, so the
    counts of r and r^-1 agree.  ValueError when r^P is not 1 or r t is
    not t mod Q, as for the table of the group (`core.check_twist`).
    """
    check_twist(Q, P, r, t)
    # Q and P factorized once; every divisor list and prime set below
    # comes from these
    fq, fp = factorize(Q), factorize(P)
    fpq = {p: fq.get(p, 0) + fp.get(p, 0) for p in fq.keys() | fp.keys()}
    below_q = divisors_of(fq)
    sums = {e: geometric_sum(pow(r, e, Q), P // e, Q) for e in divisors_of(fp)}
    s, exp = 0, 1
    for e, se in sums.items():
        s += sum(g for g in (gcd(se, d) for d in below_q) if t % g == 0)
        exp = lcm(exp, P // e * (Q // gcd(Q, se, t)))
    twists = [pow(r, j, Q) for j in range(multiplicative_order(r, Q))]
    powers = set()
    for m in divisors_of(fpq):
        d, e = Q, gcd(m, P)
        for x in twists:
            d = gcd(d, geometric_sum(x, m, Q))
        d = gcd(d, m // e * t)
        powers.add((d, e, (pow(m // e, -1, P // e) * m - e) // P * t % d))
    cyclic_powers = []
    for d, e, x in powers:
        size = Q // d * (P // e)
        primes = [p for p in fpq if size % p == 0]
        if len(primes) == 1 and (d == Q or e == P or (t + sums[e] * x) % (primes[0] * d)):
            cyclic_powers.append(size)
    return CountSummary(
        order=Q * P,
        exponent=exp,
        s=s,
        ps=len(powers),
        nps=s - len(powers),
        per_prime=_per_prime(fpq, exp, cyclic_powers),
    )


def _column_type(cols: Sequence[Sequence[int]]) -> dict[int, list[int]]:
    """The type of the abelian group whose right multiplications by a
    generating set are the columns, cols[j][x] = x * s_j as
    `core.group_from_columns` reads them: for each prime p dividing its
    order, the partition l with Sylow p-subgroup C_{p^l_1} x C_{p^l_2} x ...

    In an abelian G, x -> x^q is a homomorphism.  The spanning tree of
    `group_from_columns` writes c = parent[c] * s, so c^q = parent[c]^q *
    s^q, and the column of s^q is the q-th power of the column of s: one
    pass down the tree gives the p-th power of every element, and the map
    iterated gives the p^j-th.  The c with c^(p^j) = 0 form Omega_{p^j},
    of order p^(l'_1 + ... + l'_j), l' the conjugate partition, which
    grows with j until it is the Sylow p-subgroup; the sizes are read
    until then."""
    parent, via, tree = _spanning_tree(cols)
    del tree[0]
    out = {}
    for p, e in factorize(len(parent)).items():
        steps = [_permutation_power(col, p) for col in cols]
        power = [0] * len(parent)  # c -> c^p
        for c in tree:
            power[c] = steps[via[c]][power[parent[c]]]
        pick = getter(power)
        powers = power  # c -> c^(p^j)
        conj = []
        below, top = 1, p**e
        while True:
            size = powers.count(0)
            conj.append(p_valuation(size // below, p))
            if size == top:
                break
            below = size
            powers = pick(powers)
        out[p] = conjugate_partition(conj)
    return out


def _table_type(G: Group) -> dict[int, list[int]]:
    """`_column_type` of the columns x -> x * g of G's generators.  No
    columns make the trivial group, so a larger G without generators is
    refused, as columns that reach too few elements are."""
    if G.order > 1 and not G.generators:
        raise ValueError("the generators' columns do not reach every element")
    return _column_type([tuple(map(itemgetter(g), G.mul)) for g in G.generators])


def column_counts(cols: Sequence[Sequence[int]]) -> CountSummary | None:
    """counts() of the group whose right multiplications by a generating
    set are the columns, cols[j][x] = x * s_j as `core.group_from_columns`
    reads them, when it is abelian, with no table; None when it is not.

    G is abelian exactly when its generators commute, that is when the
    columns commute as permutations: O(n k^2) for n elements and k
    columns.  The type is then `_column_type`'s, as for a table.
    """
    if any(getter(a)(b) != getter(b)(a) for i, a in enumerate(cols) for b in cols[:i]):
        return None
    return _abelian_counts(_column_type(cols))


def _permutation_power(perm: Sequence[int], q: int) -> Sequence[int]:
    """perm^q for q >= 1, a permutation given by its images, by binary
    powering; getter(a)(b) is a then b."""
    out = None
    while True:
        if q & 1:
            out = perm if out is None else getter(out)(perm)
        q >>= 1
        if not q:
            return out  # type: ignore[return-value]
        perm = getter(perm)(perm)


def _abelian_counts(types: dict[int, list[int]]) -> CountSummary:
    """counts() of the abelian group of the given type, prime -> partition.

    s is the product over the primes of Birkhoff's count.  G^m is G^d for
    d = gcd(m, exp G) and has exponent exp(G) / d, so the power subgroups
    are the tau(exp G) distinct G^d.  Those of p-power order are the
    G_p^(p^j), of type (l_1 - j, l_2 - j, ...) without its parts <= 0;
    one is cyclic of order > 1 when l_2 <= j < l_1, so f = l_1 and
    k = l_1 - l_2."""
    order = exp = s = ps = 1
    per_prime = []
    for p, parts in sorted(types.items()):
        lam = sorted(parts, reverse=True) + [0]
        order *= p ** sum(lam)
        exp *= p ** lam[0]
        s *= subgroup_count_abelian(p, lam)
        ps *= lam[0] + 1
        per_prime.append(PrimeData(p=p, f=lam[0], k=lam[0] - lam[1]))
    return CountSummary(
        order=order, exponent=exp, s=s, ps=ps, nps=s - ps, per_prime=tuple(per_prime)
    )


def _per_prime(
    primes: Iterable[int], exp: int, cyclic_powers: list[int]
) -> tuple[PrimeData, ...]:
    """The per-prime profile over the primes dividing the order.  The
    p-part of the exponent `exp` is the largest p-element order;
    `cyclic_powers` holds the orders of the power subgroups that are
    cyclic of prime-power order > 1."""
    return tuple(
        PrimeData(
            p=p,
            f=p_valuation(exp, p),
            k=max((p_valuation(c, p) for c in cyclic_powers if c % p == 0), default=0),
        )
        for p in sorted(primes)
    )


def _is_cyclic(G: Group, members: int, size: int) -> bool:
    """Whether the subgroup of G with this bitset and size is cyclic."""
    orders = element_orders(G)
    return any(orders[x] == size for x in _bits(members))


def is_normal(G: Group, H: Subgroup, cap: int = DEFAULT_ORDER_CAP) -> bool:
    if H.parent is not G:
        raise ValueError("subgroup does not belong to this group")
    lat = _lattice_data(G, cap)
    return lat.normal_flags[lat.index[H.members]]


def conjugates(G: Group, H: Subgroup, cap: int = DEFAULT_ORDER_CAP) -> list[Subgroup]:
    """All distinct conjugates of H in G (H's conjugacy class)."""
    if H.parent is not G:
        raise ValueError("subgroup does not belong to this group")
    lat = _lattice_data(G, cap)
    i = lat.index[H.members]
    for cls in lat.conjugacy_classes:
        if i in cls:
            return [Subgroup(G, lat.members[j], lat.sizes[j]) for j in cls]
    raise AssertionError("subgroup missing from its own lattice")


def sylow(G: Group, p: int, cap: int = DEFAULT_ORDER_CAP) -> Subgroup:
    """A Sylow p-subgroup (first in lattice order); trivial if p does not
    divide the group order."""
    part = p_part(G.order, p)
    lat = _lattice_data(G, cap)
    for members, size in zip(lat.members, lat.sizes):
        if size == part:
            return Subgroup(G, members, size)
    raise AssertionError("Sylow subgroup missing from lattice")


def frattini(G: Group, cap: int = DEFAULT_ORDER_CAP) -> Subgroup:
    """Intersection of all maximal subgroups."""
    lat = _lattice_data(G, cap)
    proper = [(m, size) for m, size in zip(lat.members, lat.sizes) if size < G.order]
    members = (1 << G.order) - 1
    for m, size in proper:
        if not any(t_size > size and m & ~t == 0 for t, t_size in proper):
            members &= m  # m is maximal
    i = lat.index[members]
    return Subgroup(G, members, lat.sizes[i])


def omega(G: Group, i: int, cap: int = DEFAULT_ORDER_CAP) -> Subgroup:
    """In a p-group, the subgroup generated by elements x with x^(p^i) = 1."""
    check_cap(G.order, cap)
    if i < 1:
        raise ValueError("i must be positive")
    fact = factorize(G.order)
    if len(fact) != 1:
        raise ValueError("omega is defined for prime-power order groups only")
    (p,) = fact
    bound = p**i
    orders = element_orders(G)
    gens = [x for x in range(G.order) if orders[x] <= bound and bound % orders[x] == 0]
    return generated_subgroup(G, gens)


def cyclic_nonpower_p_count(G: Group, p: int, cap: int = DEFAULT_ORDER_CAP) -> int:
    """Number of cyclic subgroups of p-power order (> 1) that are not power
    subgroups of G."""
    lat = _lattice_data(G, cap)
    power_idx = set(lat.power_index.values())
    count = 0
    for i, (members, sz) in enumerate(zip(lat.members, lat.sizes)):
        if sz == 1 or p_part(sz, p) != sz:
            continue
        if i in power_idx:
            continue
        if _is_cyclic(G, members, sz):
            count += 1
    return count

