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
produced exactly once, and a join is abandoned as soon as one of its cosets
holds a forbidden generator.

Subgroup identity is bitset equality and all outputs are sorted by
(size, bitset value) for reproducibility.
"""

from __future__ import annotations

from math import gcd

from .arith import divisors, factorize, p_part, p_valuation
from .core import (
    CapExceeded,
    Group,
    Record,
    Subgroup,
    element_orders,
    exponent,
    generated_subgroup,
)

DEFAULT_LATTICE_CAP = 600


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


def _extend_node(G: Group, base: _Node, extra: int, forbid: int) -> _Node | None:
    """Closure of <base, extra> via coset sweeps over the base subgroup, or
    None as soon as a new coset meets the bitset `forbid`."""
    mul = G.mul
    members = base.members
    base_elems = base.elems
    elems = list(base_elems)
    reps = [0]
    trans = base.gens + (extra,)
    for r in reps:
        row = mul[r]
        for g in trans:
            y = row[g]
            if not (members >> y) & 1:
                for s in base_elems:
                    z = mul[s][y]
                    members |= 1 << z
                    elems.append(z)
                if members & forbid:
                    return None
                reps.append(y)
    return _Node(members, len(elems), elems, trans)


def _cyclic_nodes(G: Group) -> list[_Node]:
    """One node per distinct cyclic subgroup, in order of smallest generator.
    Cached on the group."""
    cached = G._cache.get("cyclic")
    if cached is not None:
        return cached  # type: ignore[return-value]
    mul = G.mul
    done = bytearray(G.order)
    out: list[_Node] = []
    for x in range(G.order):
        if done[x]:
            continue
        elems = [0]
        members = 1
        y = x
        while y != 0:
            members |= 1 << y
            elems.append(y)
            y = mul[y][x]
        size = len(elems)
        # the other generators of <x> are larger than x and give no new node
        for t in range(1, size):
            if gcd(t, size) == 1:
                done[elems[t]] = 1
        out.append(_Node(members, size, elems, (x,) if x else ()))
    G._cache["cyclic"] = out
    return out


def _conjugate_members(G: Group, elems: list[int], g: int) -> int:
    mul, inv = G.mul, G.inv
    ig = inv[g]
    out = 0
    for x in elems:
        out |= 1 << mul[mul[ig][x]][g]
    return out


def all_subgroups(G: Group, cap: int = DEFAULT_LATTICE_CAP) -> Lattice:
    """The complete subgroup lattice of G.  Cached on the group object."""
    cached = G._cache.get("lattice")
    if cached is not None:
        return cached  # type: ignore[return-value]
    if G.order > cap:
        raise CapExceeded(f"order {G.order} exceeds lattice cap {cap}")

    cyclics = _cyclic_nodes(G)
    zuppo_gens = [
        c.gens[0] for c in cyclics if c.size > 1 and len(factorize(c.size)) == 1
    ]
    # below[j]: bitset of the generators of the zuppos numbered below j
    below: list[int] = []
    acc = 0
    for g in zuppo_gens:
        below.append(acc)
        acc |= 1 << g
    trivial = cyclics[0]
    nodes: dict[int, _Node] = {trivial.members: trivial}
    # (node, index of the first zuppo it may be extended by)
    stack = [(trivial, 0)]
    while stack:
        S, start = stack.pop()
        sm = S.members
        for j in range(start, len(zuppo_gens)):
            g = zuppo_gens[j]
            if (sm >> g) & 1:
                continue
            J = _extend_node(G, S, g, below[j] & ~sm)
            if J is None:
                continue
            if J.members in nodes:
                raise AssertionError("canonical augmentation reached a subgroup twice")
            nodes[J.members] = J
            stack.append((J, j + 1))

    order = sorted(nodes.values(), key=lambda nd: (nd.size, nd.members))
    subgroups = tuple(Subgroup(G, nd.members, nd.size) for nd in order)
    index = {sub.members: i for i, sub in enumerate(subgroups)}

    # conjugacy classes of subgroups via orbits under generator conjugation
    visited = [False] * len(subgroups)
    classes: list[tuple[int, ...]] = []
    for i, nd in enumerate(order):
        if visited[i]:
            continue
        orbit = [i]
        visited[i] = True
        for j in orbit:
            src = order[j]
            for g in G.generators:
                cm = _conjugate_members(G, src.elems, g)
                k = index.get(cm)
                if k is None:
                    raise AssertionError("conjugate of a subgroup missing from lattice")
                if not visited[k]:
                    visited[k] = True
                    orbit.append(k)
        classes.append(tuple(sorted(orbit)))
    normal_flags = [False] * len(subgroups)
    for cls in classes:
        if len(cls) == 1:
            normal_flags[cls[0]] = True

    e = exponent(G)
    power_index: dict[int, int] = {}
    for m in divisors(e):
        sub = power_subgroup(G, m)
        power_index[m] = index[sub.members]

    lat = Lattice(
        group=G,
        subgroups=subgroups,
        normal_flags=tuple(normal_flags),
        conjugacy_classes=tuple(classes),
        power_index=power_index,
        index=index,
    )
    G._cache["lattice"] = lat
    return lat


def power_subgroup(G: Group, m: int) -> Subgroup:
    """G^m: the subgroup generated by all m-th powers g^m.

    y^m lies in <x^m> for every y in <x>, so the m-th powers of one
    generator per cyclic subgroup generate G^m.
    """
    if m < 1:
        raise ValueError("m must be positive")
    return generated_subgroup(G, [c.elems[m % c.size] for c in _cyclic_nodes(G)])


def power_subgroups(G: Group, cap: int = DEFAULT_LATTICE_CAP) -> dict[int, Subgroup]:
    """G^m for every divisor m of the exponent; G^m = G^gcd(m, e) in general."""
    lat = all_subgroups(G, cap)
    return {m: lat.subgroups[i] for m, i in sorted(lat.power_index.items())}


def counts(G: Group, cap: int = DEFAULT_LATTICE_CAP) -> CountSummary:
    """s(G), ps(G), nps(G) and the per-prime (f, k) profile."""
    lat = all_subgroups(G, cap)
    e = exponent(G)
    s = len(lat.subgroups)
    power_idx = lat.power_subgroup_indices
    ps = len(power_idx)
    orders = element_orders(G)

    per_prime: list[PrimeData] = []
    for p in sorted(factorize(G.order)):
        f = max(p_valuation(o, p) for o in orders)
        k = 0
        for i in power_idx:
            sub = lat.subgroups[i]
            sz = sub.size
            if sz == 1 or p_part(sz, p) != sz:
                continue
            if _is_cyclic_subgroup(G, sub):
                k = max(k, p_valuation(sz, p))
        per_prime.append(PrimeData(p=p, f=f, k=k))

    return CountSummary(
        order=G.order,
        exponent=e,
        s=s,
        ps=ps,
        nps=s - ps,
        per_prime=tuple(per_prime),
    )


def _is_cyclic_subgroup(G: Group, H: Subgroup) -> bool:
    orders = element_orders(G)
    return any(orders[x] == H.size for x in H.elements())


def is_normal(G: Group, H: Subgroup, cap: int = DEFAULT_LATTICE_CAP) -> bool:
    if H.parent is not G:
        raise ValueError("subgroup does not belong to this group")
    lat = all_subgroups(G, cap)
    return lat.normal_flags[lat.index_of(H.members)]


def conjugates(G: Group, H: Subgroup, cap: int = DEFAULT_LATTICE_CAP) -> list[Subgroup]:
    """All distinct conjugates of H in G (H's conjugacy class)."""
    if H.parent is not G:
        raise ValueError("subgroup does not belong to this group")
    lat = all_subgroups(G, cap)
    i = lat.index_of(H.members)
    for cls in lat.conjugacy_classes:
        if i in cls:
            return [lat.subgroups[j] for j in cls]
    raise AssertionError("subgroup missing from its own lattice")


def sylow(G: Group, p: int, cap: int = DEFAULT_LATTICE_CAP) -> Subgroup:
    """A Sylow p-subgroup (first in lattice order); trivial if p does not
    divide the group order."""
    part = p_part(G.order, p)
    lat = all_subgroups(G, cap)
    for sub in lat.subgroups:
        if sub.size == part:
            return sub
    raise AssertionError("Sylow subgroup missing from lattice")


def frattini(G: Group, cap: int = DEFAULT_LATTICE_CAP) -> Subgroup:
    """Intersection of all maximal subgroups."""
    lat = all_subgroups(G, cap)
    subs = lat.subgroups
    proper = [s for s in subs if s.size < G.order]
    maximals = [
        s
        for s in proper
        if not any(
            t.size > s.size and s.members & ~t.members == 0 for t in proper
        )
    ]
    if not maximals:
        return subs[0]
    members = (1 << G.order) - 1
    for s in maximals:
        members &= s.members
    return subs[lat.index_of(members)]


def omega(G: Group, i: int, cap: int = DEFAULT_LATTICE_CAP) -> Subgroup:
    """In a p-group, the subgroup generated by elements x with x^(p^i) = 1."""
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


def cyclic_nonpower_p_count(G: Group, p: int, cap: int = DEFAULT_LATTICE_CAP) -> int:
    """Number of cyclic subgroups of p-power order (> 1) that are not power
    subgroups of G."""
    lat = all_subgroups(G, cap)
    power_idx = lat.power_subgroup_indices
    count = 0
    for i, sub in enumerate(lat.subgroups):
        sz = sub.size
        if sz == 1 or p_part(sz, p) != sz:
            continue
        if i in power_idx:
            continue
        if _is_cyclic_subgroup(G, sub):
            count += 1
    return count


def power_equals_gcd_power(G: Group, upto: int | None = None) -> bool:
    """Check G^m = G^gcd(m, e) for all 1 <= m <= upto (default: e)."""
    e = exponent(G)
    upto = e if upto is None else upto
    cache: dict[int, int] = {}
    for m in range(1, upto + 1):
        d = gcd(m, e)
        if d not in cache:
            cache[d] = power_subgroup(G, d).members
        if power_subgroup(G, m).members != cache[d]:
            return False
    return True
