"""Isomorphism testing for small concrete groups.

Cheap invariant fingerprints are compared first (cheapest first, lazily);
only when every invariant agrees does the generator-image backtracking
search run.  Candidate images are ordered by element order, then index.
"""

from __future__ import annotations

from collections import Counter

from .core import (
    DEFAULT_ORDER_CAP,
    Group,
    center,
    check_cap,
    derived_subgroup,
    element_orders,
    exponent,
    generating_sequence,
)
from .lattice import counts


def conjugacy_class_sizes(G: Group) -> tuple[int, ...]:
    """Multiset of element conjugacy class sizes, sorted."""
    cached = G._cache.get("ccsizes")
    if cached is None:
        n = G.order
        seen = [False] * n
        sizes = []
        for x in range(n):
            if seen[x]:
                continue
            orbit = [x]
            seen[x] = True
            for y in orbit:
                for g in G.generators:
                    z = G.conjugate(y, g)
                    if not seen[z]:
                        seen[z] = True
                        orbit.append(z)
            sizes.append(len(orbit))
        cached = tuple(sorted(sizes))
        G._cache["ccsizes"] = cached
    return cached  # type: ignore[return-value]


def _try_images(G: Group, H: Group, gens: list[int], images: list[int]) -> bool:
    """Whether mapping gens -> images extends to an injective homomorphism
    from <gens> into H.  When <gens> = G and |G| = |H| this is an
    isomorphism."""
    gm, hm = G.mul, H.mul
    n = G.order
    phi = [-1] * n
    phi[0] = 0
    hit = 1
    elems = [0]
    for x in elems:
        gx = gm[x]
        hx = hm[phi[x]]
        for g, h in zip(gens, images):
            y = gx[g]
            z = hx[h]
            fy = phi[y]
            if fy < 0:
                if (hit >> z) & 1:
                    return False
                hit |= 1 << z
                phi[y] = z
                elems.append(y)
            elif fy != z:
                return False
    return True


def _backtrack(G: Group, H: Group) -> bool:
    gens = generating_sequence(G)
    g_orders = element_orders(G)
    h_orders = element_orders(H)
    candidates = [
        sorted(x for x in range(H.order) if h_orders[x] == g_orders[g])
        for g in gens
    ]
    return _extend(G, H, gens, candidates, [])


def _extend(
    G: Group, H: Group, gens: list[int], candidates: list[list[int]], chosen: list[int]
) -> bool:
    """Try every image for gens[len(chosen)] in turn.  A module-level
    function, not a closure: a recursive closure is a reference cycle that
    would keep G and H alive until the cycle collector runs."""
    depth = len(chosen)
    if depth == len(gens):
        # the full-depth _try_images already passed: an injective
        # homomorphism defined on all of G is an isomorphism
        return True
    for h in candidates[depth]:
        chosen.append(h)
        if _try_images(G, H, gens[: depth + 1], chosen):
            if _extend(G, H, gens, candidates, chosen):
                return True
        chosen.pop()
    return False


def are_isomorphic(G: Group, H: Group, cap: int = DEFAULT_ORDER_CAP) -> bool:
    """Decide isomorphism between two concrete groups of order <= cap."""
    check_cap(max(G.order, H.order), cap)
    if G is H:
        return True
    if G.order != H.order:
        return False
    if exponent(G) != exponent(H):
        return False
    if Counter(element_orders(G)) != Counter(element_orders(H)):
        return False
    if center(G).size != center(H).size:
        return False
    if derived_subgroup(G).size != derived_subgroup(H).size:
        return False
    if conjugacy_class_sizes(G) != conjugacy_class_sizes(H):
        return False
    cg, ch = counts(G, cap=cap), counts(H, cap=cap)
    if (cg.s, cg.ps, cg.nps) != (ch.s, ch.ps, ch.nps):
        return False
    return _backtrack(G, H)
