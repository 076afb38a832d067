"""Concrete finite groups as closed multiplication tables.

A Group stores an order x order multiplication table over element indices
0..order-1 with the identity fixed at index 0.  Groups are immutable after
construction and safe to share between threads; every structural operation
returns a new object.  Subgroups are bitsets over the parent's element
indices.

Permutations act on the right throughout: (p * q)[i] = q[p[i]], and in a
semidirect product N x| K the factor K acts on N.

Every table is built by one routine, `group_from_columns`, from the
right-multiplication columns of a generating set; `direct_product`,
`semidirect_product` and `metacyclic_group` keep the numbering
n * |K| + k of the pair (n, k).
"""

from __future__ import annotations

from math import gcd, lcm, prod
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

DEFAULT_ORDER_CAP = 600


class CapExceeded(RuntimeError):
    """A construction or enumeration outgrew its configured size cap."""


def check_cap(order: int, cap: int) -> None:
    """Raise CapExceeded when a group of this order is beyond the lattice
    cap; the one check every lattice query and isomorphism test makes."""
    if order > cap:
        raise CapExceeded(f"order {order} exceeds lattice cap {cap}")


class Record:
    """Immutable record whose fields are the subclass's annotations, in order.

    It behaves as a frozen dataclass without the cost of generating one per
    class at import: a class attribute is a field's default, `__post_init__`
    runs after the fields are set, and equality, hash and repr work over the
    tuple of fields.  Fields named in `_hidden` are left out of equality,
    hash and repr.  Methods a subclass defines itself take precedence.
    """

    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._shown = tuple(f for f in cls._fields if f not in cls._hidden)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names):
            raise TypeError(
                f"{type(self).__name__}() takes {len(names)} arguments "
                f"but {len(args)} were given"
            )
        values = dict(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in self._defaults:
                values[name] = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(
                f"{type(self).__name__}() got unexpected or repeated "
                f"argument(s) {', '.join(map(repr, kwargs))}"
            )
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._shown))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Group:
    """Finite group on indices 0..order-1 with identity 0.

    Attributes:
        order: number of elements.
        mul: tuple of tuples; mul[x][y] is the index of the product x*y.
        inv: tuple; inv[x] is the index of x^-1.
        generators: indices of a generating set (in construction order).
        label: optional display name.
    """

    __slots__ = ("order", "mul", "inv", "generators", "label", "_cache")

    def __init__(
        self,
        mul: Sequence[Sequence[int]],
        generators: Sequence[int],
        label: str | None = None,
    ):
        self._setup(mul, None, generators, label)

    @classmethod
    def _with_inverses(
        cls,
        mul: Sequence[Sequence[int]],
        inv: Sequence[int],
        generators: Sequence[int],
        label: str | None = None,
    ) -> "Group":
        """A group whose builder knows its inverses.  They are checked in
        O(n), x * inv[x] = 0 = inv[x] * x for every x, instead of being
        found by scanning every row of the table for the identity."""
        G = cls.__new__(cls)
        G._setup(mul, inv, generators, label)
        return G

    def _setup(
        self,
        mul: Sequence[Sequence[int]],
        given_inv: Sequence[int] | None,
        generators: Sequence[int],
        label: str | None,
    ) -> None:
        n = len(mul)
        if n == 0:
            raise ValueError("a group needs at least the identity element")
        self.order = n
        # tuple() of a tuple is the tuple itself, so a table built as
        # tuples is not copied again
        self.mul = mul = tuple(map(tuple, mul))
        ident = tuple(range(n))
        if mul[0] != ident or tuple(row[0] for row in mul) != ident:
            raise ValueError("element 0 is not a two-sided identity")
        if given_inv is None:
            # the identity's place in each row; a row without it fails below
            given_inv = [row.index(0) if 0 in row else -1 for row in mul]
        self.inv = tuple(given_inv)
        if len(self.inv) != n:
            raise ValueError("inverse table has wrong length")
        for x, y in enumerate(self.inv):
            if not 0 <= y < n or mul[x][y] or mul[y][x]:
                raise ValueError(f"element {x} has no two-sided inverse")
        gens: list[int] = []
        for g in generators:
            if not 0 <= g < n:
                raise ValueError(f"generator index {g} out of range")
            if g not in gens:
                gens.append(g)
        self.generators = tuple(gens)
        self.label = label
        self._cache: dict[str, object] = {}

    def __repr__(self) -> str:
        name = self.label or "Group"
        return f"<{name} of order {self.order}>"

    def elements(self) -> range:
        return range(self.order)

    def power(self, x: int, k: int) -> int:
        """x^k by binary powering; k may be negative."""
        if k < 0:
            x, k = self.inv[x], -k
        mul = self.mul
        acc = 0
        while k:
            if k & 1:
                acc = mul[acc][x]
            x = mul[x][x]
            k >>= 1
        return acc

    def conjugate(self, x: int, g: int) -> int:
        """g^-1 * x * g."""
        return self.mul[self.mul[self.inv[g]][x]][g]

    def commutator(self, x: int, y: int) -> int:
        """[x, y] = x^-1 y^-1 x y."""
        mul = self.mul
        return mul[mul[mul[self.inv[x]][self.inv[y]]][x]][y]

    def validate(self) -> None:
        """Check the table axioms; raises ValueError on any violation.

        Associativity uses Light's test over the generating set, which is
        equivalent to the full check because every element is a product of
        generators (itself verified here via the closure check).
        """
        n = self.order
        mul = self.mul
        closure = generated_indices(self, self.generators)
        if len(closure) != n:
            raise ValueError("generator set does not generate the group")
        for g in list(self.generators) or [0]:
            grow = mul[g]
            for x in range(n):
                gx = grow[x]
                rx = mul[x]
                mgx = mul[gx]
                for y in range(n):
                    if mgx[y] != grow[rx[y]]:
                        raise ValueError(
                            f"associativity fails at ({g}, {x}, {y})"
                        )


class Subgroup(Record):
    """Subgroup of `parent` as a bitset of element indices."""

    parent: Group
    members: int
    size: int

    def __contains__(self, x: int) -> bool:
        return bool((self.members >> x) & 1)

    def elements(self) -> Iterator[int]:
        return _bits(self.members)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent is other.parent and self.members == other.members

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))


class Morphism(Record):
    """Group homomorphism given by per-element image indices."""

    domain: Group
    codomain: Group
    images: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.images[x]

    def validate(self) -> None:
        g, h = self.domain, self.codomain
        img = self.images
        if len(img) != g.order:
            raise ValueError("image table has wrong length")
        for x in range(g.order):
            gx = g.mul[x]
            hx = h.mul[img[x]]
            for y in range(g.order):
                if img[gx[y]] != hx[img[y]]:
                    raise ValueError(f"not a homomorphism at ({x}, {y})")


def _bits(members: int) -> Iterator[int]:
    while members:
        low = members & -members
        yield low.bit_length() - 1
        members ^= low


def getter(idx: Sequence[int]):
    """A callable that picks the entries at the indices `idx` out of a
    sequence, as a tuple, in one C-level call.  itemgetter of a single
    index returns the bare entry instead, so that case gets its own."""
    if len(idx) == 1:
        i = idx[0]
        return lambda seq: (seq[i],)
    return itemgetter(*idx)


def bit_table(G: Group) -> list[int]:
    """[1 << x for every element x], so that the bitset of a set of
    elements is one C-level sum over it.  Cached on the group."""
    cached = G._cache.get("bits")
    if cached is None:
        cached = G._cache["bits"] = [1 << x for x in range(G.order)]
    return cached  # type: ignore[return-value]


def coset_closure(
    mul: Sequence[Sequence[int]],
    take,
    seen: set[int],
    gens: Sequence[int],
    zidx: Sequence[int] | None = None,
    bound: int = 0,
) -> list[int] | None:
    """The elements that <H, gens> adds to a subgroup H, one left coset
    y*H at a time.

    `take` is `getter(H's elements)`, so the coset y*H is row y of the
    table taken at H's elements, `take(mul[y])`; `seen` holds H's elements
    and grows by every new coset.  `gens` must generate <H, gens> on their
    own, so they include generators of H.  Each coset representative y
    gives the representatives g*y for g in gens, and one that is not yet
    seen brings in its whole coset.  The union is then closed under left
    multiplication by gens, so it is the subgroup they generate.

    With `zidx`, the closure is abandoned, and None returned, as soon as a
    new coset holds an element x with zidx[x] < bound.
    """
    rows = [mul[g] for g in gens]
    new: list[int] = []
    reps = [0]
    for r in reps:
        for row in rows:
            y = row[r]
            if y not in seen:
                coset = take(mul[y])
                if zidx is not None and min(getter(coset)(zidx)) < bound:
                    return None
                seen.update(coset)
                new += coset
                reps.append(y)
    return new


def generated_indices(G: Group, gens: Iterable[int]) -> list[int]:
    """Elements of the subgroup generated by `gens`: the identity, then
    the cosets each generator not yet inside adds."""
    mul = G.mul
    elems = [0]
    seen = {0}
    hgens: list[int] = []
    for g in gens:
        if g not in seen:
            hgens.append(g)
            new = coset_closure(mul, getter(elems), seen, hgens)
            elems += new  # type: ignore[operator]
    return elems


def generated_subgroup(G: Group, gens: Iterable[int]) -> Subgroup:
    """Subgroup of G generated by the given element indices."""
    elems = generated_indices(G, gens)
    return Subgroup(G, sum(getter(elems)(bit_table(G))), len(elems))


def element_order(G: Group, x: int) -> int:
    """Least k >= 1 with x^k = identity."""
    if not 0 <= x < G.order:
        raise IndexError(f"element index {x} out of range")
    mul = G.mul
    k = 1
    y = x
    while y != 0:
        y = mul[y][x]
        k += 1
    return k


def cyclic_subgroups(G: Group) -> list[list[int]]:
    """The powers [1, x, x^2, ...] of one generator x of each distinct
    cyclic subgroup, x the smallest, in order of x.  Every element
    generates exactly one of them, so the same walk gives every element's
    order for `element_orders`.  Both are cached on the group."""
    cached = G._cache.get("cyclic")
    if cached is None:
        mul = G.mul
        orders = [0] * G.order
        cached = []
        for x in range(G.order):
            if orders[x]:
                continue  # x generates a subgroup walked already
            powers = [0]
            y = x
            while y != 0:
                powers.append(y)
                y = mul[y][x]
            k = len(powers)
            for t in range(k):
                if gcd(t, k) == 1:
                    orders[powers[t]] = k
            cached.append(powers)
        G._cache["cyclic"] = cached
        G._cache["orders"] = tuple(orders)
    return cached  # type: ignore[return-value]


def element_orders(G: Group) -> tuple[int, ...]:
    """Order of every element, from the walk of `cyclic_subgroups`."""
    if "orders" not in G._cache:
        cyclic_subgroups(G)
    return G._cache["orders"]  # type: ignore[return-value]


def exponent(G: Group) -> int:
    """lcm of all element orders."""
    cached = G._cache.get("exponent")
    if cached is None:
        cached = lcm(*element_orders(G)) if G.order > 1 else 1
        G._cache["exponent"] = cached
    return cached  # type: ignore[return-value]


def is_abelian(G: Group) -> bool:
    mul = G.mul
    gens = G.generators
    return all(mul[g][x] == mul[x][g] for g in gens for x in range(G.order))


def center(G: Group) -> Subgroup:
    mul = G.mul
    n = G.order
    gens = G.generators or ()
    members = 0
    size = 0
    for z in range(n):
        zrow = mul[z]
        if all(zrow[g] == mul[g][z] for g in gens):
            members |= 1 << z
            size += 1
    # commuting with all generators = commuting with everything
    return Subgroup(G, members, size)


def derived_subgroup(G: Group) -> Subgroup:
    """G' as the normal closure of the commutators of the generators: in
    the quotient by that closure the generators commute, so it is abelian.

    The closure grows until conjugating each of its generators by each
    generator of G stays inside it, which makes it normal.
    """
    gens = G.generators
    mul, inv = G.mul, G.inv
    hgens = [G.commutator(a, b) for i, a in enumerate(gens) for b in gens[:i]]
    H = generated_subgroup(G, hgens)
    while True:
        new = [
            c
            for c in dict.fromkeys(mul[mul[inv[g]][h]][g] for h in hgens for g in gens)
            if not (H.members >> c) & 1
        ]
        if not new:
            return H
        hgens += new
        H = generated_subgroup(G, hgens)


def subgroup_group(G: Group, H: Subgroup, label: str | None = None) -> Group:
    """The subgroup H as a standalone Group (elements reindexed ascending)."""
    if H.parent is not G:
        raise ValueError("subgroup does not belong to this group")
    elems = list(_bits(H.members))
    index = {e: i for i, e in enumerate(elems)}
    gens = generating_sequence_of_subset(G, elems)
    cols = [[index[G.mul[a][g]] for a in elems] for g in gens]
    return group_from_columns(cols, [index[g] for g in gens], label)


def generating_sequence_of_subset(G: Group, elems: list[int]) -> list[int]:
    """Small irredundant generating sequence for a subgroup given as elements.

    Greedy: repeatedly adjoin the highest-order element not yet generated
    (ties broken by smallest index).  Deterministic.
    """
    target = 0
    for e in elems:
        target |= 1 << e
    orders = element_orders(G)
    ranked = sorted(elems, key=lambda e: (-orders[e], e))
    got = 1
    seq: list[int] = []
    for e in ranked:
        if (got >> e) & 1:
            continue
        seq.append(e)
        got = generated_subgroup(G, seq).members
        if got == target:
            break
    return seq


def generating_sequence(G: Group) -> list[int]:
    cached = G._cache.get("genseq")
    if cached is None:
        cached = generating_sequence_of_subset(G, list(range(G.order)))
        G._cache["genseq"] = cached
    return list(cached)  # type: ignore[arg-type]


def group_from_generators(
    degree: int,
    perms: Sequence[Sequence[int]],
    cap: int = DEFAULT_ORDER_CAP,
    label: str | None = None,
) -> Group:
    """Group generated by permutations of 0..degree-1: `group_from_columns`
    of the columns of `closure_columns`.

    Element 0 is the identity; elements are numbered in breadth-first
    closure order from the identity, applying generators in input order.
    Raises CapExceeded when the closure outgrows `cap`, ValueError on
    non-bijective input.  This builds the whole table; the CLI counts an
    abelian corpus entry from its `closure_columns` (`lattice.column_counts`)
    and builds its table only for an isomorphism test.
    """
    return group_from_columns(closure_columns(degree, perms, cap), label=label)


def closure_columns(
    degree: int, perms: Sequence[Sequence[int]], cap: int = DEFAULT_ORDER_CAP
) -> list[list[int]]:
    """The columns cols[j][x] = x * s_j of the group generated by the
    permutations s_j of 0..degree-1, in the numbering of
    `group_from_generators`.  Raises CapExceeded when the closure
    outgrows `cap`, ValueError on non-bijective input.

    The closure first keys each element by its images of a base, the
    smallest point of each orbit of the group, and not of all points.
    Two elements with one key differ by an element of the pointwise
    stabilizer H of the base, so that closure walks the right cosets of H
    and its columns are the generators' action on them.  The left
    translations built down the spanning tree commute with every column
    exactly when each generator normalizes H; a normal subgroup that fixes
    a point of every orbit fixes every point, so H is then trivial and the
    columns are the group's own.  Otherwise the closure runs again keyed by
    all points.  Either way the numbering is the one above.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    gens: list[tuple[int, ...]] = []
    for p in perms:
        t = tuple(p)
        if len(t) != degree or sorted(t) != list(range(degree)):
            raise ValueError(f"not a permutation of 0..{degree - 1}: {p!r}")
        gens.append(t)

    cols = _closure(gens, _orbit_minima(degree, gens), cap)
    if not _translations_commute(cols):
        cols = _closure(gens, range(degree), cap)
    return cols


def _orbit_minima(degree: int, gens: Sequence[Sequence[int]]) -> list[int]:
    """The smallest point of each orbit of <gens> on 0..degree-1."""
    seen = [False] * degree
    base = []
    for b in range(degree):
        if not seen[b]:
            base.append(b)
            seen[b] = True
            orbit = [b]
            for x in orbit:
                for p in gens:
                    y = p[x]
                    if not seen[y]:
                        seen[y] = True
                        orbit.append(y)
    return base


def _closure(
    gens: Sequence[tuple[int, ...]], points: Iterable[int], cap: int
) -> list[list[int]]:
    """The columns of `gens` acting on the distinct images of `points`,
    numbered breadth first from the points themselves.  An element x is
    keyed by its images x[b] of the points b; x then p has the key p
    picked at the points of x's key."""
    key = tuple(points)
    index = {key: 0}
    keys = [key]
    cols: list[list[int]] = [[] for _ in gens]
    for x in keys:
        # one itemgetter call, faster than a list comprehension, and than
        # map(p.__getitem__, x), whose slot wrapper parses its argument on
        # every call
        pick = getter(x)
        for p, col in zip(gens, cols):
            y = pick(p)
            j = index.get(y)
            if j is None:
                j = len(keys)
                if j >= cap:
                    raise CapExceeded(
                        f"closure exceeds cap {cap} (degree {len(gens[0])})"
                    )
                index[y] = j
                keys.append(y)
            col.append(j)
    return cols


def _spanning_tree(cols: Sequence[Sequence[int]]) -> tuple[list[int], list[int], list[int]]:
    """A breadth-first spanning tree from 0 of the graph whose edges are
    the columns: (parent, via, tree), with c = cols[via[c]][parent[c]] for
    every c != 0, and tree the elements in the order reached.  ValueError
    when the columns do not reach every element."""
    n = len(cols[0]) if cols else 1
    parent = [0] + [-1] * (n - 1)
    via = [0] * n
    tree = [0]
    for p in tree:
        for j, col in enumerate(cols):
            c = col[p]
            if parent[c] < 0:
                parent[c] = p
                via[c] = j
                tree.append(c)
    if len(tree) < n:
        raise ValueError("the generators' columns do not reach every element")
    return parent, via, tree


def _left_translation(
    cols: Sequence[Sequence[int]], j: int, parent: list[int], via: list[int], tree: list[int]
) -> list[int]:
    """s_j * c for every c, walked down the spanning tree as
    s_j * c = (s_j * parent[c]) * s_via[c]."""
    left = [cols[j][0]] * len(parent)
    for c in tree:
        left[c] = cols[via[c]][left[parent[c]]]
    return left


def _translations_commute(cols: Sequence[Sequence[int]]) -> bool:
    """Whether the left translation by each s_j, built down the spanning
    tree, commutes with the right multiplication by every s_k: s_j * (x *
    s_k) = (s_j * x) * s_k for every x.  O(n k^2) for n elements and k
    columns."""
    parent, via, tree = _spanning_tree(cols)
    del tree[0]
    for j in range(len(cols)):
        left = _left_translation(cols, j, parent, via, tree)
        after = getter(left)
        if any(getter(col)(left) != after(col) for col in cols):
            return False
    return True


def group_from_columns(
    cols: Sequence[Sequence[int]],
    generators: Sequence[int] | None = None,
    label: str | None = None,
) -> Group:
    """The group on indices 0..n-1 whose right multiplication by each s_j
    of a generating set is given as a column: cols[j][x] is the index of
    x * s_j.  No columns give the trivial group; columns that do not reach
    every element raise ValueError.  The generators default to the s_j,
    the entries cols[j][0].

    A breadth-first spanning tree from the identity writes every element
    c != 0 as c = parent[c] * s, s = s_via[c].  Row c is row parent[c]
    picked at the row of s, one itemgetter call per row, and the row of
    each such s is walked down the same tree first, as
    s * c = (s * parent[c]) * s_via[c].  So are the inverses,
    c^-1 = s^-1 * parent[c]^-1, where s^-1 is the one element that the
    column of s sends to 0.  Every row shares the int objects of row 0.
    """
    parent, via, tree = _spanning_tree(cols)
    n = len(parent)
    del tree[0]
    rows: list = [None] * n
    rows[0] = tuple(range(n))
    picks = {
        j: getter(_left_translation(cols, j, parent, via, tree))
        for j in dict.fromkeys(via[c] for c in tree)
    }
    for c in tree:
        rows[c] = picks[via[c]](rows[parent[c]])
    inv_rows = {j: rows[cols[j].index(0)] for j in picks}
    inv = [0] * n
    for c in tree:
        inv[c] = inv_rows[via[c]][inv[parent[c]]]
    if generators is None:
        generators = [col[0] for col in cols]
    return Group._with_inverses(tuple(rows), inv, generators, label)


def trivial_group(label: str | None = None) -> Group:
    return Group([[0]], [], label=label or "1")


def cyclic_group(n: int, label: str | None = None) -> Group:
    """C_n, the metacyclic group (n, 1, 1, 0): element i is b^i."""
    if n < 1:
        raise ValueError("order must be positive")
    return metacyclic_group(n, 1, 1, 0, label or f"C{n}")


def metacyclic_group(Q: int, P: int, r: int, t: int = 0, label: str | None = None) -> Group:
    """<b>.<a> with |b| = Q, a^P = b^t and the twist a^-1 b a = b^r; t = 0
    gives C_Q x| C_P.  b^v a^k is numbered v * P + k, as
    `semidirect_product` numbers the pair (v, k) of the two cyclic groups.
    The carry t makes a^P = b^t, not 1: Q(4Q) is (Q, 2, -1, Q/2).

    The table is `group_from_columns` of the generators' columns.  As
    a^k b = b^(r^-k) a^k, b^v a^k * b = b^(v + r^-k) a^k, and
    b^v a^k * a = b^v a^(k+1), with a^P wrapping to b^t.  b is left out
    when Q = 1, and a when P = 1, where it is b^t.  The caller checks the
    cap.  r^P = 1 and r * t = t mod Q, which make v -> r^-1 * v an
    automorphism of C_Q of order dividing P fixing b^t = a^P, are checked
    first; the error is `semidirect_product`'s.
    """
    if pow(r, P, Q) != 1 % Q or (r - 1) * t % Q:
        raise ValueError(
            "generator images do not extend to a homomorphism K -> Aut(N)"
        )
    cols = []
    if Q > 1:
        shifts = [pow(r, -k, Q) for k in range(P)]
        cols.append([(v + s) % Q * P + k for v in range(Q) for k, s in enumerate(shifts)])
    if P > 1:
        cols.append(
            [v * P + k + 1 if k + 1 < P else (v + t) % Q * P for v in range(Q) for k in range(P)]
        )
    return group_from_columns(cols, label=label)


def direct_product(
    G: Group, H: Group, cap: int = DEFAULT_ORDER_CAP, label: str | None = None
) -> Group:
    """Componentwise product on pairs (g, h), encoded g * |H| + h."""
    n1, n2 = G.order, H.order
    if n1 * n2 > cap:
        raise CapExceeded(f"product order {n1 * n2} exceeds cap {cap}")
    return group_from_columns(*product_columns([G, H]), label)


def product_columns(groups: Sequence[Group]) -> tuple[list[list[int]], list[int]]:
    """Columns and generators for `group_from_columns` of the direct
    product of `groups` on tuples (x_1, ..., x_k) in mixed radix, x_1 the
    most significant: the numbering of ((G_1 x G_2) x ...) x G_k by
    `direct_product`.  The generators are each factor's in turn, each as
    the tuple with the identity in every other place."""
    n = prod(G.order for G in groups)
    cols, gens = [], []
    w = n
    for G in groups:
        # x = h + x_i * w + l with h a multiple of |G| * w and l < w;
        # right multiplication by g changes only the digit x_i
        block, w = w, w // G.order
        for g in G.generators:
            col = [row[g] * w for row in G.mul]
            cols.append(
                [h + c + l for h in range(0, n, block) for c in col for l in range(w)]
            )
            gens.append(g * w)
    return cols, gens


def semidirect_product(
    N: Group,
    K: Group,
    action: Sequence[Sequence[int]],
    cap: int = DEFAULT_ORDER_CAP,
    label: str | None = None,
) -> Group:
    """Semidirect product with K acting on N.

    `action` assigns to each generator of K (in K.generators order) an
    automorphism of N as an element permutation.  The assignment must
    extend to a homomorphism K -> Aut(N); this is verified as
    act(k * g) = act(k) o act(g) for every k in K and every generator g,
    which gives it for every pair by induction on the length of a word in
    the generators.  Multiplication on pairs:

        (n1, k1) * (n2, k2) = (n1 * act(k1)(n2), k1 * k2)

    so conjugation satisfies k^-1 n k = act(k^-1)(n).
    """
    if len(action) != len(K.generators):
        raise ValueError(
            f"need one automorphism per K generator "
            f"({len(K.generators)}), got {len(action)}"
        )
    nn, nk = N.order, K.order
    if nn * nk > cap:
        raise CapExceeded(f"product order {nn * nk} exceeds cap {cap}")

    # getter(t) applied to row x of N gives the row of x * t(c) over all c
    gen_gets = []
    for p in action:
        t = tuple(p)
        if len(t) != nn or sorted(t) != list(range(nn)):
            raise ValueError(f"action entry is not a permutation of N: {p!r}")
        tget = getter(t)
        # t(a * b) = t(a) * t(b) for every b, one row a at a time
        if t[0] != 0 or any(
            getter(N.mul[a])(t) != tget(N.mul[t[a]]) for a in range(nn)
        ):
            raise ValueError("action entry is not an automorphism of N")
        gen_gets.append(tget)

    # act(k * g) = act(k) o act(g) as a left action: breadth first over K,
    # each k's action is set by the first pair (k', g) with k' * g = k,
    # and every other pair must agree with it
    auts: list = [None] * nk
    auts[0] = tuple(range(nn))
    queue = [0]
    agree = True
    for k in queue:
        krow = K.mul[k]
        for tget, g in zip(gen_gets, K.generators):
            a, y = tget(auts[k]), krow[g]
            if auts[y] is None:
                auts[y] = a
                queue.append(y)
            elif auts[y] != a:
                agree = False
    if len(queue) < nk:
        raise ValueError("K's generators do not generate K")
    if not agree:
        raise ValueError(
            "generator images do not extend to a homomorphism K -> Aut(N)"
        )

    # (n, k) * (g, e) = (n * act(k)(g), k) for a generator g of N and the
    # identity e of K; the columns of K's generators are the direct product's
    cols, gens = product_columns([N, K])
    cols[:len(N.generators)] = [
        [row[a[g]] * nk + k for row in N.mul for k, a in enumerate(auts)]
        for g in N.generators
    ]
    return group_from_columns(cols, gens, label)


def is_normal_subgroup(G: Group, H: Subgroup) -> bool:
    """Whether H is invariant under conjugation by G (checked on generators)."""
    if H.parent is not G:
        raise ValueError("subgroup does not belong to this group")
    mul, inv = G.mul, G.inv
    for g in G.generators:
        ig = inv[g]
        for x in _bits(H.members):
            if not (H.members >> mul[mul[ig][x]][g]) & 1:
                return False
    return True


def quotient(G: Group, N: Subgroup, label: str | None = None) -> tuple[Group, Morphism]:
    """Coset group G/N with the canonical projection; N must be normal."""
    if N.parent is not G:
        raise ValueError("subgroup does not belong to this group")
    if not is_normal_subgroup(G, N):
        raise ValueError("subgroup is not normal")
    mul = G.mul
    nelems = list(_bits(N.members))
    coset_of = [-1] * G.order
    reps: list[int] = []
    for x in range(G.order):
        if coset_of[x] < 0:
            for s in nelems:
                coset_of[mul[s][x]] = len(reps)
            reps.append(x)
    qgens = list(dict.fromkeys(coset_of[g] for g in G.generators if coset_of[g]))
    cols = [[coset_of[mul[x][reps[s]]] for x in reps] for s in qgens]
    Q = group_from_columns(cols, qgens, label)
    return Q, Morphism(G, Q, tuple(coset_of))
