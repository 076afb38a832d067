"""Concrete finite groups as closed multiplication tables.

A Group stores an order x order multiplication table over element indices
0..order-1 with the identity fixed at index 0.  Groups are immutable after
construction and safe to share between threads; every structural operation
returns a new object.  Subgroups are bitsets over the parent's element
indices.

Permutations act on the right throughout: (p * q)[i] = q[p[i]], and in a
semidirect product N x| K the factor K acts on N.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from typing import Iterable, Iterator, Sequence

DEFAULT_ORDER_CAP = 4096


class CapExceeded(RuntimeError):
    """A construction or enumeration outgrew its configured size cap."""


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
        inv = []
        for x, row in enumerate(mul):
            try:
                y = row.index(0)
            except ValueError:
                y = -1
            if y < 0 or mul[y][x] != 0:
                raise ValueError(f"element {x} has no two-sided inverse")
            inv.append(y)
        self.inv = tuple(inv)
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
        m = self.members
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low
        return

    def is_subset_of(self, other: "Subgroup") -> bool:
        return self.members & ~other.members == 0

    def is_whole_group(self) -> bool:
        return self.size == self.parent.order

    def is_trivial(self) -> bool:
        return self.size == 1

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


def generated_indices(G: Group, gens: Iterable[int]) -> list[int]:
    """Elements of the subgroup generated by `gens`, in closure order."""
    mul = G.mul
    seen = 1
    elems = [0]
    glist = [g for g in dict.fromkeys(gens) if g != 0]
    for x in elems:
        row = mul[x]
        for g in glist:
            y = row[g]
            if not (seen >> y) & 1:
                seen |= 1 << y
                elems.append(y)
    return elems


def generated_subgroup(G: Group, gens: Iterable[int]) -> Subgroup:
    """Subgroup of G generated by the given element indices."""
    elems = generated_indices(G, gens)
    members = 0
    for x in elems:
        members |= 1 << x
    return Subgroup(G, members, len(elems))


def subgroup_from_members(G: Group, members: int) -> Subgroup:
    """Wrap a bitset known to be closed; verifies closure and inverses."""
    mul, inv = G.mul, G.inv
    if not members & 1:
        raise ValueError("subgroup must contain the identity")
    elems = list(_bits(members))
    for x in elems:
        if not (members >> inv[x]) & 1:
            raise ValueError("set is not closed under inverses")
        row = mul[x]
        for y in elems:
            if not (members >> row[y]) & 1:
                raise ValueError("set is not closed under multiplication")
    return Subgroup(G, members, len(elems))


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


def element_orders(G: Group) -> tuple[int, ...]:
    """Order of every element, from one power walk per cyclic subgroup:
    when x has order k, x^i has order k / gcd(i, k)."""
    cached = G._cache.get("orders")
    if cached is None:
        mul = G.mul
        orders = [0] * G.order
        for x in range(G.order):
            if orders[x]:
                continue
            powers = [0]
            y = x
            while y != 0:
                powers.append(y)
                y = mul[y][x]
            k = len(powers)
            for i, y in enumerate(powers):
                orders[y] = k // gcd(i, k)
        cached = tuple(orders)
        G._cache["orders"] = cached
    return cached  # type: ignore[return-value]


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
    mul = [[index[G.mul[a][b]] for b in elems] for a in elems]
    gens = [index[g] for g in generating_sequence_of_subset(G, elems)]
    return Group(mul, gens, label=label)


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
        sub = generated_indices(G, seq)
        got = 0
        for x in sub:
            got |= 1 << x
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
    """Group generated by permutations of 0..degree-1.

    Element 0 is the identity; elements are numbered in breadth-first
    closure order from the identity, applying generators in input order.
    Raises CapExceeded when the closure outgrows `cap`, ValueError on
    non-bijective input.
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    gens: list[tuple[int, ...]] = []
    for p in perms:
        t = tuple(p)
        if len(t) != degree or sorted(t) != list(range(degree)):
            raise ValueError(f"not a permutation of 0..{degree - 1}: {p!r}")
        gens.append(t)

    ident = tuple(range(degree))
    index = {ident: 0}
    elems = [ident]
    parent: list[int] = [0]
    genpos: list[int] = [-1]
    gen_cols: list[list[int]] = [[] for _ in gens]
    i = 0
    while i < len(elems):
        x = elems[i]
        for gi, p in enumerate(gens):
            # a list comprehension beats both a generator and
            # map(p.__getitem__, x): a tuple's __getitem__ is a slot
            # wrapper that parses its argument on every call
            y = tuple([p[v] for v in x])
            j = index.get(y)
            if j is None:
                j = len(elems)
                if j >= cap:
                    raise CapExceeded(
                        f"closure exceeds cap {cap} (degree {degree})"
                    )
                index[y] = j
                elems.append(y)
                parent.append(i)
                genpos.append(gi)
            gen_cols[gi].append(j)
        i += 1

    mul = table_by_columns(gen_cols, range(1, len(elems)), parent, genpos)
    gen_idx = [gen_cols[gi][0] for gi in range(len(gens))]
    return Group(mul, gen_idx, label=label)


def table_by_columns(
    perms: Sequence[Sequence[int]],
    tree: Iterable[int],
    parent: Sequence[int],
    via: Sequence[int],
) -> tuple[tuple[int, ...], ...]:
    """Multiplication table of a group from its right-regular generators.

    `perms[j]` maps each element x to x * s_j for a generator s_j.  Every
    element c != 0 is its spanning-tree parent times one generator,
    c = parent[c] * s_via[c], and `tree` lists those elements parents
    first.  Column c of the table is then column parent[c] mapped through
    perms[via[c]]; the columns are built whole and transposed into rows.
    """
    n = len(parent)
    cols: list = [None] * n
    cols[0] = tuple(range(n))
    for c in tree:
        cols[c] = tuple(map(perms[via[c]].__getitem__, cols[parent[c]]))
    return tuple(zip(*cols))


def trivial_group(label: str | None = None) -> Group:
    return Group([[0]], [], label=label or "1")


def cyclic_group(n: int, label: str | None = None) -> Group:
    if n < 1:
        raise ValueError("order must be positive")
    r = tuple(range(n))
    mul = tuple(r[i:] + r[:i] for i in range(n))
    gens = [1] if n > 1 else []
    return Group(mul, gens, label=label or f"C{n}")


def direct_product(
    G: Group, H: Group, cap: int = DEFAULT_ORDER_CAP, label: str | None = None
) -> Group:
    """Componentwise product on pairs (g, h), encoded g * |H| + h."""
    n1, n2 = G.order, H.order
    if n1 * n2 > cap:
        raise CapExceeded(f"product order {n1 * n2} exceeds cap {cap}")
    gens = [g * n2 for g in G.generators] + list(H.generators)
    return Group(_pair_table(G.mul, H.mul, None), gens, label=label)


def _pair_table(
    nmul: Sequence[Sequence[int]],
    kmul: Sequence[Sequence[int]],
    auts: Sequence[Sequence[int]] | None,
) -> tuple[tuple[int, ...], ...]:
    """Table of N x| K on pairs (n, k) encoded n * |K| + k, with auts[k]
    the action of k on N (None for the direct product):

        (n1, k1) * (n2, k2) = (n1 * auts[k1](n2), k1 * k2)

    Row (n1, k1) is |N| blocks of |K| entries.  Block n2 depends only on
    v = n1 * auts[k1](n2) and on k1: it is v * |K| + K.mul[k1], so each
    (k1, v) block is made once and the rows are joined from them.
    """
    nk = len(kmul)
    blocks = [
        tuple(tuple(map((v * nk).__add__, krow)) for v in range(len(nmul)))
        for krow in kmul
    ]
    rows = []
    for nrow in nmul:
        for k1, kblocks in enumerate(blocks):
            vs = nrow if auts is None else map(nrow.__getitem__, auts[k1])
            rows.append(tuple(chain.from_iterable(map(kblocks.__getitem__, vs))))
    return tuple(rows)


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
    extend to a homomorphism K -> Aut(N); this is verified against K's
    full multiplication table.  Multiplication on pairs:

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

    gen_auts: list[tuple[int, ...]] = []
    for p in action:
        t = tuple(p)
        if len(t) != nn or sorted(t) != list(range(nn)):
            raise ValueError(f"action entry is not a permutation of N: {p!r}")
        # t(a * b) = t(a) * t(b) for every b, one row a at a time
        if t[0] != 0 or any(
            tuple(map(t.__getitem__, N.mul[a])) != tuple(map(N.mul[t[a]].__getitem__, t))
            for a in range(nn)
        ):
            raise ValueError("action entry is not an automorphism of N")
        gen_auts.append(t)

    # extend by BFS over K: act(k * g) = act(k) o act(g) as a left action
    ident = tuple(range(nn))
    auts: list[tuple[int, ...] | None] = [None] * nk
    auts[0] = ident
    queue = [0]
    for k in queue:
        ak = auts[k]
        assert ak is not None
        for gi, g in enumerate(K.generators):
            y = K.mul[k][g]
            if auts[y] is None:
                ga = gen_auts[gi]
                auts[y] = tuple(map(ak.__getitem__, ga))
                queue.append(y)
    if any(a is None for a in auts):
        raise ValueError("K's generators do not generate K")
    for k1, krow in enumerate(K.mul):
        a1 = auts[k1]
        for k2, k12 in enumerate(krow):
            if auts[k12] != tuple(map(a1.__getitem__, auts[k2])):
                raise ValueError(
                    "generator images do not extend to a homomorphism "
                    "K -> Aut(N)"
                )

    gens = [g * nk for g in N.generators] + list(K.generators)
    return Group(_pair_table(N.mul, K.mul, auts), gens, label=label)


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
    n = G.order
    mul = G.mul
    nelems = list(_bits(N.members))
    coset_of = [-1] * n
    reps: list[int] = []
    for x in range(n):
        if coset_of[x] >= 0:
            continue
        c = len(reps)
        reps.append(x)
        for s in nelems:
            coset_of[mul[s][x]] = c
    q = len(reps)
    qmul = [[coset_of[mul[reps[i]][reps[j]]] for j in range(q)] for i in range(q)]
    qgens = [coset_of[g] for g in G.generators if coset_of[g] != 0]
    Q = Group(qmul, list(dict.fromkeys(qgens)), label=label)
    return Q, Morphism(G, Q, tuple(coset_of))
