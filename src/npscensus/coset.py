"""Todd-Coxeter coset enumeration over the trivial subgroup.

HLT strategy: process live cosets in increasing order, scanning and filling
every relator, then define any still-undefined entries in ascending column
order.  Coincidences are resolved with a union-find over cosets.  The
procedure is fully deterministic, so enumerating the same presentation
twice yields identical tables.
"""

from __future__ import annotations


from .core import CapExceeded, Group, Record, table_by_columns
from .presentation import Presentation, Word

DEFAULT_MAX_COSETS = 100_000

UNDEF = -1


class CosetTable(Record):
    """Action of the generators on cosets of the trivial subgroup.

    `rows[c][2*i]` is the coset c * gen_i, `rows[c][2*i + 1]` is
    c * gen_i^-1.  Row 0 is the subgroup coset.  When `status` is
    "capped" the table is the partial state at the cap.
    """

    num_generators: int
    rows: tuple[tuple[int, ...], ...]
    status: str  # "complete" | "capped"

    @property
    def num_cosets(self) -> int:
        return len(self.rows)

    def generator_permutations(self) -> list[tuple[int, ...]]:
        if self.status != "complete":
            raise ValueError("table is not complete")
        return [
            tuple(row[2 * i] for row in self.rows)
            for i in range(self.num_generators)
        ]


def _columns(word: Word) -> tuple[int, ...]:
    """Relator word as a sequence of table column indices."""
    return tuple(2 * g if s > 0 else 2 * g + 1 for g, s in word)


def _inv_col(col: int) -> int:
    return col ^ 1


class _Enumerator:
    def __init__(self, ngens: int, relators: list[tuple[int, ...]], max_cosets: int):
        self.ncols = 2 * ngens
        self.relators = relators
        self.max_cosets = max_cosets
        self.table: list[list[int]] = [[UNDEF] * self.ncols]
        self.p: list[int] = [0]
        self.capped = False

    def rep(self, c: int) -> int:
        p = self.p
        r = c
        while p[r] != r:
            r = p[r]
        while p[c] != r:
            p[c], c = r, p[c]
        return r

    def define(self, c: int, col: int) -> int:
        if len(self.table) >= self.max_cosets:
            self.capped = True
            return UNDEF
        d = len(self.table)
        self.table.append([UNDEF] * self.ncols)
        self.p.append(d)
        self.table[c][col] = d
        self.table[d][_inv_col(col)] = c
        return d

    def coincidence(self, a: int, b: int) -> None:
        queue = [(a, b)]
        while queue:
            a, b = queue.pop()
            a, b = self.rep(a), self.rep(b)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            self.p[b] = a
            row = self.table[b]
            for col in range(self.ncols):
                e = row[col]
                if e == UNDEF:
                    continue
                row[col] = UNDEF
                u = self.rep(a)
                f = self.rep(e)
                # re-install edge u --col--> f in both directions
                cur = self.table[u][col]
                if cur != UNDEF:
                    queue.append((cur, f))
                else:
                    self.table[u][col] = f
                    back = self.table[f][_inv_col(col)]
                    if back != UNDEF:
                        queue.append((back, u))
                    else:
                        self.table[f][_inv_col(col)] = u

    def scan_and_fill(self, c: int, rel: tuple[int, ...]) -> None:
        if not rel:
            return
        table, p = self.table, self.p
        i, j = 0, len(rel) - 1
        f, b = c, c
        while True:
            # a live coset is its own representative, so rep() is only
            # called for cosets merged away by a coincidence
            while i <= j:
                nxt = table[f][rel[i]]
                if nxt == UNDEF:
                    break
                f = nxt if p[nxt] == nxt else self.rep(nxt)
                i += 1
            if i > j:
                if f != b:
                    self.coincidence(f, b)
                return
            while j >= i:
                nxt = table[b][_inv_col(rel[j])]
                if nxt == UNDEF:
                    break
                b = nxt if p[nxt] == nxt else self.rep(nxt)
                j -= 1
            if j < i:
                self.coincidence(f, b)
                return
            if j == i:
                # deduction closing the gap
                self.table[f][rel[i]] = b
                self.table[b][_inv_col(rel[i])] = f
                return
            d = self.define(f, rel[i])
            if d == UNDEF:
                return
            f = d
            i += 1

    def run(self) -> None:
        c = 0
        while c < len(self.table):
            if self.capped:
                return
            if self.rep(c) != c:
                c += 1
                continue
            for rel in self.relators:
                self.scan_and_fill(c, rel)
                if self.capped or self.rep(c) != c:
                    break
            if not self.capped and self.rep(c) == c:
                for col in range(self.ncols):
                    if self.table[c][col] == UNDEF:
                        if self.define(c, col) == UNDEF:
                            return
            c += 1

    def compressed(self) -> list[list[int]]:
        live = [c for c in range(len(self.table)) if self.rep(c) == c]
        remap = {c: i for i, c in enumerate(live)}
        out = []
        for c in live:
            out.append(
                [remap[self.rep(v)] if v != UNDEF else UNDEF for v in self.table[c]]
            )
        return out


def enumerate_cosets(
    pres: Presentation, max_cosets: int = DEFAULT_MAX_COSETS
) -> CosetTable:
    """Run the enumeration; returns a complete or capped table."""
    ngens = len(pres.generators)
    if ngens == 0:
        return CosetTable(0, ((),), "complete")
    relators = [_columns(r) for r in pres.relators if r]
    enum = _Enumerator(ngens, relators, max_cosets)
    enum.run()
    if enum.capped:
        rows = tuple(tuple(r) for r in enum.compressed())
        return CosetTable(ngens, rows, "capped")
    rows = tuple(tuple(r) for r in enum.compressed())
    return CosetTable(ngens, rows, "complete")


def group_from_coset_table(table: CosetTable, label: str | None = None) -> Group:
    """Concrete group from a completed table (regular representation).

    Cosets become group elements; coset 0 is the identity.  The
    multiplication table is filled column by column along a breadth-first
    spanning tree of the coset graph, so the result is deterministic.
    """
    if table.status != "complete":
        raise ValueError("cannot build a group from a capped table")
    n = table.num_cosets
    if n == 0:
        raise ValueError("empty coset table")
    rows = table.rows
    if table.num_generators == 0:
        return Group([[0]], [], label=label)

    # BFS parent/column words over the coset graph
    parent = [0] * n
    colof = [-1] * n
    seen = [False] * n
    seen[0] = True
    queue = [0]
    for c in queue:
        for col in range(2 * table.num_generators):
            d = rows[c][col]
            if not seen[d]:
                seen[d] = True
                parent[d] = c
                colof[d] = col
                queue.append(d)
    if not all(seen):
        raise ValueError("coset table is not transitive")

    mul = table_by_columns(tuple(zip(*rows)), queue[1:], parent, colof)
    gens = [rows[0][2 * i] for i in range(table.num_generators)]
    return Group(mul, list(dict.fromkeys(g for g in gens if g != 0)), label=label)


def complete_coset_table(
    pres: Presentation, max_cosets: int = DEFAULT_MAX_COSETS
) -> CosetTable:
    """The complete coset table; its row count is the group order.

    Raises CapExceeded when the enumeration does not complete within
    `max_cosets`.
    """
    table = enumerate_cosets(pres, max_cosets)
    if table.status != "complete":
        raise CapExceeded(
            f"coset enumeration exceeded {max_cosets} cosets "
            f"(presentation may be infinite)"
        )
    return table


def coset_enumerate(
    pres: Presentation,
    max_cosets: int = DEFAULT_MAX_COSETS,
    label: str | None = None,
) -> tuple[int, Group]:
    """Order and concrete group of a finite finitely presented group.

    Raises CapExceeded when the enumeration does not complete within
    `max_cosets`.
    """
    group = group_from_coset_table(complete_coset_table(pres, max_cosets), label=label)
    return group.order, group
