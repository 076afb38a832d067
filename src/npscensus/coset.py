"""Todd-Coxeter coset enumeration over the trivial subgroup.

HLT strategy: process live cosets in increasing order, scanning and filling
every relator, then define any still-undefined entries in ascending column
order.  Coincidences are resolved with a union-find over cosets.  The
procedure is fully deterministic, so enumerating the same presentation
twice yields identical tables.  An enumeration either completes or raises
CapExceeded at the first coset it would define past its budget; no
partial table leaves the module.

A relator that is a proper power w^k is not scanned again from the cosets
c w, c w^2, ... once its scan from c is done: its cycle is already closed
there, so the scan could change nothing.  The table is the one plain HLT
gives, and a cyclic relator such as a^n costs time linear in n, not n^2.
"""

from __future__ import annotations


from .core import CapExceeded, Group, Record, group_from_columns
from .presentation import Presentation, Word

DEFAULT_MAX_COSETS = 100_000

UNDEF = -1


class CosetTable(Record):
    """Action of the generators on cosets of the trivial subgroup.

    `rows[c][2*i]` is the coset c * gen_i, `rows[c][2*i + 1]` is
    c * gen_i^-1.  Row 0 is the subgroup coset.
    """

    num_generators: int
    rows: tuple[tuple[int, ...], ...]

    @property
    def num_cosets(self) -> int:
        return len(self.rows)

    def generator_permutations(self) -> list[tuple[int, ...]]:
        return [
            tuple(row[2 * i] for row in self.rows)
            for i in range(self.num_generators)
        ]


def _columns(word: Word) -> tuple[int, ...]:
    """Relator word as a sequence of table column indices."""
    return tuple(2 * g if s > 0 else 2 * g + 1 for g, s in word)


def _period(rel: tuple[int, ...]) -> int:
    """Length of the shortest word w with rel = w^k."""
    n = len(rel)
    for d in range(1, n):
        if n % d == 0 and rel[d:] == rel[:-d]:
            return d
    return n


def _inv_col(col: int) -> int:
    return col ^ 1


class _Enumerator:
    def __init__(self, ngens: int, relators: list[tuple[int, ...]], max_cosets: int):
        self.ncols = 2 * ngens
        self.relators = relators
        self.max_cosets = max_cosets
        self.table: list[list[int]] = [[UNDEF] * self.ncols]
        self.p: list[int] = [0]

    def rep(self, c: int) -> int:
        p = self.p
        r = c
        while p[r] != r:
            r = p[r]
        while p[c] != r:
            p[c], c = r, p[c]
        return r

    def define(self, c: int, col: int) -> int:
        """A new coset c * col; at the cap, CapExceeded with nothing changed."""
        if len(self.table) >= self.max_cosets:
            raise CapExceeded(
                f"coset enumeration exceeded {self.max_cosets} cosets "
                f"(presentation may be infinite)"
            )
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
            f = self.define(f, rel[i])
            i += 1

    def run(self) -> None:
        table, p = self.table, self.p
        # A relator w^k, |w| = d, is closed along its whole cycle from c once
        # its scan from c is done; rotating it by d gives it back, so it is
        # also closed at c w, c w^2, ...  Those cosets go in `closed`, and
        # their scans of it, which could change nothing, are skipped.  A
        # coincidence maps a closed cycle onto a closed one, and a coset
        # that dies is never scanned, so a mark stays true.
        # `walk` pairs each column of w^(k-1) with whether a w ends there.
        scans = []
        for rel in self.relators:
            d = _period(rel)
            walk = tuple((col, not i % d) for i, col in enumerate(rel[:-d], 1))
            scans.append((rel, walk, set()))
        c = 0
        while c < len(table):
            if p[c] != c:
                c += 1
                continue
            for rel, walk, closed in scans:
                if c in closed:
                    continue
                self.scan_and_fill(c, rel)
                if p[c] != c:
                    break
                x = c
                for col, ends_w in walk:
                    x = table[x][col]
                    if p[x] != x:
                        x = self.rep(x)
                    if ends_w:
                        closed.add(x)
            if p[c] == c:
                for col in range(self.ncols):
                    if table[c][col] == UNDEF:
                        self.define(c, col)
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
    """The complete coset table; its row count is the group order.

    Raises CapExceeded when the enumeration does not complete within
    `max_cosets`.
    """
    ngens = len(pres.generators)
    relators = [_columns(r) for r in pres.relators if r]
    enum = _Enumerator(ngens, relators, max_cosets)
    enum.run()
    return CosetTable(ngens, tuple(tuple(r) for r in enum.compressed()))


def group_from_coset_table(table: CosetTable, label: str | None = None) -> Group:
    """Concrete group from a complete table (regular representation).

    Cosets become group elements; coset 0 is the identity, and the
    table's columns are right multiplication by each generator and its
    inverse, which `group_from_columns` turns into the table.
    """
    if table.num_cosets == 0:
        raise ValueError("empty coset table")
    gens = dict.fromkeys(table.rows[0][2 * i] for i in range(table.num_generators))
    return group_from_columns(tuple(zip(*table.rows)), [g for g in gens if g], label)
