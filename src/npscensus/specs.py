"""The textual mini-language for family specs.

Examples: ``C(7)``, ``D(8)``, ``M(4,3)``, ``M(5)``, ``Gn(2,9)``,
``G(r=2;p=2,n=3;q=5,m=1)``, ``B2(2,2)``, ``A(2)``, ``X(2,3)``, ``SL23``,
``C3Q8``, and direct products joined with ``x``: ``Q(8)xC(2)xC(2)``.

``M`` with one argument is the extraspecial group of order p^3 and
exponent p; with two arguments it is the modular group of order p^n.
``Gn(n,q)`` abbreviates ``G(r=-1;p=2,n;...)`` with q a prime power.
Names are case-insensitive and whitespace is ignored.
"""

from __future__ import annotations

from .families import FAMILIES, Family, FamilySpec, product_spec


class SpecError(ValueError):
    """Malformed family spec text."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


# parser name -> the table rows it names, longest names first so e.g. "C3Q8"
# wins over "C"; rows that share a name (the two "M" rows) differ in arity
_NAMES: dict[str, tuple[Family, ...]] = {}
for _fam in FAMILIES.values():
    for _name in _fam.parser_names:
        _NAMES[_name] = _NAMES.get(_name, ()) + (_fam,)
_NAMES = dict(sorted(_NAMES.items(), key=lambda item: -len(item[0])))


def _parse_args(body: str, pos: int) -> tuple[list[int], dict[str, int]]:
    positional: list[int] = []
    named: dict[str, int] = {}
    if not body.strip():
        return positional, named
    for part in body.replace(";", ",").split(","):
        part = part.strip()
        if not part:
            raise SpecError("empty argument", pos)
        if "=" in part:
            key, _, val = part.partition("=")
            key = key.strip().lower()
            if key in named:
                raise SpecError(f"repeated argument {key!r}", pos)
            try:
                named[key] = int(val.strip())
            except ValueError:
                raise SpecError(f"bad integer {val.strip()!r}", pos) from None
        else:
            try:
                positional.append(int(part))
            except ValueError:
                raise SpecError(f"bad integer {part!r}", pos) from None
    return positional, named


def _make_spec(
    fams: tuple[Family, ...], args: list[int], named: dict[str, int], pos: int
) -> FamilySpec:
    if len(fams) > 1:  # arity decides: M(p) vs M(n,p)
        for fam in fams:
            if fam.arity == len(args):
                return FamilySpec(fam.kind, tuple(args))
        raise SpecError("M takes 1 (extraspecial) or 2 (modular) arguments", pos)
    (fam,) = fams
    if named and not fam.keywords:
        raise SpecError(f"{fam.kind} takes positional arguments only", pos)
    if fam.parse is not None:
        try:
            return fam.parse(args, named)
        except ValueError as exc:
            raise SpecError(str(exc), pos) from None
    if args and not fam.arity:
        raise SpecError(f"{fam.kind} takes no arguments", pos)
    return FamilySpec(fam.kind, tuple(args))


def parse_spec(text: str) -> FamilySpec:
    """Parse mini-language text into a FamilySpec (no validation)."""
    src = "".join(text.split())
    if not src:
        raise SpecError("empty spec")
    low = src.lower()
    pos = 0
    factors: list[FamilySpec] = []
    while True:
        matched = None
        for name, fams in _NAMES.items():
            if low.startswith(name, pos):
                after = pos + len(name)
                nxt = low[after] if after < len(low) else ""
                if nxt == "" or nxt in "(x":
                    # a product separator directly after a parameterized
                    # name is only valid for the no-argument families
                    if nxt != "(" and fams[0].arity != 0:
                        continue
                    matched = (name, fams, after)
                    break
        if matched is None:
            raise SpecError(f"unrecognized family name in {text!r}", pos)
        name, fams, after = matched
        pos = after
        if pos < len(low) and low[pos] == "(":
            depth = 0
            start = pos
            while pos < len(low):
                if low[pos] == "(":
                    depth += 1
                elif low[pos] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                pos += 1
            if depth != 0:
                raise SpecError("unbalanced parentheses", start)
            body = src[start + 1 : pos]
            pos += 1
            args, named = _parse_args(body, start)
        else:
            args, named = [], {}
        factors.append(_make_spec(fams, args, named, pos))
        if pos >= len(low):
            break
        if low[pos] != "x":
            raise SpecError(f"expected 'x' or end of spec, found {src[pos]!r}", pos)
        pos += 1
    return product_spec(*factors)
