#!/usr/bin/env python3
"""Finitely presented groups: parsing, coset enumeration, isomorphism.

Run:  python demos/03_presentations.py
"""

from npscensus import (
    CapExceeded,
    are_isomorphic,
    builtin_presentation,
    coset_enumerate,
    counts,
    enumerate_cosets,
    parse_presentation,
    parse_spec,
)
from npscensus.families import build


def main() -> None:
    print("== enumerate a presentation ==")
    text = "a, b, z | a^2 = b^2 = z, z^2 = 1, b^-1 a b = a^-1"
    pres = parse_presentation(text)
    order, g = coset_enumerate(pres)
    c = counts(g)
    print(f"{text}")
    print(f"order {order}, s {c.s}, ps {c.ps}, nps {c.nps}")
    print(f"matches Q(8): {are_isomorphic(g, build(parse_spec('Q(8)')))}")

    print()
    print("== built-in presentations round-trip ==")
    for text in ["Gn(1,3)", "M(4,2)", "A(2)", "B2(2,2)", "C3Q8", "F(1,7)"]:
        spec = parse_spec(text)
        pres = builtin_presentation(spec)
        order, enumerated = coset_enumerate(pres)
        direct = build(spec)
        same = are_isomorphic(enumerated, direct)
        print(f"{text:10s} {pres.to_text():70s} order {order:3d} iso={same}")

    print()
    print("== an enumeration that cannot finish ==")
    infinite = parse_presentation("a, b | a^2 = 1")  # b is free
    try:
        enumerate_cosets(infinite, max_cosets=64)
    except CapExceeded as exc:
        print(f"<a,b | a^2> with 64-coset cap: {exc}")

    print()
    print("== word syntax ==")
    pres = parse_presentation("x, y | [x, y] = 1, x^3 = 1, y^4 = x^(y y)")
    for rel in pres.relators:
        print("relator:", pres.format_word(rel))


if __name__ == "__main__":
    main()
