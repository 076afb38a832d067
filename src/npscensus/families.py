"""Named group families: parameter validation and concrete construction.

Everything the package knows about a family kind sits in one row of
`FAMILIES`: its spec syntax, its checks, its order, its construction, its
built-in presentation and its display text.  `build` makes each table
directly, by `core.metacyclic_group` from the row's (Q, P, r, t) (Q(2^n)
and C3Q8 too), by `_class2` (M(p), B1(n,p)), as a product or by the row's
own rule; each ends in `core.group_from_columns`.  The built-in
presentations serve `present` and the tests, which check each table
against them.

`build` checks the order cap, `core.DEFAULT_ORDER_CAP` by default, once
for the whole spec before any table is made; no constructor checks it.
"""

from __future__ import annotations

from itertools import chain, product, repeat
from typing import Callable, Iterable

from .arith import is_prime, prime_power
from .core import (
    DEFAULT_ORDER_CAP,
    CapExceeded,
    Group,
    Record,
    cyclic_group,
    direct_product,
    group_from_columns,
    group_from_generators,
    metacyclic_group,
    product_columns,
    semidirect_product,
)
from .presentation import Presentation, parse_presentation

# family kinds
CYCLIC = "C"
DIHEDRAL = "D"
QUATERNION = "Q"
SEMIDIHEDRAL = "S"
MODULAR = "M"  # M(n, p), quasidihedral/modular of order p^n
EXTRASPECIAL = "MP"  # M(p), extraspecial of order p^3 and exponent p
GENERAL = "G"  # two-generator metacyclic C_{q^m} x| C_{p^n}, twist r
GSHORT = "GN"  # shorthand for GENERAL with p = 2, r = -1
FFAMILY = "F"  # GENERAL with p = 3, m = 1 and an order-3 twist
B1 = "B1"
B2 = "B2"
AFAMILY = "A"  # (C2 x C2) x| C_{3^n}
SYM = "Sym"
ALT = "Alt"
SL23 = "SL23"
C3Q8 = "C3Q8"
XFAMILY = "X"  # D_{2p} x (C3)^n
PRODUCT = "prod"


class UnknownFamilyError(ValueError):
    """Family/parameter combination without the requested data."""


class FamilySpec(Record):
    """Tagged description of a group family plus parameters."""

    kind: str
    params: tuple[int, ...] = ()
    r: int | None = None
    factors: tuple["FamilySpec", ...] = ()

    def __str__(self) -> str:
        fam = _row(self.kind)
        if fam.arity and len(self.params) != fam.arity:
            # the row's text needs exactly its arity: show the spec as given
            return f"{self.kind}({','.join(map(str, self.params))})"
        fmt = fam.fmt
        if isinstance(fmt, str):
            return fmt.format(*self.params, r=self.r)
        return fmt(self)


class Family(Record):
    """One row of the family table.

    `fmt` is the display text: a format string over the parameters (and
    `r`), or a function of the spec.  `check` runs after the shared arity
    and positivity check and returns a diagnostic or None.  A family is
    built from exactly one of `metacyclic`, `factors` (the direct factors,
    in order) or `construct`, called as construct(spec, cap, label); its
    built-in presentation is `presentation`, else the metacyclic one.
    `order`, `metacyclic` and `presentation` take the parameters, and
    `metacyclic` also the twist r: `order` gives (base, exponent) pairs
    whose powers multiply to the order, and `metacyclic` the (Q, P, r, t)
    of `metacyclic_of`.  `parse` turns parser arguments into a spec,
    raising ValueError when they do not fit; without it the positional
    arguments are the parameters.
    """

    kind: str
    fmt: str | Callable[[FamilySpec], str]
    names: tuple[str, ...] | None = None  # parser names; None: the kind
    arity: int | None = 1  # None for a product, validated factor by factor
    check: Callable[[FamilySpec], str | None] | None = None
    order: Callable[..., Iterable[tuple[int, int]]] | None = None
    metacyclic: Callable[..., tuple[int, int, int, int]] | None = None
    factors: Callable[[FamilySpec], Iterable[FamilySpec]] | None = None
    construct: Callable[[FamilySpec, int, str], Group] | None = None
    presentation: Callable[..., str] | None = None
    parse: Callable[[list[int], dict[str, int]], FamilySpec] | None = None
    keywords: bool = False  # parse takes named arguments

    @property
    def parser_names(self) -> tuple[str, ...]:
        """The names the spec parser knows the family by, lower case."""
        return (self.kind.lower(),) if self.names is None else self.names


def _row(kind: str) -> Family:
    fam = FAMILIES.get(kind)
    if fam is None:
        raise UnknownFamilyError(f"unknown family kind {kind!r}")
    return fam


def _f_twist(q: int, r: int | None = None) -> int | None:
    """r when given, else, for a prime q = 1 mod 3, the smaller of the two
    residues of multiplicative order 3 mod q, and None for any other q.
    They are w and w^2 for w = t^((q-1)/3), the first t that gives w != 1."""
    if r is not None or not (q % 3 == 1 and is_prime(q)):
        return r
    for t in range(2, q):
        w = pow(t, (q - 1) // 3, q)
        if w != 1:
            return min(w, w * w % q)


def product_spec(*factors: FamilySpec) -> FamilySpec:
    flat: list[FamilySpec] = []
    for f in factors:
        if f.kind == PRODUCT:
            flat.extend(f.factors)
        else:
            flat.append(f)
    if len(flat) == 1:
        return flat[0]
    return FamilySpec(PRODUCT, factors=tuple(flat))


def cyclic_spec(n: int) -> FamilySpec:
    return FamilySpec(CYCLIC, (n,))


def split_cyclic(spec: FamilySpec) -> tuple[FamilySpec | None, list[int]] | None:
    """(A, [n_1, n_2, ...]) with spec = A x C(n_1) x C(n_2) x ..., for
    C(n) and for a spec made of direct factors of which at least one is
    cyclic: the n_i are the orders of every cyclic factor and A the
    product of the others, both in order, A None when there are none.
    None for any other spec."""
    fam = _row(spec.kind)
    if spec.kind == CYCLIC:
        fs = [spec]
    elif fam.factors is not None:
        fs = list(fam.factors(spec))
    else:
        return None
    orders = [f.params[0] for f in fs if f.kind == CYCLIC]
    if not orders:
        return None
    rest = [f for f in fs if f.kind != CYCLIC]
    return (product_spec(*rest) if rest else None), orders


def validate(spec: FamilySpec) -> str | None:
    """None when the parameters satisfy the family's constraints, else a
    diagnostic naming the violated constraint.  Never raises."""
    return _diagnose(spec, True)


def check_valid(spec: FamilySpec) -> None:
    """Raise ValueError naming the violated constraint when `validate`
    finds one."""
    err = validate(spec)
    if err:
        raise ValueError(f"invalid spec {spec}: {err}")


def shape_error(spec: FamilySpec) -> str | None:
    """`validate` without the family checks: only the shared arity and
    positivity check, quick for any parameters.  None exactly when the
    spec has an order."""
    return _diagnose(spec, False)


def _diagnose(spec: FamilySpec, family_checks: bool) -> str | None:
    fam = FAMILIES.get(spec.kind)
    if fam is None:
        return f"unknown family kind {spec.kind!r}"
    k, p = fam.kind, spec.params
    if fam.arity is None:
        if len(spec.factors) < 2:
            return "product needs at least two factors"
        errs = (_diagnose(f, family_checks) for f in spec.factors)
        return next(filter(None, errs), None)
    if not fam.arity:
        if p:
            return f"{k} takes no parameters"
    elif len(p) != fam.arity:
        return f"{k} expects {fam.arity} parameter(s), got {len(p)}"
    elif any(v < 1 for v in p):
        return f"{str(spec).partition('(')[0]} parameters must be positive"
    return fam.check(spec) if family_checks and fam.check else None


def expected_order(spec: FamilySpec) -> int:
    return order_up_to(spec, None)


def order_up_to(spec: FamilySpec, bound: int | None) -> int:
    """expected_order(spec) when it is at most bound, else some number
    above bound, found without forming the order itself (n! for Sym(n)).
    The spec must pass `shape_error`."""
    fam = _row(spec.kind)
    if fam.factors is not None:
        terms = ((order_up_to(f, bound), 1) for f in fam.factors(spec))
    else:
        terms = fam.order(*spec.params)  # type: ignore[misc]
    out = 1
    for base, e in terms:
        if bound is not None and base > 1 and e > bound.bit_length():
            return bound + 1
        out *= base**e
        if bound is not None and out > bound:
            return out
    return out


def metacyclic_of(spec: FamilySpec) -> tuple[int, int, int, int] | None:
    """The (Q, P, r, t) of <b>.<a>, |b| = Q, a^P = b^t, a^-1 b a = b^r
    (split when t = 0) for a metacyclic family's spec, else None."""
    fam = _row(spec.kind)
    if fam.metacyclic is None:
        return None
    return fam.metacyclic(*spec.params, spec.r)


def _metacyclic_text(Q: int, P: int, r: int, t: int) -> str:
    """The split presentation; a row with a carry has its own."""
    rr = r % Q
    if rr == Q - 1:
        rr = -1
    return f"a, b | a^{P} = 1, b^{Q} = 1, a^-1 b a = b^{rr}"


def _direct_product(factors: Iterable[FamilySpec], cap: int, label: str) -> Group:
    """The factors' direct product in one pass, numbered as
    `direct_product` taken left to right numbers it.  `build` has checked
    the product, and so each factor."""
    groups = [build(f, cap, check=False) for f in factors]
    return group_from_columns(*product_columns(groups), label)


def _sl23(spec: FamilySpec, cap: int, label: str) -> Group:
    """SL(2,3) by tabulating the 24 determinant-1 matrices over GF(3)."""
    ident = (1, 0, 0, 1)
    mats = [ident] + sorted(
        m for m in product(range(3), repeat=4)
        if (m[0] * m[3] - m[1] * m[2]) % 3 == 1 and m != ident
    )
    index = {mm: i for i, mm in enumerate(mats)}

    def mmul(x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        return (
            (a1 * a2 + b1 * c2) % 3,
            (a1 * b2 + b1 * d2) % 3,
            (c1 * a2 + d1 * c2) % 3,
            (c1 * b2 + d1 * d2) % 3,
        )

    gens = [index[(1, 1, 0, 1)], index[(1, 0, 1, 1)]]
    cols = [[index[mmul(x, mats[g])] for x in mats] for g in gens]
    return group_from_columns(cols, gens, label)


def _class2(p: int, n: int, cap: int, label: str) -> Group:
    """B1(n,p) = <a, b | a^p = b^(p^n) = 1, c = [a,b] central of order p>
    as (C_p x C_{p^n}) x| C_p: c and b are the direct factors, and a acts
    as b -> b * c.  M(p) is B1(1,p).  `build` has checked the cap."""
    pn = p**n
    # c^x b^y -> c^(x + y) b^y, on the index x * p^n + y
    action = tuple((i // pn + i) % p * pn + i % pn for i in range(p * pn))
    cb = direct_product(cyclic_group(p), cyclic_group(pn), cap=cap)
    return semidirect_product(cb, cyclic_group(p), [action], cap=cap, label=label)


def _a_family(spec: FamilySpec, cap: int, label: str) -> Group:
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    # order-3 automorphism with (1,0) -> (1,1) -> (0,1) -> (1,0),
    # chosen so conjugation by the cyclic generator cycles b -> c -> bc
    action = (0, 2, 3, 1)
    return semidirect_product(
        v4, cyclic_group(3 ** spec.params[0]), [action], cap=cap, label=label
    )


def _symmetric(spec: FamilySpec, cap: int, label: str) -> Group:
    n = spec.params[0]
    if n < 3:
        return cyclic_group(n, label=label)
    cycle = tuple(list(range(1, n)) + [0])
    swap = tuple([1, 0] + list(range(2, n)))
    return group_from_generators(n, [cycle, swap], cap=cap, label=label)


def _alternating(spec: FamilySpec, cap: int, label: str) -> Group:
    n = spec.params[0]
    if n < 3:
        return cyclic_group(1, label=label)
    gens = []
    for i in range(n - 2):
        perm = list(range(n))
        perm[i], perm[i + 1], perm[i + 2] = perm[i + 1], perm[i + 2], perm[i]
        gens.append(tuple(perm))
    return group_from_generators(n, gens, cap=cap, label=label)


def build(spec: FamilySpec, cap: int = DEFAULT_ORDER_CAP, *, check: bool = True) -> Group:
    """Concrete group for a valid family spec of order at most cap.

    The cap is checked after the shape check, without which the spec has
    no order, and before the family checks, which can take long on large
    parameters (a primality test), so an over-cap spec is refused before
    any table is made.  The message names no order: above the cap,
    `order_up_to` need not give the exact one.  With check=False the
    caller has made these checks, and none is repeated, for the spec or
    for its factors.
    """
    if check:
        if shape_error(spec) is None and order_up_to(spec, cap) > cap:
            raise CapExceeded(f"order of {spec} exceeds cap {cap}")
        check_valid(spec)
    fam = FAMILIES[spec.kind]
    label = str(spec)
    twist = metacyclic_of(spec)
    if twist is not None:
        return metacyclic_group(*twist, label)
    if fam.factors is not None:
        return _direct_product(fam.factors(spec), cap, label)
    return fam.construct(spec, cap, label)  # type: ignore[misc]


def builtin_presentation(spec: FamilySpec) -> Presentation:
    """The built-in presentation for families that have one.

    Raises UnknownFamilyError("no presentation ...") for families without
    one (symmetric/alternating groups, SL(2,3), direct products).
    """
    check_valid(spec)
    fam = FAMILIES[spec.kind]
    if fam.presentation is not None:
        return parse_presentation(fam.presentation(*spec.params))
    twist = metacyclic_of(spec)
    if twist is not None:
        return parse_presentation(_metacyclic_text(*twist))
    raise UnknownFamilyError(f"no presentation for family {spec}")


# ---------------------------------------------------------------------------
# the family table: checks, parsers and the rows themselves


def _prime_at(i: int) -> Callable[[FamilySpec], str | None]:
    def check(spec: FamilySpec) -> str | None:
        q = spec.params[i]
        return None if is_prime(q) else f"{q} is not prime"

    return check


def _two_power(least: int) -> Callable[[FamilySpec], str | None]:
    def check(spec: FamilySpec) -> str | None:
        o = spec.params[0]
        if o & (o - 1) or o.bit_length() - 1 < least:
            return f"{spec.kind} order must be 2^n with n >= {least}"
        return None

    return check


def _check_dihedral(spec: FamilySpec) -> str | None:
    o = spec.params[0]
    return "dihedral order must be even and >= 2" if o % 2 or o < 2 else None


def _check_modular(spec: FamilySpec) -> str | None:
    n, q = spec.params
    if not is_prime(q):
        return f"{q} is not prime"
    if q == 2 and n < 4:
        return "M(n,2) requires n >= 4"
    if q > 2 and n < 3:
        return "M(n,p) requires n >= 3 for odd p"
    return None


def _check_extraspecial(spec: FamilySpec) -> str | None:
    q = spec.params[0]
    return None if is_prime(q) and q != 2 else "M(p) requires an odd prime p"


def _check_general(spec: FamilySpec) -> str | None:
    pp, n, q, m = spec.params
    for v in (pp, q):
        if not is_prime(v):
            return f"{v} is not prime"
    if spec.r is None:
        return "G requires a twist parameter r"
    if pow(spec.r, pp**n, q**m) != 1:
        return f"r^(p^n) = {spec.r}^{pp ** n} is not 1 mod {q ** m}"
    return None


def _check_f(spec: FamilySpec) -> str | None:
    q = spec.params[1]
    if not is_prime(q):
        return f"{q} is not prime"
    if q % 3 != 1:
        return f"F requires p = 1 mod 3, got {q}"
    r = _f_twist(q, spec.r)
    if pow(r, 3, q) != 1 or r % q == 1:
        return f"twist {r} does not have order 3 mod {q}"
    return None


def _check_x(spec: FamilySpec) -> str | None:
    q = spec.params[1]
    return None if is_prime(q) and q != 2 else "X(n,p) requires an odd prime p"


def _fmt_f(spec: FamilySpec) -> str:
    n, q = spec.params
    if spec.r is not None and spec.r != _f_twist(q):
        return f"F({n},{q},{spec.r})"
    return f"F({n},{q})"


def _parse_general(args: list[int], named: dict[str, int]) -> FamilySpec:
    if args or named.keys() != set("rpnqm"):
        raise ValueError(
            "G uses named arguments r, p, n, q, m, e.g. G(r=2;p=2,n=3;q=5,m=1)"
        )
    return FamilySpec(GENERAL, tuple(named[k] for k in "pnqm"), r=named["r"])


def _parse_gshort(args: list[int], named: dict[str, int]) -> FamilySpec:
    if len(args) != 2:
        raise ValueError("Gn takes 2 arguments: n and a prime power")
    n, qm = args
    split = prime_power(qm)
    if split is None:
        raise ValueError(f"{qm} is not a prime power")
    return FamilySpec(GSHORT, (n, *split))


def _parse_f(args: list[int], named: dict[str, int]) -> FamilySpec:
    if len(args) not in (2, 3):
        raise ValueError("F takes 2 or 3 arguments: n, p[, r]")
    return FamilySpec(FFAMILY, (args[0], args[1]), r=args[2] if args[2:] else None)


_ROWS = (
    Family(
        CYCLIC,
        "C({})",
        order=lambda n: ((n, 1),),
        construct=lambda s, cap, label: cyclic_group(s.params[0], label=label),
        presentation=lambda n: f"a | a^{n} = 1",
    ),
    Family(
        DIHEDRAL,
        "D({})",
        check=_check_dihedral,
        order=lambda n: ((n, 1),),
        metacyclic=lambda n, r: (n // 2, 2, -1, 0),
    ),
    Family(
        QUATERNION,
        "Q({})",
        check=_two_power(3),
        order=lambda n: ((n, 1),),
        metacyclic=lambda n, r: (n // 2, 2, -1, n // 4),
        presentation=lambda n: (
            f"a, b, z | a^{n // 4} = b^2 = z, z^2 = 1, b^-1 a b = a^-1"
        ),
    ),
    Family(
        SEMIDIHEDRAL,
        "S({})",
        check=_two_power(4),
        order=lambda n: ((n, 1),),
        metacyclic=lambda n, r: (n // 2, 2, n // 4 - 1, 0),
    ),
    Family(
        MODULAR,
        "M({},{})",
        arity=2,
        check=_check_modular,
        order=lambda n, q: ((q, n),),
        metacyclic=lambda n, q, r: (q ** (n - 1), q, 1 + q ** (n - 2), 0),
    ),
    Family(
        EXTRASPECIAL,
        "M({})",
        names=("m",),
        check=_check_extraspecial,
        order=lambda q: ((q, 3),),
        construct=lambda s, cap, label: _class2(s.params[0], 1, cap, label),
        presentation=lambda q: (
            f"x, y, z | x^{q} = y^{q} = z^{q} = 1, [x,z] = 1, [y,z] = 1, [x,y] = z"
        ),
    ),
    Family(
        GENERAL,
        "G(r={r};p={},n={};q={},m={})",
        arity=4,
        check=_check_general,
        order=lambda p, n, q, m: ((p, n), (q, m)),
        metacyclic=lambda p, n, q, m, r: (q**m, p**n, r, 0),
        parse=_parse_general,
        keywords=True,
    ),
    Family(
        GSHORT,
        lambda s: f"Gn({s.params[0]},{s.params[1] ** s.params[2]})",
        arity=3,
        check=_prime_at(1),
        order=lambda n, q, m: ((2, n), (q, m)),
        metacyclic=lambda n, q, m, r: (q**m, 2**n, -1, 0),
        parse=_parse_gshort,
    ),
    Family(
        FFAMILY,
        _fmt_f,
        arity=2,
        check=_check_f,
        order=lambda n, q: ((3, n), (q, 1)),
        metacyclic=lambda n, q, r: (q, 3**n, _f_twist(q, r), 0),
        parse=_parse_f,
    ),
    Family(
        B1,
        "B1({},{})",
        arity=2,
        check=_prime_at(1),
        order=lambda n, q: ((q, n + 2),),
        construct=lambda s, cap, label: _class2(s.params[1], s.params[0], cap, label),
        presentation=lambda n, q: (
            f"a, b, c | [a,b] = c, a^{q} = 1, b^{q ** n} = 1, c^{q} = 1, "
            "[a,c] = 1, [b,c] = 1"
        ),
    ),
    Family(
        B2,
        "B2({},{})",
        arity=2,
        check=_prime_at(1),
        order=lambda n, q: ((q, n + 2),),
        metacyclic=lambda n, q, r: (q * q, q**n, q + 1, 0),
    ),
    Family(
        AFAMILY,
        "A({})",
        order=lambda n: ((4, 1), (3, n)),
        construct=_a_family,
        presentation=lambda n: (
            f"a, b, c | a^{3 ** n} = 1, b^2 = 1, b c = c b, b^a = c, c^a = b c"
        ),
    ),
    Family(
        SYM,
        "Sym({})",
        order=lambda n: ((i, 1) for i in range(2, n + 1)),
        construct=_symmetric,
    ),
    Family(
        ALT,
        "Alt({})",
        order=lambda n: ((i, 1) for i in range(3, n + 1)),
        construct=_alternating,
    ),
    Family(
        SL23,
        SL23,
        arity=0,
        order=lambda: ((24, 1),),
        construct=_sl23,
    ),
    Family(
        C3Q8,
        C3Q8,
        arity=0,
        order=lambda: ((24, 1),),
        metacyclic=lambda r: (12, 2, -1, 6),
        presentation=lambda: (
            "x, y, b | x^4 = y^4 = b^3 = [y,b] = 1, x^2 = y^2, "
            "[x,y] = x^2, b^x = b^-1"
        ),
    ),
    Family(
        XFAMILY,
        "X({},{})",
        arity=2,
        check=_check_x,
        factors=lambda s: chain(
            (FamilySpec(DIHEDRAL, (2 * s.params[1],)),),
            repeat(cyclic_spec(3), s.params[0]),
        ),
    ),
    Family(
        PRODUCT,
        lambda s: "x".join(map(str, s.factors)),
        names=(),
        arity=None,
        factors=lambda s: s.factors,
    ),
)

FAMILIES: dict[str, Family] = {fam.kind: fam for fam in _ROWS}
