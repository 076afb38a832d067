"""Named group families: parameter validation and concrete construction.

Each family has one canonical construction path.  Most are explicit
semidirect or direct products; the generalized quaternion groups, the
exponent-p extraspecial groups M(p) and the two-generator groups B1(n,p)
are realized by coset enumeration of their built-in presentations and
cross-checked against the expected order.
"""

from __future__ import annotations

from math import gcd

from .arith import is_prime, multiplicative_order
from .core import (
    DEFAULT_ORDER_CAP,
    CapExceeded,
    Group,
    Record,
    cyclic_group,
    direct_product,
    semidirect_product,
)
from .coset import coset_enumerate
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
        k, p = self.kind, self.params
        if k == CYCLIC:
            return f"C({p[0]})"
        if k == DIHEDRAL:
            return f"D({p[0]})"
        if k == QUATERNION:
            return f"Q({p[0]})"
        if k == SEMIDIHEDRAL:
            return f"S({p[0]})"
        if k == MODULAR:
            return f"M({p[0]},{p[1]})"
        if k == EXTRASPECIAL:
            return f"M({p[0]})"
        if k == GENERAL:
            pp, n, q, m = p
            return f"G(r={self.r};p={pp},n={n};q={q},m={m})"
        if k == GSHORT:
            n, q, m = p
            return f"Gn({n},{q ** m})"
        if k == FFAMILY:
            n, q = p
            if self.r is not None and self.r != _canonical_f_twist(q):
                return f"F({n},{q},{self.r})"
            return f"F({n},{q})"
        if k in (B1, B2):
            return f"{k}({p[0]},{p[1]})"
        if k == AFAMILY:
            return f"A({p[0]})"
        if k in (SYM, ALT):
            return f"{k}({p[0]})"
        if k in (SL23, C3Q8):
            return k
        if k == XFAMILY:
            return f"X({p[0]},{p[1]})"
        if k == PRODUCT:
            return "x".join(str(f) for f in self.factors)
        raise UnknownFamilyError(f"unknown family kind {k!r}")


def _canonical_f_twist(q: int) -> int | None:
    """Smallest residue of multiplicative order 3 mod q, if one exists."""
    for r in range(2, q):
        if pow(r, 3, q) == 1 and r != 1:
            return r
    return None


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


def _is_power_of(n: int, base: int) -> int | None:
    """Exponent e with base^e == n, else None."""
    e = 0
    m = 1
    while m < n:
        m *= base
        e += 1
    return e if m == n else None


def validate(spec: FamilySpec) -> str | None:
    """None when the parameters satisfy the family's constraints, else a
    diagnostic naming the violated constraint.  Never raises."""
    k, p = spec.kind, spec.params

    def need(count: int) -> str | None:
        if len(p) != count:
            return f"{k} expects {count} parameter(s), got {len(p)}"
        if any(v < 1 for v in p):
            return f"{k} parameters must be positive"
        return None

    if k == CYCLIC:
        return need(1)
    if k == DIHEDRAL:
        err = need(1)
        if err:
            return err
        if p[0] % 2 or p[0] < 2:
            return "dihedral order must be even and >= 2"
        return None
    if k in (QUATERNION, SEMIDIHEDRAL):
        err = need(1)
        if err:
            return err
        e = _is_power_of(p[0], 2)
        least = 3 if k == QUATERNION else 4
        if e is None or e < least:
            return f"{k} order must be 2^n with n >= {least}"
        return None
    if k == MODULAR:
        err = need(2)
        if err:
            return err
        n, q = p
        if not is_prime(q):
            return f"{q} is not prime"
        if q == 2 and n < 4:
            return "M(n,2) requires n >= 4"
        if q > 2 and n < 3:
            return "M(n,p) requires n >= 3 for odd p"
        return None
    if k == EXTRASPECIAL:
        err = need(1)
        if err:
            return err
        if not is_prime(p[0]) or p[0] == 2:
            return "M(p) requires an odd prime p"
        return None
    if k == GENERAL:
        err = need(4)
        if err:
            return err
        pp, n, q, m = p
        if not is_prime(pp):
            return f"{pp} is not prime"
        if not is_prime(q):
            return f"{q} is not prime"
        if spec.r is None:
            return "G requires a twist parameter r"
        if pow(spec.r, pp**n, q**m) != 1:
            return f"r^(p^n) = {spec.r}^{pp ** n} is not 1 mod {q ** m}"
        return None
    if k == GSHORT:
        err = need(3)
        if err:
            return err
        n, q, m = p
        if not is_prime(q):
            return f"{q} is not prime"
        return None
    if k == FFAMILY:
        err = need(2)
        if err:
            return err
        n, q = p
        if not is_prime(q):
            return f"{q} is not prime"
        if q % 3 != 1:
            return f"F requires p = 1 mod 3, got {q}"
        r = spec.r if spec.r is not None else _canonical_f_twist(q)
        if r is None or gcd(r, q) != 1 or multiplicative_order(r, q) != 3:
            return f"twist {r} does not have order 3 mod {q}"
        return None
    if k in (B1, B2):
        err = need(2)
        if err:
            return err
        if not is_prime(p[1]):
            return f"{p[1]} is not prime"
        return None
    if k == AFAMILY:
        return need(1)
    if k in (SYM, ALT):
        return need(1)
    if k in (SL23, C3Q8):
        return None if not p else f"{k} takes no parameters"
    if k == XFAMILY:
        err = need(2)
        if err:
            return err
        if not is_prime(p[1]) or p[1] == 2:
            return "X(n,p) requires an odd prime p"
        return None
    if k == PRODUCT:
        if len(spec.factors) < 2:
            return "product needs at least two factors"
        for f in spec.factors:
            err = validate(f)
            if err:
                return err
        return None
    return f"unknown family kind {k!r}"


def expected_order(spec: FamilySpec) -> int:
    k, p = spec.kind, spec.params
    if k == CYCLIC:
        return p[0]
    if k in (DIHEDRAL, QUATERNION, SEMIDIHEDRAL):
        return p[0]
    if k == MODULAR:
        return p[1] ** p[0]
    if k == EXTRASPECIAL:
        return p[0] ** 3
    if k == GENERAL:
        pp, n, q, m = p
        return pp**n * q**m
    if k == GSHORT:
        n, q, m = p
        return 2**n * q**m
    if k == FFAMILY:
        return 3 ** p[0] * p[1]
    if k in (B1, B2):
        return p[1] ** (p[0] + 2)
    if k == AFAMILY:
        return 4 * 3 ** p[0]
    if k == SYM:
        out = 1
        for i in range(2, p[0] + 1):
            out *= i
        return out
    if k == ALT:
        out = 1
        for i in range(2, p[0] + 1):
            out *= i
        return max(1, out // 2)
    if k == SL23:
        return 24
    if k == C3Q8:
        return 24
    if k == XFAMILY:
        return 2 * p[1] * 3 ** p[0]
    if k == PRODUCT:
        out = 1
        for f in spec.factors:
            out *= expected_order(f)
        return out
    raise UnknownFamilyError(f"unknown family kind {k!r}")


def _metacyclic(
    p: int, n: int, q: int, m: int, r: int, cap: int, label: str
) -> Group:
    """C_{q^m} x| C_{p^n} with the twist a^-1 b a = b^r (a the C_{p^n}
    generator, b the C_{q^m} generator)."""
    qm = q**m
    base = cyclic_group(qm)
    top = cyclic_group(p**n)
    rinv = pow(r, -1, qm)
    action = tuple(rinv * i % qm for i in range(qm))
    return semidirect_product(base, top, [action], cap=cap, label=label)


def _sl23(cap: int, label: str) -> Group:
    """SL(2,3) by tabulating the 24 determinant-1 matrices over GF(3)."""
    mats = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    if (a * d - b * c) % 3 == 1:
                        mats.append((a, b, c, d))
    ident = (1, 0, 0, 1)
    mats.remove(ident)
    mats = [ident] + sorted(mats)
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

    mul = [[index[mmul(x, y)] for y in mats] for x in mats]
    gens = [index[(1, 1, 0, 1)], index[(1, 0, 1, 1)]]
    return Group(mul, gens, label=label)


def _from_presentation(spec: FamilySpec, cap: int, label: str) -> Group:
    pres = builtin_presentation(spec)
    want = expected_order(spec)
    if want > cap:
        raise CapExceeded(f"order {want} of {spec} exceeds cap {cap}")
    order, group = coset_enumerate(pres, max_cosets=max(10 * want, 1000), label=label)
    if order != want:
        raise AssertionError(
            f"presentation for {spec} enumerated to order {order}, expected {want}"
        )
    return group


def build(spec: FamilySpec, cap: int = DEFAULT_ORDER_CAP) -> Group:
    """Concrete group for a validated family spec."""
    err = validate(spec)
    if err:
        raise ValueError(f"invalid spec {spec}: {err}")
    k, p = spec.kind, spec.params
    label = str(spec)

    if k == CYCLIC:
        return cyclic_group(p[0], label=label)
    if k == DIHEDRAL:
        half = p[0] // 2
        base = cyclic_group(half)
        inv = tuple((-i) % half for i in range(half))
        return semidirect_product(base, cyclic_group(2), [inv], cap=cap, label=label)
    if k == QUATERNION:
        return _from_presentation(spec, cap, label)
    if k == SEMIDIHEDRAL:
        n = _is_power_of(p[0], 2)
        assert n is not None
        return _metacyclic(2, 1, 2, n - 1, 2 ** (n - 2) - 1, cap, label)
    if k == MODULAR:
        n, q = p
        return _metacyclic(q, 1, q, n - 1, 1 + q ** (n - 2), cap, label)
    if k == EXTRASPECIAL:
        return _from_presentation(spec, cap, label)
    if k == GENERAL:
        pp, n, q, m = p
        assert spec.r is not None
        return _metacyclic(pp, n, q, m, spec.r % q**m, cap, label)
    if k == GSHORT:
        n, q, m = p
        return _metacyclic(2, n, q, m, q**m - 1, cap, label)
    if k == FFAMILY:
        n, q = p
        r = spec.r if spec.r is not None else _canonical_f_twist(q)
        assert r is not None
        return _metacyclic(3, n, q, 1, r, cap, label)
    if k == B1:
        return _from_presentation(spec, cap, label)
    if k == B2:
        n, q = p
        return _metacyclic(q, n, q, 2, q + 1, cap, label)
    if k == AFAMILY:
        v4 = direct_product(cyclic_group(2), cyclic_group(2))
        # order-3 automorphism with (1,0) -> (1,1) -> (0,1) -> (1,0),
        # chosen so conjugation by the cyclic generator cycles b -> c -> bc
        action = (0, 2, 3, 1)
        return semidirect_product(
            v4, cyclic_group(3 ** p[0]), [action], cap=cap, label=label
        )
    if k == SYM:
        n = p[0]
        if n < 2:
            return cyclic_group(1, label=label)
        if n == 2:
            return cyclic_group(2, label=label)
        from .core import group_from_generators

        cycle = tuple(list(range(1, n)) + [0])
        swap = tuple([1, 0] + list(range(2, n)))
        return group_from_generators(n, [cycle, swap], cap=cap, label=label)
    if k == ALT:
        n = p[0]
        if n < 3:
            return cyclic_group(1, label=label)
        from .core import group_from_generators

        gens = []
        for i in range(n - 2):
            perm = list(range(n))
            perm[i], perm[i + 1], perm[i + 2] = perm[i + 1], perm[i + 2], perm[i]
            gens.append(tuple(perm))
        return group_from_generators(n, gens, cap=cap, label=label)
    if k == SL23:
        return _sl23(cap, label)
    if k == C3Q8:
        q8 = build(FamilySpec(QUATERNION, (8,)), cap=cap)
        inv3 = (0, 2, 1)
        id3 = (0, 1, 2)
        action = [inv3] + [id3] * (len(q8.generators) - 1)
        return semidirect_product(cyclic_group(3), q8, action, cap=cap, label=label)
    if k == XFAMILY:
        n, q = p
        g = build(FamilySpec(DIHEDRAL, (2 * q,)), cap=cap)
        for _ in range(n - 1):
            g = direct_product(g, cyclic_group(3), cap=cap)
        return direct_product(g, cyclic_group(3), cap=cap, label=label)
    if k == PRODUCT:
        g = build(spec.factors[0], cap=cap)
        for f in spec.factors[1:-1]:
            g = direct_product(g, build(f, cap=cap), cap=cap)
        return direct_product(g, build(spec.factors[-1], cap=cap), cap=cap, label=label)
    raise UnknownFamilyError(f"unknown family kind {k!r}")


def builtin_presentation(spec: FamilySpec) -> Presentation:
    """The built-in presentation for families that have one.

    Raises UnknownFamilyError("no presentation ...") for families without
    one (symmetric/alternating groups, SL(2,3), direct products).
    """
    err = validate(spec)
    if err:
        raise ValueError(f"invalid spec {spec}: {err}")
    k, p = spec.kind, spec.params

    def metacyclic_text(pp: int, n: int, q: int, m: int, r: int) -> str:
        qm = q**m
        rr = r % qm
        if rr == qm - 1:
            rr = -1
        return f"a, b | a^{pp ** n} = 1, b^{qm} = 1, a^-1 b a = b^{rr}"

    if k == CYCLIC:
        return parse_presentation(f"a | a^{p[0]} = 1")
    if k == DIHEDRAL:
        return parse_presentation(
            f"a, b | a^2 = 1, b^{p[0] // 2} = 1, a^-1 b a = b^-1"
        )
    if k == QUATERNION:
        n = _is_power_of(p[0], 2)
        assert n is not None
        return parse_presentation(
            f"a, b, z | a^{2 ** (n - 2)} = b^2 = z, z^2 = 1, b^-1 a b = a^-1"
        )
    if k == SEMIDIHEDRAL:
        n = _is_power_of(p[0], 2)
        assert n is not None
        return parse_presentation(metacyclic_text(2, 1, 2, n - 1, 2 ** (n - 2) - 1))
    if k == MODULAR:
        n, q = p
        return parse_presentation(metacyclic_text(q, 1, q, n - 1, 1 + q ** (n - 2)))
    if k == EXTRASPECIAL:
        q = p[0]
        return parse_presentation(
            f"x, y, z | x^{q} = y^{q} = z^{q} = 1, [x,z] = 1, [y,z] = 1, [x,y] = z"
        )
    if k == GENERAL:
        pp, n, q, m = p
        assert spec.r is not None
        return parse_presentation(metacyclic_text(pp, n, q, m, spec.r))
    if k == GSHORT:
        n, q, m = p
        return parse_presentation(metacyclic_text(2, n, q, m, -1))
    if k == FFAMILY:
        n, q = p
        r = spec.r if spec.r is not None else _canonical_f_twist(q)
        assert r is not None
        return parse_presentation(metacyclic_text(3, n, q, 1, r))
    if k == B1:
        n, q = p
        return parse_presentation(
            f"a, b, c | [a,b] = c, a^{q} = 1, b^{q ** n} = 1, c^{q} = 1, "
            f"[a,c] = 1, [b,c] = 1"
        )
    if k == B2:
        n, q = p
        return parse_presentation(metacyclic_text(q, n, q, 2, q + 1))
    if k == AFAMILY:
        n = p[0]
        return parse_presentation(
            f"a, b, c | a^{3 ** n} = 1, b^2 = 1, b c = c b, b^a = c, c^a = b c"
        )
    if k == C3Q8:
        return parse_presentation(
            "x, y, b | x^4 = y^4 = b^3 = [y,b] = 1, x^2 = y^2, "
            "[x,y] = x^2, b^x = b^-1"
        )
    raise UnknownFamilyError(f"no presentation for family {spec}")
