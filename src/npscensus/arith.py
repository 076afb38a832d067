"""Elementary number-theoretic helpers shared across the package."""

from __future__ import annotations

from math import gcd, log2
from typing import Iterable, Iterator


# the first 13 primes: as Miller-Rabin bases they decide primality exactly
# for every n below 3317044064679887385961981 (Sorenson and Webster 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin over the first 13 prime bases: exact below 3.3 * 10^24,
    and above that wrong only for a strong pseudoprime to all 13 bases."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True  # a composite below 43^2 has a prime factor up to 41
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def integer_root(n: int, k: int) -> int:
    """The largest r >= 0 with r^k <= n, for n >= 0 and k >= 1."""
    if n < 2 or k == 1:
        return n
    e = log2(n) / k
    # Newton's step from any x above the root decreases to it; start just
    # above the float estimate where that is finite, else at a power of two
    x = int(2**e * (1 + 2**-30)) + 2 if e < 1000 else 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power(n: int) -> tuple[int, int] | None:
    """(q, m) with n = q^m and q prime, else None.  q is found as an
    integer root, not by factorizing, so this is quick also when q is
    large."""
    if n < 2:
        return None
    for q in _MR_BASES:
        if n % q == 0:
            m = round(log2(n) / log2(q))  # dividing out q is quadratic in len(n)
            return (q, m) if q**m == n else None
    # q > 41 now, so q^m = n needs m < log2(n) / 5; the largest m with an
    # exact root is the only one whose root can be prime
    for m in range(n.bit_length() // 5, 0, -1):
        q = integer_root(n, m)
        if q**m == n:
            return (q, m) if is_prime(q) else None
    return None


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: multiplicity}, primes
    ascending.

    Trial division stops as soon as the cofactor left is prime, tested by
    `is_prime` each time the cofactor changes, so a large prime factor
    costs no division loop.  `is_prime` is exact below 3.3 * 10^24, and
    so is the early stop there.
    """
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    m = n
    f = 2
    done = is_prime(m)
    while not done and f * f <= m:
        if m % f == 0:
            while m % f == 0:
                out[f] = out.get(f, 0) + 1
                m //= f
            done = is_prime(m)
        f += 1 if f == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending, from its factorization."""
    return divisors_of(factorize(n))


def divisors_of(factors: dict[int, int]) -> list[int]:
    """All positive divisors, ascending, of the number whose factorization
    is {prime: multiplicity}."""
    out = [1]
    for p, e in factors.items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def totient(n: int) -> int:
    """Euler's phi: the number of generators of C_n."""
    out = n
    for p in factorize(n):
        out -= out // p
    return out


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def p_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


def multiplicative_order(r: int, mod: int) -> int:
    """Order of r in the unit group mod `mod`; requires gcd(r, mod) = 1."""
    if mod < 1:
        raise ValueError(f"modulus must be positive, got {mod}")
    if mod == 1:
        return 1
    r %= mod
    if gcd(r, mod) != 1:
        raise ValueError(f"{r} is not a unit mod {mod}")
    k = 1
    x = r
    while x != 1:
        x = x * r % mod
        k += 1
    return k


def geometric_sum(x: int, k: int, mod: int) -> int:
    """1 + x + ... + x^(k-1) mod `mod`, by doubling over the bits of k:
    S(2j) = S(j) (1 + x^j) and S(j + 1) = 1 + x S(j)."""
    total, power = 0, 1  # S(j) and x^j for the bits of k read so far
    for bit in bin(k)[2:]:
        total = total * (1 + power) % mod
        power = power * power % mod
        if bit == "1":
            total = (1 + x * total) % mod
            power = power * x % mod
    return total


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over GF(q)."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(1, k + 1):
        num *= q ** (n - k + i) - 1
        den *= q**i - 1
    assert num % den == 0
    return num // den


def conjugate_partition(parts: Iterable[int]) -> list[int]:
    """The conjugate of a partition: its i-th part is the number of parts
    >= i, for i = 1 .. the largest part.  Zero parts are ignored."""
    parts = [x for x in parts if x > 0]
    return [sum(x >= i for x in parts) for i in range(1, max(parts, default=0) + 1)]


def _below(bound: list[int], top: int) -> Iterator[list[int]]:
    """Every non-increasing sequence m with m[i] <= bound[i] and m[0] <= top."""
    if not bound:
        yield []
        return
    for first in range(min(bound[0], top) + 1):
        for rest in _below(bound[1:], first):
            yield [first] + rest


def subgroup_count_abelian(p: int, partition: Iterable[int]) -> int:
    """Total subgroup count of the abelian p-group of type `partition`,
    the product of the C_{p^l} for l in it.

    By Birkhoff (Proc. LMS 1935; Butler, Mem. AMS 539, 1994), with l' and
    m' conjugate partitions, a group of type l has

        prod over i >= 1 of  p^(m'_{i+1} (l'_i - m'_i))
                             * [l'_i - m'_{i+1} choose m'_i - m'_{i+1}]_p

    subgroups of type m, for each m inside l (m'_i <= l'_i for every i).
    """
    conj = conjugate_partition(partition)
    total = 0
    for mu in _below(conj, conj[0] if conj else 0):
        term = 1
        for i, (l, m) in enumerate(zip(conj, mu)):
            nxt = mu[i + 1] if i + 1 < len(mu) else 0
            term *= p ** (nxt * (l - m)) * gaussian_binomial(l - nxt, m - nxt, p)
        total += term
    return total


def subgroup_count_elementary_abelian(p: int, n: int) -> int:
    """Total subgroup count of (C_p)^n, as a sum of Gaussian binomials.

    Kept apart from `subgroup_count_abelian`, which it is a special case
    of: the catalog and the benchmark reference use it as a source
    independent of the general formula, so that checking one against the
    other compares two formulas, not one formula with itself."""
    return sum(gaussian_binomial(n, k, p) for k in range(n + 1))


def subgroup_count_rank2(p: int, n1: int, n2: int) -> int:
    """Total subgroup count of C_{p^n1} x C_{p^n2}.

    Divisor-sum form: sum over (a | p^n1, b | p^n2) of gcd(a, p^n2 / b).
    Kept apart from `subgroup_count_abelian` as an independent source, as
    for `subgroup_count_elementary_abelian`.
    """
    return sum(p ** min(i, n2 - j) for i in range(n1 + 1) for j in range(n2 + 1))
