"""Number-theoretic helpers for the FV implementation.

Primality testing, NTT-friendly prime generation, primitive roots of unity,
modular inverses and centered residues.  Everything here works
on plain Python integers; the vectorized hot paths live in
:mod:`repro.he.ntt` and :mod:`repro.he.polyring`.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ParameterError

# Deterministic Miller-Rabin witness set, valid for every n < 3.3 * 10^24,
# far beyond the < 2^62 moduli used by this library.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for ``n < 3.3e24``."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def ntt_primes(bit_size: int, degree: int, count: int) -> list[int]:
    """Return ``count`` primes ``p = k * 2 * degree + 1`` just below ``2**bit_size``.

    Such primes support a negacyclic NTT of length ``degree`` because the
    multiplicative group contains a ``2 * degree``-th root of unity.

    Args:
        bit_size: target prime width in bits (primes are < ``2**bit_size``).
        degree: NTT length; must be a power of two.
        count: how many distinct primes to return.

    Raises:
        ParameterError: if ``degree`` is not a power of two or not enough
            primes exist below ``2**bit_size``.
    """
    if degree < 2 or degree & (degree - 1):
        raise ParameterError(f"degree must be a power of two, got {degree}")
    if not 2 <= bit_size <= 61:
        raise ParameterError(f"bit_size must be in [2, 61], got {bit_size}")
    modulus = 2 * degree
    found: list[int] = []
    candidate = ((1 << bit_size) - 1) // modulus * modulus + 1
    while candidate > (1 << (bit_size - 1)) and len(found) < count:
        if is_prime(candidate):
            found.append(candidate)
        candidate -= modulus
    if len(found) < count:
        raise ParameterError(
            f"only {len(found)} NTT primes of {bit_size} bits exist for degree {degree}; "
            f"{count} requested"
        )
    return found


def primitive_root(modulus: int) -> int:
    """Smallest primitive root of a prime ``modulus``."""
    if not is_prime(modulus):
        raise ParameterError(f"{modulus} is not prime")
    order = modulus - 1
    factors = _prime_factors(order)
    for g in range(2, modulus):
        if all(pow(g, order // f, modulus) != 1 for f in factors):
            return g
    raise ParameterError(f"no primitive root found for {modulus}")  # pragma: no cover


def root_of_unity(order: int, modulus: int) -> int:
    """A primitive ``order``-th root of unity modulo the prime ``modulus``."""
    if (modulus - 1) % order:
        raise ParameterError(f"{modulus} has no {order}-th root of unity")
    g = primitive_root(modulus)
    root = pow(g, (modulus - 1) // order, modulus)
    # pow(g, (p-1)/order) always has order dividing `order`; verify it is exact.
    if pow(root, order // 2, modulus) == 1:
        raise ParameterError(f"failed to find exact {order}-th root mod {modulus}")
    return root


def invert_mod(a: int, modulus: int) -> int:
    """Multiplicative inverse of ``a`` modulo ``modulus``.

    Raises:
        ParameterError: if ``a`` is not invertible.
    """
    g, x, _ = _extended_gcd(a % modulus, modulus)
    if g != 1:
        raise ParameterError(f"{a} is not invertible mod {modulus}")
    return x % modulus


def centered(value: int, modulus: int) -> int:
    """Map ``value mod modulus`` into the centered range ``(-modulus/2, modulus/2]``."""
    value %= modulus
    if value > modulus // 2:
        value -= modulus
    return value


def product(values: Iterable[int]) -> int:
    """Product of an iterable of ints (kept exact with Python bigints)."""
    result = 1
    for v in values:
        result *= v
    return result


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _prime_factors(n: int) -> list[int]:
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        factors.append(n)
    return factors
