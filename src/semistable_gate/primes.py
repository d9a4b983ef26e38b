"""Deterministic primality and prime iteration for desk-scale inputs."""

from __future__ import annotations

import math

from .errors import brief

# Deterministic Miller-Rabin witness set, valid for all n < 3.3 * 10^24.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESS_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    if n >= _WITNESS_LIMIT:
        raise ValueError(f"primality of {brief(n)} exceeds the deterministic witness range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Least prime strictly greater than n."""
    k = n + 1
    if k <= 2:
        return 2
    if k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 2
    return k


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit (simple sieve; limit is desk-scale)."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, flag in enumerate(sieve) if flag]


def prime_count_lower_bound(x: int) -> int:
    """A lower bound on pi(x) without a sieve: pi(x) > x / ln x for x >= 17
    (Rosser and Schoenfeld, 1962), ln x < x.bit_length(); tested below 17."""
    return x // x.bit_length() if x > 1 else 0


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) by bisection, keeping lo^k <= n < hi^k."""
    lo, hi = 1, 1 << -(-n.bit_length() // k)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid ** k <= n else (lo, mid)
    return lo


def _prime_power_root(n: int) -> int | None:
    """The prime p with n = p^k, or None.  Taking k-th roots for each prime
    k in turn, as often as they are exact, leaves the least root of n, which
    is p exactly when n is a prime power."""
    if n < 2:
        return None
    root = n
    for k in primes_up_to(n.bit_length()):
        if k > root.bit_length():
            break
        while (x := _iroot(root, k)) ** k == root:
            root = x
    return root if is_prime(root) else None


def is_prime_power(n: int) -> bool:
    """True iff n = p^k for a prime p and k >= 1."""
    return _prime_power_root(n) is not None


def prime_power_base(n: int) -> int:
    """The prime p with n = p^k; raises if n is not a prime power."""
    if (p := _prime_power_root(n)) is None:
        raise ValueError(f"{brief(n)} is not a prime power")
    return p
