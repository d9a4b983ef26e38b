"""Deterministic primality and prime iteration for desk-scale inputs."""

from __future__ import annotations

import math

from .errors import PreconditionError, brief

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
        raise PreconditionError(f"primality of {brief(n)} exceeds the deterministic witness range")
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
    """floor(n^(1/k)) for n >= 1.  Newton's method falls to it, in a few
    steps whatever k is, from a float estimate of n^(1/k) raised past its
    rounding error: the float log2 n is off by about 2^-53 of itself."""
    e = math.log2(n) / k
    shift = max(int(e) - 52, 0)
    x = (int(2 ** (e - shift) * (1 + n.bit_length() * 2 ** -50)) + 1) << shift
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


_TRIAL_BITS = 8  # n is trial-divided below B = 2^_TRIAL_BITS before any root is taken


def _prime_power_root(n: int) -> int | None:
    """The prime p with n = p^k, or None.  The least divisor of n past 1, if
    it is below B, is a prime that settles it: n is a power of that prime or
    of none.  Otherwise every prime factor of n passes B, so n = p^k needs
    k < log_B n; taking k-th roots for each such prime k in turn, as often as
    they are exact, leaves the least root of n, which is p exactly when n is
    a prime power (Bernstein, "Detecting perfect powers in essentially linear
    time", 1998)."""
    if n < 2:
        return None
    for p in range(2, min(math.isqrt(n) + 1, 1 << _TRIAL_BITS)):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return p if n == 1 else None
    if n < 1 << 2 * _TRIAL_BITS:
        return n  # no divisor up to its square root: n is prime
    root = n
    for k in primes_up_to(n.bit_length() // _TRIAL_BITS):
        if k * _TRIAL_BITS >= root.bit_length():
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
