import pytest

from semistable_gate.errors import brief
from semistable_gate.primes import (
    is_prime,
    is_prime_power,
    prime_count_lower_bound,
    prime_power_base,
    primes_up_to,
)


def test_prime_powers_match_trial_factorisation():
    for n in range(-3, 3000):
        factors = {p for p in range(2, max(n, 2) + 1) if n % p == 0 and is_prime(p)}
        expected = n >= 2 and len(factors) == 1
        assert is_prime_power(n) is expected, n
        if expected:
            assert prime_power_base(n) == factors.pop()


def test_prime_power_base_beyond_float_range():
    assert is_prime_power(2 ** 1100) and prime_power_base(2 ** 1100) == 2
    assert prime_power_base(43 ** 20) == 43
    assert not is_prime_power(2 ** 1100 * 3)


def test_prime_powers_with_no_small_factor():
    # no divisor below 2^8: the roots are taken, by Newton's method
    for p in (257, 65537, 1000003, 2 ** 61 - 1):
        for k in (1, 2, 3, 5, 6, 30, 97):
            assert prime_power_base(p ** k) == p, (p, k)
    for m in (257 * 263, 65537 * 1000003, (2 ** 61 - 1) * 263):
        for k in (1, 2, 7, 60):
            assert not is_prime_power(m ** k), (m, k)


def test_prime_count_lower_bound_below_exact_count():
    sieve = primes_up_to(10 ** 5)
    count = 0
    for x in range(-2, 10 ** 5 + 1):
        while count < len(sieve) and sieve[count] <= x:
            count += 1
        assert prime_count_lower_bound(x) <= count, x
    assert prime_count_lower_bound(10 ** 12) > 10 ** 10  # refuses a sweep before sieving


def test_messages_abbreviate_integers_past_100_digits():
    assert brief(10 ** 100 - 1) == "9" * 100
    assert brief(-(10 ** 100)) == "-1000000000...0000000000 (101 digits)"
    # past the int-to-str digit limit, which str() itself refuses
    assert brief(10 ** 123456 + 17) == "1000000000...0000000017 (123457 digits)"
    n = 43 ** 3100  # 5064 digits, and no Miller-Rabin witness divides it
    with pytest.raises(ValueError, match=r"^primality of \d{10}\.\.\.\d{10} \(5064 digits\)"):
        is_prime(n)

