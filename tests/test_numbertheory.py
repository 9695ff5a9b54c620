import random
import re

import pytest

from rackrepair import numbertheory
from rackrepair.gf import factor_field_order
from rackrepair.numbertheory import StepBudget, cyclotomic_value, divisors, factorize, is_prime


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53}
    for n in range(2, 54):
        assert is_prime(n) == (n in primes)
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(-7)


def test_is_prime_against_trial_division():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(2, 10**6)
        by_trial = all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_prime(n) == by_trial, n


def test_factorize_roundtrip():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randrange(2, 10**12)
        fac = factorize(n)
        prod = 1
        for p in fac:
            assert is_prime(p)
            prod *= p
        assert prod == n
        assert fac == sorted(fac)


def test_factorize_known():
    assert factorize(6560) == [2, 2, 2, 2, 2, 5, 41]
    assert factorize(15) == [3, 5]
    assert factorize(2) == [2]
    assert factorize(1) == []


def test_factorize_any_class_hint_same_result():
    # d only says where to look: every d gives the factorization of every n,
    # whether or not n's primes lie in the class 1 mod k
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randrange(2, 10**12)
        expected = factorize(n)
        for d in (2, 3, 7, 64, 81, 2 * 3 * 53, 4096):
            assert factorize(n, d) == expected, (n, d)
    # a prime of d above the trial primes is split off at the gcd with d
    assert factorize(59 * 59 * 7 * 709, 59) == [7, 59, 59, 709]
    # 8083 = 59 * 137 and 3481 = 59^2 are 1 mod 6, so the class of d = 3
    # divides by them: rho splits them after the primality test
    assert factorize(59 * 137 * 10007, 3) == [59, 137, 10007]
    assert factorize(59 * 59 * 10007, 3) == [59, 59, 10007]


def test_cyclotomic_primes_lie_in_the_class():
    # the premise of the class hint: every prime of Phi_d(q) divides d or is
    # 1 mod k (k = d for even d, 2d for odd d)
    for q, d in ((13, 32), (13, 64), (3, 81), (2, 128), (65537, 4), (7, 48), (3, 72), (7, 2)):
        k = d if d % 2 == 0 else 2 * d
        assert all(d % p == 0 or p % k == 1 for p in factorize(cyclotomic_value(d, q), d))


def test_factorize_rejects_bad_arguments():
    for n, d in ((0, 1), (5, 0), (-3, 2)):
        with pytest.raises(ValueError):
            factorize(n, d)


# two 20-digit primes, both 1 mod 64: rho with y^64 + c needs about
# sqrt(10^19 / 64), some 4 * 10^8 steps, to split their product
P20, Q20 = 10000000000000007489, 30000000000000000193


def test_factorize_budget_raises(monkeypatch):
    assert is_prime(P20) and is_prime(Q20) and P20 % 64 == Q20 % 64 == 1
    monkeypatch.setattr(numbertheory, "_RHO_BUDGET", 5000)
    with pytest.raises(ValueError, match=f"no factor of {P20 * Q20} within its budget of 5000 steps"):
        factorize(P20 * Q20, 64)


def test_factorize_budget_counts_steps(monkeypatch):
    # Phi_32(13) = 2 * 2657 * 441281 * 283763713: trial division leaves the
    # last two, which rho with y^32 + c splits in 254 steps
    n = cyclotomic_value(32, 13)
    monkeypatch.setattr(numbertheory, "_RHO_BUDGET", 300)
    assert factorize(n, 32) == [2, 2657, 441281, 283763713]
    monkeypatch.setattr(numbertheory, "_RHO_BUDGET", 40)
    with pytest.raises(ValueError, match="budget of 40 steps") as info:
        factorize(n, 32)
    assert int(re.search(r"factor of (\d+)", str(info.value)).group(1)) == 441281 * 283763713


def test_factor_field_order_shares_one_budget(monkeypatch):
    # 13^52 - 1: rho splits 264031 * 1803647 of Phi_13(13) and
    # 380329 * 1418792215861230619657 of Phi_52(13) in 126 steps each, so
    # a budget of 200 covers either piece but not the field
    monkeypatch.setattr(numbertheory, "_RHO_BUDGET", 200)
    assert factorize(cyclotomic_value(13, 13), 13) == [53, 264031, 1803647]
    assert factorize(cyclotomic_value(52, 13), 52) == [380329, 1418792215861230619657]
    with pytest.raises(ValueError, match=f"no factor of {380329 * 1418792215861230619657} "
                                         "within its budget of 200 steps"):
        factor_field_order(13, 52)
    budget = numbertheory.rho_budget()
    factorize(cyclotomic_value(13, 13), 13, budget=budget)
    assert budget.left == 200 - 126


def test_step_budget_boundary():
    # steps + reserve == left passes and takes only the steps; one step
    # more raises with the refusal formatted from the total and the fields
    budget = StepBudget(10, "refused {what} within {total}")
    budget.spend(3, reserve=7)
    assert budget.left == 7
    with pytest.raises(ValueError, match="^refused x within 10$"):
        budget.spend(1, reserve=7, what="x")
    budget.spend(7)
    assert budget.left == 0
    with pytest.raises(ValueError, match="^refused y within 10$"):
        budget.spend(1, what="y")
    with pytest.raises(TypeError):
        budget.spend(0, 0)  # reserve is keyword-only


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(64) == [1, 2, 4, 8, 16, 32, 64]


def test_cyclotomic_values():
    # Phi_1(q) = q - 1, Phi_2(q) = q + 1, Phi_4(q) = q^2 + 1, Phi_6(q) = q^2 - q + 1
    for q in (2, 3, 5, 7):
        assert cyclotomic_value(1, q) == q - 1
        assert cyclotomic_value(2, q) == q + 1
        assert cyclotomic_value(4, q) == q * q + 1
        assert cyclotomic_value(6, q) == q * q - q + 1


def test_cyclotomic_product_is_order():
    for q, l in ((3, 8), (3, 12), (2, 10), (5, 6)):
        prod = 1
        for d in divisors(l):
            prod *= cyclotomic_value(d, q)
        assert prod == q**l - 1
