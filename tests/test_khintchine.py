import math
from fractions import Fraction

import numpy as np
import pytest

import starkit as sk
from starkit.khintchine import parse_psi, totient_sieve

from conftest import brute_membership

# ---------------------------------------------------------------------------
# Psi families
# ---------------------------------------------------------------------------


def test_psi_power():
    psi = sk.PsiFamily.power(2.0)
    assert psi(4) == pytest.approx(1 / 16)
    assert psi.check_monotone(1000)   # q * q^-2 decreasing


def test_psi_powerlog_domain():
    psi = sk.PsiFamily.powerlog(1.5, 1.0)
    assert psi.q_start == 2
    assert psi(2) == pytest.approx(2 ** -1.5 / math.log(2))


def test_psi_qpsi_monotone_flag():
    assert not sk.PsiFamily.power(0.5).check_monotone(100)  # q*psi grows
    assert sk.PsiFamily.power(1.0).check_monotone(100)


def test_psi_monotone_checked_past_the_first_block():
    # q*psi(q) = q^0.01 (log q)^-0.125 is least near q = e^12.5 ~ 268,337
    psi = parse_psi("powlog:0.99,0.125")
    assert psi.check_monotone(200_000)
    assert not psi.check_monotone(300_000)


def test_psi_monotone_blocks_share_their_end_q():
    # the one increase is from q = 200,001 to 200,002, across a block end
    n = 200_002
    vals = [1.0 / q for q in range(1, n + 1)]
    assert sk.PsiFamily.table(vals).check_monotone(n)
    vals[-1] = 2.0 / n
    assert not sk.PsiFamily.table(vals).check_monotone(n)


def test_psi_table():
    psi = sk.PsiFamily.table([0.5, 0.25, 0.125])
    assert psi(2) == 0.25
    with pytest.raises(ValueError):
        psi(4)
    with pytest.raises(ValueError):
        sk.PsiFamily.table([0.5, -1.0])


def test_parse_psi():
    assert parse_psi("pow:1.5") == sk.PsiFamily.power(1.5)
    assert parse_psi("powlog:1.5,0.8") == sk.PsiFamily.powerlog(1.5, 0.8)
    with pytest.raises(ValueError):
        parse_psi("exp:2")


# ---------------------------------------------------------------------------
# Series
# ---------------------------------------------------------------------------


def test_series_height_inverse_square(height):
    # terms are 4 q^2 psi(q)^2 = 4/q^2: partial sums approach 4 zeta(2)
    sums, verdict = sk.series_partial_sums(height, sk.PsiFamily.power(2.0), 2000)
    oracle = sum(4.0 / q ** 2 for q in range(1, 2001))
    assert sums[-1][0] == 2000
    assert sums[-1][1] == pytest.approx(oracle, rel=1e-12)
    assert abs(sums[-1][1] - 4 * math.pi ** 2 / 6) < 0.002
    assert verdict == "convergent"
    # partial sums non-decreasing
    vals = [s for _, s in sums]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("tau,expected", [
    (1.6, "convergent"), (1.51, "convergent"),
    (1.5, "divergent"), (1.4, "divergent"), (1.0, "divergent"),
])
def test_series_height_powerlaw_threshold(height, tau, expected):
    _, verdict = sk.series_partial_sums(height, sk.PsiFamily.power(tau), 5)
    assert verdict == expected


@pytest.mark.parametrize("sigma,expected", [
    (1.2, "convergent"), (1.01, "convergent"),
    (1.0, "divergent"), (0.8, "divergent"),
])
def test_series_mult_breaking_point(multiplicative, sigma, expected):
    # q^(-3/2) (log q)^(-sigma): the extra log from the hyperbola density
    # moves the threshold to sigma > 1
    psi = sk.PsiFamily.powerlog(1.5, sigma)
    _, verdict = sk.series_partial_sums(multiplicative, psi, 5)
    assert verdict == expected


def test_series_height_at_threshold_log_matters(height):
    # height + powerlog tau=1.5: terms ~ q^-1 (log q)^(-2 sigma)
    _, v1 = sk.series_partial_sums(height, sk.PsiFamily.powerlog(1.5, 0.6), 5)
    _, v2 = sk.series_partial_sums(height, sk.PsiFamily.powerlog(1.5, 0.4), 5)
    assert (v1, v2) == ("convergent", "divergent")


def test_series_convergent_is_cauchy(height):
    sums, _ = sk.series_partial_sums(height, sk.PsiFamily.power(1.6), 4000)
    s = dict(sums)
    gaps = [s[2 * q] - s[q] for q in (250, 500, 1000, 2000)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_series_unregistered_verdict_inconclusive(union_jack):
    _, verdict = sk.series_partial_sums(union_jack, sk.PsiFamily.power(2.0), 3,
                                        method="montecarlo")
    assert verdict == "inconclusive"


# ---------------------------------------------------------------------------
# Tail measures
# ---------------------------------------------------------------------------


def test_tail_saturation(height):
    psi = sk.PsiFamily.table([2.0] * 8)
    v, e = sk.tail_measure(height, psi, 2, samples=500, seed=0)
    assert v == 1.0


def test_tail_union_bound(height):
    psi = sk.PsiFamily.power(1.6)
    for n in (64, 256):
        v, e = sk.tail_measure(height, psi, n, samples=20_000, seed=1)
        bound = sum(4.0 * (q * psi(q)) ** 2 for q in range(n, 2 * n + 1))
        assert v <= bound + 3 * e


def test_tail_decreases_convergent_case(height):
    psi = sk.PsiFamily.power(1.6)
    v1, e1 = sk.tail_measure(height, psi, 128, samples=20_000, seed=2)
    v2, e2 = sk.tail_measure(height, psi, 1024, samples=20_000, seed=2)
    assert v2 < v1 - 3 * (e1 + e2)


def test_tail_divergent_case_stays_large(height):
    psi = sk.PsiFamily.power(1.4)
    for n in (128, 1024):
        v, _ = sk.tail_measure(height, psi, n, samples=20_000, seed=3)
        assert v >= 0.5


def test_tail_coupled_monotone_in_psi(height):
    # same seed: pointwise larger psi can only add hits
    small = sk.PsiFamily.power(1.7)
    large = sk.PsiFamily.power(1.5)
    v1, e1 = sk.tail_measure(height, small, 128, samples=20_000, seed=4)
    v2, e2 = sk.tail_measure(height, large, 128, samples=20_000, seed=4)
    assert v1 <= v2 + 3 * (e1 + e2)


def test_tail_deterministic_given_seed(height):
    psi = sk.PsiFamily.power(1.5)
    a = sk.tail_measure(height, psi, 64, samples=5_000, seed=5)
    b = sk.tail_measure(height, psi, 64, samples=5_000, seed=5)
    assert a == b


# ---------------------------------------------------------------------------
# Euler phi sums
# ---------------------------------------------------------------------------


def test_totient_sieve_matches_bruteforce():
    phi = totient_sieve(200)
    for q in range(1, 201):
        brute = sum(1 for k in range(1, q + 1) if math.gcd(k, q) == 1)
        assert phi[q] == brute


def test_phi_sum_exact_small():
    lhs, rhs, ratio = sk.euler_phi_sum_check(lambda q: Fraction(1), 10)
    phis = [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    oracle = sum(Fraction(p, q) ** 2 for q, p in enumerate(phis, start=1))
    assert lhs == oracle
    assert rhs == 9
    assert ratio == oracle / 9


def test_phi_sum_includes_q1_term():
    lhs, rhs, ratio = sk.euler_phi_sum_check(lambda q: Fraction(1), 2)
    # lhs = omega(1) + (1/2)^2 omega(2), rhs = omega(2)
    assert lhs == Fraction(5, 4)
    assert ratio == Fraction(5, 4)


def test_phi_sum_ratio_bounded_below():
    for omega in (lambda q: 1.0 / q,
                  lambda q: 1.0 / (q * max(math.log(q), 1.0) ** 2)):
        for n in (1000, 100_000):
            _, _, ratio = sk.euler_phi_sum_check(omega, n)
            assert ratio >= 0.3


# ---------------------------------------------------------------------------
# Best approximations
# ---------------------------------------------------------------------------


def test_best_approx_rational_point(height):
    out = sk.best_approximations(height, (1 / 3, 2 / 3), 3)
    last = out[-1]
    assert last.q == 3 and last.value == 0.0 and last.p == (1, 2)


def test_best_approx_matches_bruteforce(height, multiplicative):
    x = (math.sqrt(2) - 1, math.sqrt(3) - 1)
    for f in (height, multiplicative):
        out = sk.best_approximations(f, x, 40)
        for rec in out:
            _, bval, bp = brute_membership(f, x, rec.q, 1.0,
                                           window=rec.q // 2 + 2)
            assert rec.value == bval / rec.q and rec.p == bp


def test_best_approx_records_monotone(multiplicative):
    out = sk.best_approximations(multiplicative,
                                 (math.sqrt(2) % 1, math.sqrt(3) % 1), 60)
    records = [r.value for r in out if r.record]
    assert all(b < a for a, b in zip(records, records[1:]))
    assert out[0].record


def test_density_terms_nonincreasing_for_theorem_psi(height, multiplicative):
    # the zero-one law hypothesis: D_F(q psi(q)) decreasing for these psi
    for f, psi in ((height, sk.PsiFamily.power(1.6)),
                   (multiplicative, sk.PsiFamily.powerlog(1.5, 1.2))):
        sums, _ = sk.series_partial_sums(f, psi, 400)
        vals = [s for _, s in sums]
        terms = np.diff([0.0] + vals)
        tail = terms[4:]
        assert np.all(np.diff(tail) <= 1e-12)


def test_phi_ratio_large_n():
    _, _, ratio = sk.euler_phi_sum_check(lambda q: 1.0 / q, 1_000_000)
    assert ratio >= 0.3


def test_dichotomy_report_json(height):
    rep = sk.dichotomy_report(height, sk.PsiFamily.power(1.6), q_max=50,
                              blocks=[16], samples=2000, seed=9)
    blob = rep.to_json()
    assert blob["verdict"] == "convergent"
    assert blob["series"][-1]["Q"] == 50
    assert blob["tails"][0]["N"] == 16 and blob["tails"][0]["seed"] == 9
