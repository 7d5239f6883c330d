import math
from fractions import Fraction

import numpy as np
import pytest

import starkit as sk
from starkit import measure, sampling
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
    # tau and sigma are DSL numbers
    assert parse_psi("pow:3/2") == sk.PsiFamily.power(1.5)
    assert parse_psi("powlog:sqrt2,-1/4") == sk.PsiFamily.powerlog(
        float(sk.SQRT2), -0.25)
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


def _tail_one_q_at_a_time(f, psi, n, samples, seed):
    qs = range(max(n, psi.q_start), 2 * n + 1)

    def hit(pts):
        out = np.zeros(len(pts), dtype=bool)
        for q in qs:
            out |= sk.batch_hits(f, pts, q, float(psi(q)))
        return out
    return sampling.indicator_estimate(hit, samples, seed)


@pytest.mark.parametrize("body,psi,n,samples", [
    # 65 values of q, not a multiple of the batch; a partial last chunk
    ("height", sk.PsiFamily.power(1.5), 64, 5_000),
    # q_start = 2: the block [1, 2] holds one q
    ("height", sk.PsiFamily.powerlog(3.0, 1.0), 1, 3_000),
    ("height", sk.PsiFamily.table([2.0] * 8), 2, 500),
    # the tube path
    ("multiplicative", sk.PsiFamily.power(2.0), 16, 3_000),
    ("union_jack", sk.PsiFamily.power(2.0), 16, 3_000),
    # the enumerated q of the lattice path
    ("height", sk.PsiFamily.power(2.0), 256, 5_000),
], ids=["height", "powlog_one_q", "saturated", "multiplicative",
        "union_jack", "height_lattice"])
def test_tail_equals_a_loop_over_single_q(registered_bodies, body, psi, n,
                                          samples):
    f = registered_bodies[body]
    got = sk.tail_measure(f, psi, n, samples=samples, seed=6)
    want = _tail_one_q_at_a_time(f, psi, n, samples, 6)
    assert got == want
    assert got[0] == 1.0 if psi.kind == "table" else 0 < got[0] < 1


@pytest.mark.parametrize("text,tau,n,value,stderr", [
    ("max(abs(1,0),abs(0,1))", 1.6, 256, 0.59375, "0x1.639e2653e421bp-8"),
    ("gm(abs(1,0),abs(0,1))", 2.5, 64, 0.00390625, "0x1.6954b41cd4293p-11"),
    ("max(abs(2,0),abs(0,sqrt2))", 1.6, 256, 0.2628173828125,
     "0x1.3eb67bf15275fp-8"),
    # sizes at which the certified bodies enumerate their candidate q
    ("max(abs(1,0),abs(0,1))", 1.6, 1024, 0.5028076171875,
     "0x1.6a087057f7f04p-8"),
    ("max(abs(1,0),abs(0,1))", 1.4, 1024, 0.9881591796875,
     "0x1.394ac04673ac5p-10"),
    ("max(abs(1,0),abs(0,1))", 1.6, 4096, 0.3978271484375,
     "0x1.6266330e3386ap-8"),
    ("max(abs(2,0),abs(0,sqrt2))", 1.6, 1024, 0.2078857421875,
     "0x1.25d3a139284c5p-8"),
], ids=["height", "multiplicative", "scaled_box", "height_conv_1024",
        "height_div_1024", "height_conv_4096", "scaled_box_1024"])
def test_tail_values_are_pinned(text, tau, n, value, stderr):
    # the tail's hit decisions, q-major wrap and lean atoms included, are
    # those of the plain float formula: these floats predate both
    got, se = sk.tail_measure(sk.parse_distance_function(text),
                              sk.PsiFamily.power(tau), n, samples=8192,
                              seed=104)
    assert (got.hex(), se.hex()) == (value.hex(), stderr)


def _lattice_calls(monkeypatch):
    """The point counts of the ``measure._lattice_cells`` calls to come."""
    calls = []
    cells = measure._lattice_cells

    def counted(x, *args):
        calls.append(len(x))
        return cells(x, *args)
    monkeypatch.setattr(measure, "_lattice_cells", counted)
    return calls


@pytest.mark.parametrize("text,tau,n,lattice", [
    ("max(abs(1,0),abs(0,1))", 2.0, 256, True),
    ("max(abs(1,0),abs(0,1))", 1.6, 1024, True),
    ("max(abs(2,0),abs(0,sqrt2))", 1.6, 1024, True),
    # the divergent tail: most samples leave within a few batches
    ("max(abs(1,0),abs(0,1))", 1.4, 1024, False),
    # delta = 64^-0.5: the lattice would hold most q
    ("max(abs(1,0),abs(0,1))", 1.5, 64, False),
    # no certified bound: the multiplicative body keeps the sweep
    ("gm(abs(1,0),abs(0,1))", 2.5, 256, False),
])
def test_tail_takes_the_lattice_path_where_it_pays(monkeypatch, text, tau, n,
                                                   lattice):
    calls = _lattice_calls(monkeypatch)
    sk.tail_measure(sk.parse_distance_function(text), sk.PsiFamily.power(tau),
                    n, samples=5_000, seed=104)
    assert len(calls) == (2 if lattice else 0)     # 5,000 samples: 2 chunks


def test_tail_lattice_path_is_thread_count_independent(height, monkeypatch):
    calls = _lattice_calls(monkeypatch)
    psi = sk.PsiFamily.power(1.6)
    got = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("STARKIT_THREADS", threads)
        got[threads] = sk.tail_measure(height, psi, 1024, samples=20_000,
                                       seed=104)
    assert got["1"] == got["2"]
    assert len(calls) == 2 * 5      # five chunks per run, each enumerated


def test_tail_without_a_proven_lattice_sweeps_every_q(height, monkeypatch):
    # integers past _LATTICE_LIMIT: _lattice_cells gives None, the chunk
    # goes on sweeping, and the value is the same
    psi = sk.PsiFamily.power(1.6)
    want = sk.tail_measure(height, psi, 1024, samples=8192, seed=104)
    calls = _lattice_calls(monkeypatch)
    monkeypatch.setattr(measure, "_LATTICE_LIMIT", 2.0 ** 6)
    assert sk.tail_measure(height, psi, 1024, samples=8192, seed=104) == want
    assert len(calls) == 2


def test_tail_and_search_build_one_kernel_per_call(height, monkeypatch):
    built = []
    init = measure._Kernel.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)
    monkeypatch.setattr(measure._Kernel, "__init__", counting)
    sk.tail_measure(height, sk.PsiFamily.power(1.6), 40, samples=5_000,
                    seed=1)
    assert len(built) == 1
    sk.best_approximations(height, (0.3, 0.7), 70)
    assert len(built) == 2


@pytest.mark.parametrize("text,tau,n,calls", [
    ("max(abs(1,0),abs(0,1))", 1.6, 1024, 2),
    ("max(abs(1,0),abs(0,1))", 1.4, 1024, 130),
    ("gm(abs(1,0),abs(0,1))", 2.5, 256, 34),
    ("gm(abs(1,-1),abs(0,1))", 1.5, 64, 10),
])
def test_tail_makes_the_pinned_hits_calls(monkeypatch, text, tau, n, calls):
    # one _Kernel.hits call per q-batch that a chunk still needs, on two
    # chunks of 4,096 samples: perfbench's measure.hits_* counters see
    # each one.  The counts were measured before the kernel's any_hit
    # took over the tail's loop
    made = []
    hits = measure._Kernel.hits

    def counted(self, *args):
        made.append(len(args[0]))
        return hits(self, *args)
    monkeypatch.setattr(measure._Kernel, "hits", counted)
    sk.tail_measure(sk.parse_distance_function(text), sk.PsiFamily.power(tau),
                    n, samples=8192, seed=104)
    assert len(made) == calls


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


@pytest.mark.parametrize("body", ["union_jack", "height", "multiplicative"])
def test_best_approximations_are_a_loop_over_minimum(registered_bodies,
                                                     body):
    # q <= 64 on the window, the 236 larger q in one batched minimize,
    # against one minimum per q: values, p and record flags
    f = registered_bodies[body]
    for x in ((math.sqrt(2), math.sqrt(3)), (0.41, 0.73)):
        kern = measure._Kernel(f)
        want, best = [], math.inf
        for q in range(1, 301):
            raw, p = kern.minimum(x, q, 1.0)
            want.append((q, p, raw / q, raw / q < best))
            best = min(best, raw / q)
        got = sk.best_approximations(f, x, 300)
        assert [(r.q, r.p, r.value, r.record) for r in got] == want


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
