import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import starkit as sk
from starkit import starbody
from starkit.circle import _max_gap_profile, covering_check
from starkit.errors import NotSignificant, PrecisionExhausted
from starkit.exact import GOLDEN, SQRT2, Quad

# ---------------------------------------------------------------------------
# Continued fractions
# ---------------------------------------------------------------------------


def test_cf_sqrt2():
    cf = sk.continued_fraction(SQRT2, 6)
    assert cf.partial_quotients == (1, 2, 2, 2, 2, 2)
    assert [q for _, q in cf.convergents] == [1, 2, 5, 12, 29, 70]
    assert [p for p, _ in cf.convergents] == [1, 3, 7, 17, 41, 99]


def test_cf_golden_fibonacci():
    cf = sk.continued_fraction(GOLDEN, 10)
    assert cf.partial_quotients == (1,) * 10
    assert [q for _, q in cf.convergents] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_cf_rational_terminates():
    cf = sk.continued_fraction(Fraction(3, 7), 10)
    assert cf.terminated
    assert cf.partial_quotients == (0, 2, 3)
    assert cf.convergents[-1] == (3, 7)


def test_cf_convergent_quality():
    cf = sk.continued_fraction(SQRT2, 12)
    a = math.sqrt(2)
    for (p1, q1), (p2, q2) in zip(cf.convergents, cf.convergents[1:]):
        assert abs(a - p1 / q1) < 1.0 / (q1 * q2)
        assert math.gcd(p1, q1) == 1


def test_cf_float_matches_exact_until_budget():
    exact = sk.continued_fraction(SQRT2, 18)
    approx = sk.continued_fraction(math.sqrt(2), 18)
    assert approx.partial_quotients == exact.partial_quotients


def test_cf_float_precision_exhausted():
    with pytest.raises(PrecisionExhausted):
        sk.continued_fraction(math.sqrt(2), 60)


def test_cf_float_terminates():
    cf = sk.continued_fraction(0.5, 10)
    assert cf.terminated and not cf.exact
    assert cf.partial_quotients == (0, 2)
    assert cf.convergents == ((0, 1), (1, 2))
    # 2.75 = [2; 1, 3], but 1/0.75 is inexact at 53 bits: the remainder
    # after the 3 is a rounding residue, so only the depth ends this one
    cf = sk.continued_fraction(2.75, 3)
    assert cf.partial_quotients == (2, 1, 3)
    assert cf.convergents == ((2, 1), (3, 1), (11, 4))


def test_cf_mpf_partial_quotients_are_exact():
    # math.floor of this mpf goes through a float and gives 2^60
    with mpmath.workprec(200):
        cf = sk.continued_fraction(
            mpmath.mpf(2 ** 60 + 1) + mpmath.mpf(1) / 4, 5)
    assert cf.partial_quotients == (2 ** 60 + 1, 4)
    assert cf.terminated


def test_cf_mpf_deeper_budget():
    with mpmath.workprec(200):
        cf = sk.continued_fraction(mpmath.sqrt(2), 60)
    assert cf.partial_quotients == (1,) + (2,) * 59


# ---------------------------------------------------------------------------
# Three distances
# ---------------------------------------------------------------------------


def test_three_distance_golden_example():
    part = sk.three_distance_partition(1 / float(GOLDEN), 0.0, 3)
    assert np.allclose(part.points, [0.2360679, 0.6180339, 0.8541019],
                       atol=1e-6)
    assert sorted(part.distinct_gaps) == pytest.approx([0.2360679, 0.3819660],
                                                       abs=1e-6)


def test_three_distance_single_point():
    part = sk.three_distance_partition(0.377, 0.0, 1)
    assert len(part.points) == 1
    assert part.gaps == (1.0,)
    assert len(part.distinct_gaps) == 1


def test_three_distance_large_n():
    part = sk.three_distance_partition(math.sqrt(2) - 1, 0.0, 10_000)
    assert len(part.distinct_gaps) <= 3
    assert sum(part.gaps) == pytest.approx(1.0, abs=1e-12)


def test_three_distance_many_random_alphas():
    rng = np.random.default_rng(0)
    for _ in range(25):
        a = float(rng.random())
        for n in (10, 137, 4096):
            part = sk.three_distance_partition(a, float(rng.random()), n)
            assert len(part.distinct_gaps) <= 3
            assert sum(part.gaps) == pytest.approx(1.0, abs=1e-12)


# irrational rotations, rationals whose orbits repeat points, and the two
# extremes whose orbits creep around the circle in tiny steps
PROFILE_ALPHAS = [math.sqrt(2) - 1, 2 / (1 + math.sqrt(5)), math.pi - 3,
                  1 / math.e, math.sqrt(3) - 1, 0.51, 0.5, 0.25, 3 / 7,
                  1e-3, 0.999]


def _sorted_orbit_max_gaps(a, n_max):
    """Largest circular gap of {k a}, k <= N, for N = 1..n_max (entry N),
    each from its own sort of the orbit."""
    out = np.full(n_max + 1, np.nan)
    orbit = np.mod(np.arange(1, n_max + 1) * a, 1.0)
    for n in range(1, n_max + 1):
        pts = np.sort(orbit[:n])
        out[n] = max(np.max(np.diff(pts), initial=0.0), pts[0] + 1.0 - pts[-1])
    return out


def test_max_gap_profile_matches_direct():
    a = math.sqrt(2) - 1
    prof = _max_gap_profile(a, 300)
    for n in (1, 2, 17, 120, 300):
        part = sk.three_distance_partition(a, 0.0, n)
        assert prof[n] == pytest.approx(max(part.gaps), abs=1e-12)
    for a in PROFILE_ALPHAS:
        direct = _sorted_orbit_max_gaps(a, 2000)
        prof = _max_gap_profile(a, 2000)
        np.testing.assert_allclose(prof[1:], direct[1:], rtol=0, atol=1e-12,
                                   err_msg=f"alpha_inv {a!r}")


# ---------------------------------------------------------------------------
# Ubiquity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a", PROFILE_ALPHAS)
def test_ubiquity_matches_direct_scan(a):
    n_max = 2000
    direct = _sorted_orbit_max_gaps(a, n_max)
    listed = set(sk.ubiquity_sequence(a, n_max))
    checked = 0
    for n in range(1, n_max + 1):
        bound = 3.0 / (n + 1)
        if abs(direct[n] - bound) > 1e-12:   # clear of the boundary
            assert (n in listed) == (direct[n] <= bound), n
            checked += 1
    assert checked >= n_max - 5


def test_ubiquity_golden_dense():
    ns = sk.ubiquity_sequence(1 / float(GOLDEN), 1000)
    assert ns and ns[0] >= 1
    assert ns == sorted(set(ns))
    # near-Fibonacci N are present
    for fib in (5, 8, 13, 21, 34, 55, 89):
        assert fib in ns


def test_ubiquity_excludes_bad_n():
    ns = set(sk.ubiquity_sequence(0.51, 100))
    part = sk.three_distance_partition(0.51, 0.0, 6)
    assert max(part.gaps) > 3.0 / 7.0
    assert 6 not in ns


def test_ubiquity_covering_property():
    for a in (1 / float(GOLDEN), math.sqrt(2) - 1, 0.51):
        ns = sk.ubiquity_sequence(a, 2000)
        for n in ns[:: max(1, len(ns) // 17)]:
            assert covering_check(a, 0.0, n, 3.0 / (n + 1))


@pytest.mark.parametrize("n", [0, -3])
def test_covering_check_rejects_an_empty_orbit(n):
    # as three_distance_partition does, not an IndexError on no gaps
    with pytest.raises(ValueError, match="N must be >= 1"):
        covering_check(math.sqrt(2) - 1, 0.0, n, 0.5)


@pytest.mark.parametrize("alpha_inv, x0", [
    (math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (0.5, math.nan),
    (0.5, math.inf)], ids=["nan", "inf", "-inf", "x0-nan", "x0-inf"])
def test_orbit_rejects_a_non_finite_rotation(alpha_inv, x0):
    # every orbit point would be NaN: no partition, cover or admissible N
    for call in (lambda: sk.three_distance_partition(alpha_inv, x0, 5),
                 lambda: covering_check(alpha_inv, x0, 5, 0.5)):
        with pytest.raises(ValueError, match="finite"):
            call()
    if x0 == 0.0:
        with pytest.raises(ValueError, match="finite"):
            sk.ubiquity_sequence(alpha_inv, 100)


def test_ubiquity_gaps_grow_roughly_geometric():
    ns = sk.ubiquity_sequence(math.sqrt(2) - 1, 10_000)
    # the admissible set is unbounded at this scale
    assert ns[-1] > 5000


# ---------------------------------------------------------------------------
# Interval system
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cusp_line():
    f = sk.irrational_cusp()
    line = [h for h in sk.extract_skeleton(f).lines
            if not h.rational and h.slope_value > 0][0]
    return f, line


def test_interval_system_rn_formula(cusp_line):
    f, line = cusp_line
    system = sk.interval_system(f, line, 0.2, 0.3, 500)
    theta = math.atan(math.sqrt(2))
    expected = (0.3 + system.n) / math.sin(theta)
    assert np.allclose(system.r_n, expected, atol=1e-10)
    # x_n is the rotation orbit of x0 = y0/alpha
    x0 = 0.3 / math.sqrt(2)
    expected_x = np.mod(x0 + system.n / math.sqrt(2), 1.0)
    assert np.allclose(system.x_n, expected_x, atol=1e-9)


def test_interval_system_containment_and_ratio(cusp_line):
    f, line = cusp_line
    system = sk.interval_system(f, line, 0.2, 0.5, 2000)
    assert np.all(system.sigma_n <= np.minimum(system.half_left,
                                               system.half_right))
    ratio = system.len_Itilde / system.len_In
    assert np.all(ratio >= system.K / 4 - 1e-12)
    assert np.all(ratio <= 1.0 + 1e-12)


def test_interval_system_width_symmetry(cusp_line):
    # the body is symmetric, so w+ ~ w- (ratio -> 1 with distance)
    f, line = cusp_line
    system = sk.interval_system(f, line, 0.2, 0.5, 200)
    ratio = system.w_plus / system.w_minus
    assert np.all(ratio > 0.9) and np.all(ratio < 1.1)
    assert abs(ratio[-1] - 1.0) < 1e-2


# w+ and w- cross along the line's normal, the halves of I_n along (+-1, 0)
_EXTENT_PINS = {
    1: ("0x1.6aebd80d15de2p-6", "0x1.5ef22cc795c5cp-6",
        "0x1.c07b1b494dd20p-6", "0x1.aa712967e1d20p-6"),
    1000: ("0x1.11d5795c495b4p-15", "0x1.11d578088c710p-15",
           "0x1.4f606c2800000p-15", "0x1.4f6069b800000p-15"),
    2000: ("0x1.11e6fe195f594p-16", "0x1.11e6fe082105ap-16",
           "0x1.4f75e0e000000p-16", "0x1.4f75dfe000000p-16"),
}


def test_interval_system_extents_keep_their_bits(cusp_line):
    # measured with masked bracket copies, the full ray arithmetic and
    # sqrt at the root; every crossing must keep these bits
    f, line = cusp_line
    system = sk.interval_system(f, line, 0.2, 0.5, 2000)
    for n, pins in _EXTENT_PINS.items():
        got = tuple(float(v[n - 1]).hex() for v in (
            system.w_plus, system.w_minus, system.half_left,
            system.half_right))
        assert got == pins, n


def test_interval_system_harmonic_sums(cusp_line):
    # widths ~ eps^2 / r make sum |Itilde_n| grow like K eps^2 log N
    f, line = cusp_line
    system = sk.interval_system(f, line, 0.2, 0.5, 20_000)
    sums = dict(system.partial_sums([100, 1000, 10_000, 20_000]))
    assert sums[1000] > sums[100]
    growth = (sums[10_000] - sums[1000]) / (sums[1000] - sums[100])
    assert growth == pytest.approx(1.0, rel=0.2)  # equal decade increments


def test_interval_system_crossings_go_through_the_module_name(cusp_line,
                                                             monkeypatch):
    # perfbench counts starbody.crossing_points with a wrapper on the module
    # attribute: the fit's two crossings of 33 radii, then w+, w-, right and
    # left over all n, each seen once, whatever the slices inside
    f, line = cusp_line
    seen = []
    inner = starbody._bisect_crossing

    def counting(f, base, step, eps):
        seen.append(base.size // 2)
        return inner(f, base, step, eps)

    monkeypatch.setattr(starbody, "_bisect_crossing", counting)
    sk.interval_system(f, line, 0.2, 0.5, 20_000)
    assert len(seen) == 6
    assert sum(seen) == 2 * starbody._FIT_POINTS + 4 * 20_000


def test_interval_system_rejects_insignificant_line():
    # doubling the non-vanishing factor makes the width decay like r^-2
    from starkit.starbody import Abs, GeoMean
    f = GeoMean(Abs(-Quad.sqrt(2), 1), Abs(1, 0), Abs(1, 0))
    line = [h for h in sk.extract_skeleton(f).lines
            if not h.rational and h.slope_value > 0][0]
    with pytest.raises(NotSignificant):
        sk.interval_system(f, line, 0.1, 0.5, 100)


@pytest.mark.parametrize("a", [SQRT2, -sk.INV_SQRT2],
                         ids=["slope_minus_sqrt2", "slope_inv_sqrt2"])
def test_interval_system_rejects_a_slope_not_above_one(a):
    # x_n = {x0 + n/alpha} follows the line only for alpha > 1; the slope
    # -sqrt2 line meets y = y0 + n at 1 - x_n, so its centres would mirror
    from starkit.starbody import Abs, GeoMean
    f = GeoMean(Abs(a, 1), Abs(1, 0))
    line = [h for h in sk.extract_skeleton(f).lines if not h.rational][0]
    assert abs(line.slope_value) != 1.0
    with pytest.raises(sk.StarkitError, match="alpha > 1"):
        sk.interval_system(f, line, 0.2, 0.5, 10)


def test_interval_system_rejects_rational(multiplicative):
    line = sk.extract_skeleton(multiplicative).lines[0]
    with pytest.raises(sk.StarkitError):
        sk.interval_system(multiplicative, line, 0.1, 0.5, 100)


# ---------------------------------------------------------------------------
# Coverage experiment
# ---------------------------------------------------------------------------


def test_coverage_monotone_and_reproducible(cusp_line):
    f, line = cusp_line
    stages = [10, 100, 1000, 5000]
    out = sk.coverage_experiment(sk.interval_system(f, line, 0.2, 0.5, 5000),
                                 stages, samples=4000, seed=6)
    fr1 = [s.fraction_hit_once for s in out]
    frk = [s.fraction_hit_k for s in out]
    assert all(a <= b for a, b in zip(fr1, fr1[1:]))
    assert all(a <= b for a, b in zip(frk, frk[1:]))
    assert all(k <= o for k, o in zip(frk, fr1))
    out2 = sk.coverage_experiment(sk.interval_system(f, line, 0.2, 0.5, 5000),
                                  stages, samples=4000, seed=6)
    assert out == out2


def test_coverage_matches_direct_interval_count(cusp_line):
    # cross-check the searchsorted bookkeeping against a naive O(N*M) count
    f, line = cusp_line
    stages = [200]
    samples = 500
    system = sk.interval_system(f, line, 0.2, 0.5, 200)
    out = sk.coverage_experiment(system, stages,
                                 samples=samples, seed=7, k_hits=2)
    from starkit.sampling import uniform_chunk
    xs = uniform_chunk(7, 0, samples, 1)[:, 0]
    counts = np.zeros(samples)
    for c, r in zip(system.x_n, system.sigma_n):
        d = np.abs(xs - c)
        counts += (np.minimum(d, 1 - d) < r)
    assert out[0].fraction_hit_once == pytest.approx(
        np.mean(counts >= 1), abs=1e-12)
    assert out[0].fraction_hit_k == pytest.approx(
        np.mean(counts >= 2), abs=1e-12)


def test_coverage_union_bound_is_the_partial_sum(cusp_line):
    f, line = cusp_line
    stages = [10, 300, 1000]
    system = sk.interval_system(f, line, 0.2, 0.5, 1000)
    out = sk.coverage_experiment(system, stages,
                                 samples=500, seed=9)
    assert [(s.n, s.union_bound) for s in out] == system.partial_sums(stages)
    assert all(s.fraction_hit_once <= s.union_bound for s in out)


def test_coverage_stage_zero_has_no_hits(cusp_line):
    f, line = cusp_line
    out = sk.coverage_experiment(sk.interval_system(f, line, 0.2, 0.5, 50),
                                 [0, 50], samples=300, seed=8)
    assert out[0].fraction_hit_once == 0.0
    assert out[0].fraction_hit_k == 0.0


def test_coverage_stage_zero_has_a_zero_union_bound(cusp_line):
    f, line = cusp_line
    system = sk.interval_system(f, line, 0.2, 0.5, 50)
    assert system.partial_sums([0, 1]) == [(0, 0.0),
                                           (1, float(system.len_Itilde[0]))]
    out = sk.coverage_experiment(system, [0, 50], samples=300, seed=8)
    assert out[0].union_bound == 0.0


@pytest.mark.parametrize("stages", [[-5, 50], [0, 51]])
def test_coverage_rejects_stages_outside_the_system(cusp_line, stages):
    f, line = cusp_line
    system = sk.interval_system(f, line, 0.2, 0.5, 50)
    with pytest.raises(ValueError, match="stage"):
        sk.coverage_experiment(system, stages, samples=300, seed=8)


def test_generalized_ubiquity_lambda(cusp_line):
    f, line = cusp_line
    system = sk.interval_system(f, line, 0.2, 0.5, 500)
    ns = sk.ubiquity_sequence(1.0 / system.alpha, 500)
    lams = sk.generalized_ubiquity_lambda(system, ns[:20])
    for n, lam in lams:
        w = max(system.w_plus[n - 1], system.w_minus[n - 1])
        assert lam == pytest.approx(3.0 / (n + 1) + w, abs=1e-15)
        assert lam > 3.0 / (n + 1)
    with pytest.raises(ValueError):
        sk.generalized_ubiquity_lambda(system, [501])


def test_cf_from_extracted_slope(irrational_cusp=None):
    # the exact surd slope feeds the exact expansion directly
    f = sk.irrational_cusp()
    line = [h for h in sk.extract_skeleton(f).lines
            if not h.rational and h.slope_value > 0][0]
    cf = sk.continued_fraction(line.slope, 12)
    assert cf.partial_quotients == (1,) + (2,) * 11
    assert cf.exact


def test_golden_max_gap_cf_theory():
    # golden rotation is the most uniform: max gap stays below 3/(N+1)
    # at every N (the CF partial quotients are all 1)
    import math
    prof = _max_gap_profile(2.0 / (1.0 + math.sqrt(5.0)), 2000)
    ns = np.arange(1, 2001)
    assert np.all(prof[1:] <= 3.0 / (ns + 1))
