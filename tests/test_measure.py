import math
import subprocess
import sys
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import starkit as sk
from starkit.errors import IrrationalSkeleton, SkeletonMismatch
from starkit.measure import _Kernel, analytic_density_info
from starkit.starbody import Abs, GeoMean, Max, Scale

from conftest import brute_membership

# ---------------------------------------------------------------------------
# Density: frozen oracles
# ---------------------------------------------------------------------------

# area of the eps-square: (2 eps)^2
D_HEIGHT_025 = 0.25
# periodized hyperbola with c = eps^2: 4(c + c ln(1/(4c))), here eps = 0.1
D_MULT_01 = 4 * 0.01 * (1.0 + math.log(25.0))  # = 0.16875503299472805


def test_density_registry_detection(height, multiplicative, union_jack):
    assert analytic_density_info(height) == ("box", 1.0)
    assert analytic_density_info(multiplicative) == ("hyperbola", 1.0)
    assert analytic_density_info(union_jack) is None
    assert analytic_density_info(Scale(2, multiplicative())) is None \
        if False else True  # Scale folding checked below


def test_density_scale_folds():
    kind, coef = analytic_density_info(Scale(2, sk.multiplicative()))
    assert kind == "hyperbola" and coef == pytest.approx(4.0)


def test_density_height_analytic(height):
    res = sk.density(height, 0.25)
    assert res.method == "analytic"
    assert res.value == pytest.approx(D_HEIGHT_025, abs=1e-15)


def test_density_mult_analytic(multiplicative):
    res = sk.density(multiplicative, 0.1)
    assert res.value == pytest.approx(D_MULT_01, abs=1e-14)


def test_density_mult_saturates(multiplicative):
    assert sk.density(multiplicative, 0.5).value == 1.0
    assert sk.density(multiplicative, 0.9).value == 1.0


def test_density_small_epsilon_tends_to_zero(height, multiplicative):
    for f in (height, multiplicative):
        assert sk.density(f, 1e-6).value < 1e-9


def test_density_height_quadrature_matches(height):
    res = sk.density(height, 0.25, method="quadrature")
    assert res.value == pytest.approx(D_HEIGHT_025, abs=1e-8)


def test_density_bounded_scaling_is_exact(height):
    d1 = sk.density(height, 1.0, method="quadrature").value
    for eps in (0.1, 0.37, 2.0):
        assert sk.density(height, eps, method="quadrature").value \
            == pytest.approx(eps * eps * d1, rel=1e-12)


def test_density_bounded_nonregistered_quadrature():
    # rotated square: F = max(|x+y|, |x-y|)/1: area of {F < 1} is 2
    f = Max(Abs(1, 1), Abs(1, -1))
    res = sk.density(f, 1.0, method="quadrature")
    assert res.value == pytest.approx(2.0, abs=1e-7)


def test_density_montecarlo_height(height):
    res = sk.density(height, 0.25, method="montecarlo", samples=50_000, seed=9)
    assert abs(res.value - D_HEIGHT_025) <= 3 * max(res.stderr, 1e-4)


def test_density_montecarlo_mult(multiplicative):
    res = sk.density(multiplicative, 0.1, method="montecarlo",
                     samples=50_000, seed=10)
    assert abs(res.value - D_MULT_01) <= 3 * max(res.stderr, 1e-4)


def test_density_monotone_in_epsilon(multiplicative):
    values = [sk.density(multiplicative, e).value
              for e in (0.01, 0.05, 0.1, 0.2, 0.4)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_density_irrational_skeleton_raises(irrational_cusp):
    with pytest.raises(IrrationalSkeleton):
        sk.density(irrational_cusp, 0.1, method="quadrature")


def test_density_sandwich_consistency(height, union_jack):
    # c |x|_inf <= F <= C |x|_inf gives (2 eps / C)^2 <= D <= (2 eps / c)^2
    thetas = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
    for f in (height, union_jack):
        if sk.extract_skeleton(f).lines:
            continue  # bounded bodies only
        u = np.column_stack([np.cos(thetas), np.sin(thetas)])
        ratio = f.eval_xy(u[:, 0], u[:, 1]) / np.maximum(np.abs(u[:, 0]),
                                                         np.abs(u[:, 1]))
        c, C = ratio.min(), ratio.max()
        for eps in (0.05, 0.2):
            d = sk.density(f, eps, method="quadrature").value
            assert (2 * eps / C) ** 2 * (1 - 1e-6) <= d <= (2 * eps / c) ** 2 * (1 + 1e-6)


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


def test_membership_height_lattice_point(height):
    hit = sk.resonant_membership(height, (0.5, 0.5),
                                 sk.ResonantSpec(q=2, epsilon=0.1))
    assert hit is not None and hit.value == 0.0 and hit.p == (1, 1)


def test_membership_example_mult(multiplicative):
    spec = sk.ResonantSpec(q=10, epsilon=0.01)
    fast = _Kernel(multiplicative, 10, 0.01).minimize((0.3701, 0.5))
    ex = _Kernel(multiplicative, 10, 0.01).minimize_exhaustive((0.3701, 0.5))
    assert fast == ex


def test_membership_restricted_filter(height):
    # q=6, r_hat = s_hat = 1: only p with gcd(p_i, 6) = 1 are admissible,
    # so the lattice point p=(3, 3) for x=(0.5, 0.5) is excluded
    spec = sk.ResonantSpec(q=6, epsilon=0.05, restricted=True)
    assert sk.resonant_membership(sk.height(), (0.5, 0.5), spec) is None
    spec2 = sk.ResonantSpec(q=6, epsilon=0.05, restricted=False)
    hit = sk.resonant_membership(sk.height(), (0.5, 0.5), spec2)
    assert hit is not None and hit.p == (3, 3)


def test_membership_restricted_needs_rational(irrational_cusp):
    with pytest.raises(IrrationalSkeleton):
        sk.resonant_membership(irrational_cusp, (0.3, 0.3),
                               sk.ResonantSpec(q=5, epsilon=0.1, restricted=True))


def test_membership_fast_equals_exhaustive(registered_bodies):
    rng = np.random.default_rng(21)
    for name, f in registered_bodies.items():
        if name == "irrational_cusp":
            continue  # tube translates along irrational lines have no lattice period
        for _ in range(60):
            q = int(rng.integers(1, 65))
            eps = float(rng.uniform(0.05, 0.5)) / q
            x = tuple(rng.random(2))
            kern = _Kernel(f, q, eps)
            vf, pf = kern.minimize(x)
            ve, pe = kern.minimize_exhaustive(x)
            assert (vf < kern.eps_s) == (ve < kern.eps_s), (name, q, eps, x)
            if ve < kern.eps_s:
                assert vf == ve and pf == pe, (name, q, eps, x)


def test_minimum_enumerates_a_window_up_to_q_64(union_jack, monkeypatch):
    # one call per q, through the method that perfbench's trace wraps
    calls = []
    for name in ("minimize", "minimize_exhaustive"):
        def wrapped(self, x, _orig=getattr(_Kernel, name), _name=name):
            calls.append((self.q, _name))
            return _orig(self, x)
        monkeypatch.setattr(_Kernel, name, wrapped)
    for q in (1, 64, 65, 300):
        _Kernel(union_jack, q, 1.0).minimum((0.41, 0.73))
    assert calls == [(1, "minimize_exhaustive"), (64, "minimize_exhaustive"),
                     (65, "minimize"), (300, "minimize")]


def test_nearly_flat_tube_minimizes_without_overflow():
    # the fitted width exponent of a skeleton line of this body is so small
    # that the reach power overflows a float: the reach is then the cap
    f = sk.load_distance_function("min(abs(-2,1),gm(abs(0,-1),abs(3,-1)))")
    x = (0.6369616873214543, 0.2697867137638703)
    kern = _Kernel(f, 1, 0.3435)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value, _ = kern.minimize(x)
        assert value < kern.eps_s
        assert kern.minimize_exhaustive(x) == (0.004136660878998555, (129, 257))


def test_membership_against_dumb_oracle(height, multiplicative):
    # coordinatewise-monotone bodies: the argmin provably sits in the
    # wrapped window, so a plain window scan is a complete oracle
    rng = np.random.default_rng(22)
    for f in (height, multiplicative):
        for _ in range(40):
            q = int(rng.integers(1, 65))
            eps = float(rng.uniform(0.02, 0.4)) / q
            x = tuple(rng.random(2))
            hit = sk.resonant_membership(f, x, sk.ResonantSpec(q=q, epsilon=eps))
            bhit, bval, bp = brute_membership(f, x, q, eps, window=q // 2 + 2)
            assert (hit is not None) == bhit
            if bhit:
                assert hit.value == bval / q
                assert hit.p == bp


def test_membership_restricted_against_dumb_oracle(height):
    rng = np.random.default_rng(23)
    for _ in range(30):
        q = int(rng.integers(2, 40))
        eps = float(rng.uniform(0.1, 0.6)) / q
        x = tuple(rng.random(2))
        spec = sk.ResonantSpec(q=q, epsilon=eps, restricted=True)
        hit = sk.resonant_membership(height, x, spec)
        # dumb oracle with the coprimality filter
        y = q * np.asarray(x)
        w = q // 2 + 2
        span = np.arange(-w, w + 1)
        gx, gy = np.meshgrid(np.round(y[0]) + span, np.round(y[1]) + span,
                             indexing="ij")
        ps = np.column_stack([gx.ravel(), gy.ravel()]).astype(int)
        ok = (np.gcd(np.abs(ps[:, 0]) % q, q) == 1) \
            & (np.gcd(np.abs(ps[:, 1]) % q, q) == 1)
        ps = ps[ok]
        vals = height.eval_xy(y[0] - ps[:, 0], y[1] - ps[:, 1])
        i = int(np.argmin(vals))
        bhit = vals[i] < q * eps
        assert (hit is not None) == bhit
        if bhit:
            assert hit.value == vals[i] / q


_ATOM = (st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any)
         .map(lambda ab: "abs(%d,%d)" % ab))


def _combine(children):
    return st.builds("{}({})".format, st.sampled_from(["gm", "min", "max"]),
                     st.lists(children, min_size=2, max_size=3).map(",".join))


_RATIONAL_BODY = _combine(st.recursive(_ATOM, _combine, max_leaves=3))
_STOCK_BODIES = ["max(abs(1,0),abs(0,1))", "gm(abs(1,0),abs(0,1))",
                 "min(gm(abs(1,0),abs(0,1)),"
                 "gm(abs(invsqrt2,invsqrt2),abs(invsqrt2,-invsqrt2)))",
                 "gm(abs(1,-1),abs(0,1))"]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(body=st.one_of(st.sampled_from(_STOCK_BODIES), _RATIONAL_BODY),
       restricted=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_batch_hits_match_exhaustive_oracle(body, restricted, seed):
    # the batched hit test against the full window enumeration, also beyond
    # the q <= 64 range where resonant_membership runs the enumeration itself
    f = sk.parse_distance_function(body)
    rng = np.random.default_rng([seed, zlib.crc32(body.encode()), restricted])
    q = int(rng.integers(1, 301))
    eps = float(rng.uniform(0.02, 0.5)) / q
    xs = rng.random((3, 2))
    kern = _Kernel(f, q, eps, restricted)
    fast = sk.batch_hits(f, xs, q, eps, restricted)
    slow = [kern.minimize_exhaustive(x)[0] < kern.eps_s for x in xs]
    assert fast.tolist() == slow, (body, restricted, q, eps, xs)


# ---------------------------------------------------------------------------
# Resonant measures
# ---------------------------------------------------------------------------


def test_resonant_measure_disjoint_squares(height):
    # 25 disjoint squares of side 2*eps: |B_5| = 25 * (2*0.02)^2 = 0.04
    spec = sk.ResonantSpec(q=5, epsilon=0.02)
    v, se = sk.resonant_measure(height, spec, samples=40_000, seed=1)
    assert abs(v - 0.04) <= 3 * max(se, 1e-4)


def test_resonant_measure_saturation(height):
    spec = sk.ResonantSpec(q=3, epsilon=1.0)
    v, se = sk.resonant_measure(height, spec, samples=2_000, seed=2)
    assert v == 1.0


def test_resonant_measure_vs_density_scaling(multiplicative):
    # |B_q| =~ D_F(q eps) (same value for q=1 by definition)
    spec = sk.ResonantSpec(q=1, epsilon=0.1)
    v, se = sk.resonant_measure(multiplicative, spec, samples=60_000, seed=3)
    assert abs(v - D_MULT_01) <= 3 * max(se, 1e-4)


def test_resonant_measure_ratio_band(multiplicative):
    # |B_q| / D_F(q psi) stays within a fixed band across q
    psi = lambda q: q ** -1.5
    ratios = []
    for q in (3, 7, 13, 20):
        eps = psi(q)
        v, se = sk.resonant_measure(multiplicative,
                                    sk.ResonantSpec(q=q, epsilon=eps),
                                    samples=30_000, seed=q)
        ratios.append(v / sk.density(multiplicative, q * eps).value)
    assert max(ratios) / min(ratios) < 4.0
    assert all(0.25 < r < 4.0 for r in ratios)


# ---------------------------------------------------------------------------
# Overlaps
# ---------------------------------------------------------------------------


def test_overlap_self_intersection(height):
    spec = sk.ResonantSpec(q=5, epsilon=0.03, restricted=True)
    v1, e1 = sk.resonant_measure(height, spec, samples=30_000, seed=4)
    v2, e2 = sk.overlap_estimate(height, spec, spec, samples=30_000, seed=4)
    assert v1 == v2  # same sample stream, same indicator


def test_overlap_coprime_independence(height):
    # q=5 vs q=7 with eps above the interaction scale 1/(q q'):
    # the measures multiply within 3 sigma
    eps = 0.05
    sa = sk.ResonantSpec(q=5, epsilon=eps, restricted=True)
    sb = sk.ResonantSpec(q=7, epsilon=eps, restricted=True)
    va, ea = sk.resonant_measure(height, sa, samples=40_000, seed=5)
    vb, eb = sk.resonant_measure(height, sb, samples=40_000, seed=6)
    vab, eab = sk.overlap_estimate(height, sa, sb, samples=40_000, seed=7)
    sigma = 3 * (eab + va * eb + vb * ea) + 0.01
    assert abs(vab - va * vb) <= sigma


def test_overlap_mult_quasi_independence_bound(multiplicative):
    psi = lambda q: q ** -1.5
    q1, q2 = 20, 30
    sa = sk.ResonantSpec(q=q1, epsilon=psi(q1), restricted=True)
    sb = sk.ResonantSpec(q=q2, epsilon=psi(q2), restricted=True)
    v, se = sk.overlap_estimate(multiplicative, sa, sb, samples=10_000, seed=8)
    bound = 10 * sk.density(multiplicative, q1 * psi(q1)).value \
        * sk.density(multiplicative, q2 * psi(q2)).value
    assert v <= bound + 3 * se


# ---------------------------------------------------------------------------
# Overlap monotonicity probe
# ---------------------------------------------------------------------------


def _single_line_tube():
    # gm(|x2|, max(|x1|,|x2|)): single horizontal skeleton line, width ~ 1/r
    return GeoMean(Abs(0, 1), Max(Abs(1, 0), Abs(0, 1)))


def test_probe_requires_matching_skeleton(multiplicative):
    f1 = _single_line_tube()
    with pytest.raises(SkeletonMismatch):
        sk.overlap_monotonicity_probe(f1, multiplicative, 0.3, 0.3,
                                      sk.extract_skeleton(f1).lines[0],
                                      [0.0], [0.0], samples=100, seed=0)


def test_probe_monotone_and_peaked():
    f = _single_line_tube()
    line = sk.extract_skeleton(f).lines[0]
    t2s = [0.0, 0.05, 0.1, 0.2, 0.5, 1.5]
    vals, errs = sk.overlap_monotonicity_probe(f, f, 0.3, 0.3, line,
                                               [0.0], t2s,
                                               samples=30_000, seed=11)
    row, err = vals[0], errs[0]
    # maximal at zero shift, non-increasing in |t2|, vanishing beyond the width
    assert row[0] == max(row)
    for a, b, ea, eb in zip(row, row[1:], err, err[1:]):
        assert b <= a + 3 * (ea + eb)
    assert row[-1] == 0.0


def test_probe_monotone_along_line():
    f = _single_line_tube()
    line = [h for h in sk.extract_skeleton(f).lines if h.direction == (1, 0)][0]
    t1s = [0.0, 0.2, 0.5, 0.9]
    vals, errs = sk.overlap_monotonicity_probe(f, f, 0.3, 0.3, line,
                                               t1s, [0.0],
                                               samples=30_000, seed=12)
    col, err = vals[:, 0], errs[:, 0]
    for a, b, ea, eb in zip(col, col[1:], err, err[1:]):
        assert b <= a + 3 * (ea + eb)


def test_width_outside_body_is_zero(multiplicative, union_jack):
    # a line absent from skel(F): the base point sits outside the eps-body
    diag = [h for h in sk.extract_skeleton(union_jack).lines
            if h.direction == (1, 1)][0]
    assert sk.width_profile(multiplicative, diag, 5.0, 0.1) == (0.0, 0.0)


def test_resonant_record_reproducible(height):
    import json
    spec = sk.ResonantSpec(q=5, epsilon=0.02, restricted=True)
    a = sk.resonant_record(height, spec, samples=5000, seed=13)
    b = sk.resonant_record(height, spec, samples=5000, seed=13)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = sk.overlap_record(height, spec, spec, samples=5000, seed=13)
    assert c["value"] == a["value"]


def test_resonant_ratio_band_wide_q(multiplicative):
    # |B_q| / D_F(q psi(q)) remains in a fixed band across q up to 200
    psi = lambda q: q ** -1.5
    ratios = []
    for q in (2, 5, 11, 23, 47, 97, 150, 200):
        eps = psi(q)
        v, se = sk.resonant_measure(multiplicative,
                                    sk.ResonantSpec(q=q, epsilon=eps),
                                    samples=20_000, seed=100 + q)
        ratios.append(v / sk.density(multiplicative, q * eps).value)
    assert all(0.25 < r < 4.0 for r in ratios)


def test_import_leaves_scipy_unloaded(tmp_path, cli_env):
    # scipy is slow to import; only the bounded-body radial quadrature needs it
    code = ("import sys, starkit; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=cli_env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_quadrature_budget_exhaustion(multiplicative):
    from starkit.errors import NonConvergent
    from starkit.measure import _periodized_quadrature
    with pytest.raises(NonConvergent):
        _periodized_quadrature(multiplicative, 0.1, budget=3)
