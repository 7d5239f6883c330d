import math
from fractions import Fraction

import numpy as np
import pytest

import starkit as sk
from starkit.errors import DegenerateExpr, FitFailure, IrrationalSkeleton
from starkit.exact import Quad
from starkit.starbody import (Abs, GeoMean, LinearForm, LineGeometry, Max, Min,
                              Scale, body_geometry, is_axis_monotone)
from starkit.measure import _arc_steps

# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_evaluate_height(height):
    assert height.evaluate((0.3, -0.7)) == 0.7


def test_evaluate_multiplicative(multiplicative):
    assert multiplicative.evaluate((0.2, 0.3)) == pytest.approx(
        math.sqrt(0.06), abs=1e-14)


def test_evaluate_union_jack_diagonal(union_jack):
    # the diagonal lies in the skeleton
    assert union_jack.evaluate((1.0, 1.0)) == 0.0


def test_zero_form_rejected():
    with pytest.raises(DegenerateExpr):
        LinearForm(0, 0)
    with pytest.raises(DegenerateExpr):
        Abs(0, 0)


def test_combinators_need_children():
    with pytest.raises(ValueError):
        Min()


def test_scale_requires_positive_factor():
    with pytest.raises(ValueError):
        Scale(0, Abs(1, 0))


def test_rejects_nonfinite_points(height):
    with pytest.raises(ValueError):
        height.evaluate((float("nan"), 0.0))
    with pytest.raises(ValueError):
        height.evaluate((float("inf"), 1.0))


# ---------------------------------------------------------------------------
# Homogeneity / symmetry / star property
# ---------------------------------------------------------------------------


def _random_expr(rng, depth=0):
    kind = rng.integers(0, 5 if depth < 3 else 1)
    if kind == 0:
        a, b = rng.normal(size=2)
        if abs(a) + abs(b) < 1e-3:
            a = 1.0
        return Abs(Fraction(a).limit_denominator(100),
                   Fraction(b).limit_denominator(100))
    n = int(rng.integers(1, 4))
    children = [_random_expr(rng, depth + 1) for _ in range(n)]
    if kind == 1:
        return Min(*children)
    if kind == 2:
        return Max(*children)
    if kind == 3:
        return GeoMean(*children)
    return Scale(Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 5))),
                 children[0])


def test_homogeneity_random_expressions():
    rng = np.random.default_rng(0)
    for _ in range(25):
        f = _random_expr(rng)
        x = rng.normal(size=(400, 2))
        t = rng.uniform(0, 100, size=400)
        lhs = f.eval_xy(t * x[:, 0], t * x[:, 1])
        rhs = t * f.eval_xy(x[:, 0], x[:, 1])
        assert np.all(np.abs(lhs - rhs) <= 1e-10 * (1.0 + rhs))


def test_symmetry_is_exact(registered_bodies):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1000, 2))
    for f in registered_bodies.values():
        a = f.eval_xy(x[:, 0], x[:, 1])
        b = f.eval_xy(-x[:, 0], -x[:, 1])
        assert np.array_equal(a, b)


def test_star_body_rays(registered_bodies):
    # along each ray {t : F(t u) < 1} must be an interval [0, t0)
    rng = np.random.default_rng(2)
    ts = np.linspace(0.0, 50.0, 1001)
    for f in registered_bodies.values():
        for _ in range(50):
            theta = rng.uniform(0, 2 * math.pi)
            u = np.array([math.cos(theta), math.sin(theta)])
            inside = f.eval_xy(ts * u[0], ts * u[1]) < 1.0
            flips = np.count_nonzero(inside[:-1] != inside[1:])
            assert flips <= 1


# ---------------------------------------------------------------------------
# Skeleton
# ---------------------------------------------------------------------------


def test_skeleton_height_empty(height):
    assert sk.extract_skeleton(height).lines == ()


def test_skeleton_multiplicative(multiplicative):
    rep = sk.extract_skeleton(multiplicative)
    dirs = {h.direction for h in rep.lines}
    assert dirs == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert all(h.rational for h in rep.lines)


def test_skeleton_irrational_cusp(irrational_cusp):
    rep = sk.extract_skeleton(irrational_cusp)
    irr = [h for h in rep.lines if not h.rational]
    vert = [h for h in rep.lines if h.rational]
    assert len(irr) == 2 and len(vert) == 2
    assert irr[0].slope_value == pytest.approx(math.sqrt(2), abs=1e-15)
    assert {v.direction for v in vert} == {(0, 1), (0, -1)}


def test_skeleton_exact_rationality_of_decimal_coefficients():
    # a decimal coefficient is an exact rational: the slope is rational
    f = GeoMean(Abs(Fraction(-14142, 10000), 1), Abs(1, 0))
    rep = sk.extract_skeleton(f)
    assert all(h.rational for h in rep.lines)


def test_skeleton_same_surd_ratio_rational():
    # coefficients sqrt2 and sqrt2 give slope -1: rational
    f = Abs(Quad.sqrt(2), Quad.sqrt(2))
    rep = sk.extract_skeleton(f)
    assert all(h.rational for h in rep.lines)
    assert {h.direction for h in rep.lines} == {(1, -1), (-1, 1)}


def test_skeleton_max_intersects():
    f = Max(Abs(1, 0), Abs(0, 1))  # zero sets intersect only at the origin
    assert sk.extract_skeleton(f).lines == ()
    g = Max(Abs(2, 0), Abs(1, 0))  # same line twice
    assert len(sk.extract_skeleton(g).lines) == 2


def test_skeleton_soundness_and_completeness(registered_bodies):
    # soundness: F vanishes along every reported half-line;
    # completeness: a dense angular scan finds no extra zero directions
    thetas = np.linspace(0, 2 * math.pi, 100_000, endpoint=False)
    for f in registered_bodies.values():
        rep = sk.extract_skeleton(f)
        ts = np.linspace(0.1, 50, 100)
        for h in rep.lines:
            d = np.asarray(h.direction, dtype=float)
            scale = math.hypot(d[0], d[1])
            vals = f.eval_xy(ts * d[0], ts * d[1])
            assert np.all(vals <= 1e-10 * ts * scale)
        vals = f.eval_xy(np.cos(thetas), np.sin(thetas))
        dips = thetas[vals < 1e-6]
        for theta in dips:
            angs = [math.atan2(*reversed(h.unit_direction())) % (2 * math.pi)
                    for h in rep.lines]
            assert any(abs((theta - a + math.pi) % (2 * math.pi) - math.pi)
                       < 1e-3 for a in angs)


# ---------------------------------------------------------------------------
# Widths and significance
# ---------------------------------------------------------------------------


def _grid_scan_width(f, line, r, eps, resolution=1e-6, t_max=1.0):
    """Independent oracle: first sign change of F - eps on a fine normal grid."""
    u = line.unit_direction()
    n = line.normal()
    base = r * u
    ts = np.arange(0.0, t_max, resolution)
    out = []
    for sgn in (1.0, -1.0):
        vals = f.eval_xy(base[0] + sgn * ts * n[0], base[1] + sgn * ts * n[1])
        above = np.flatnonzero(vals >= eps)
        out.append(ts[above[0]] if above.size else math.inf)
    return tuple(out)


def test_width_multiplicative_analytic(multiplicative):
    line = [h for h in sk.extract_skeleton(multiplicative).lines
            if h.direction == (1, 0)][0]
    wp, wm = sk.width_profile(multiplicative, line, 10.0, 0.1)
    # solve 10*w = eps^2
    assert wp == pytest.approx(0.001, abs=1e-9)
    assert wm == pytest.approx(0.001, abs=1e-9)


def test_width_zero_epsilon(multiplicative):
    line = sk.extract_skeleton(multiplicative).lines[0]
    assert sk.width_profile(multiplicative, line, 5.0, 0.0) == (0.0, 0.0)


def test_width_union_jack_diagonal_vs_gridscan(union_jack):
    line = [h for h in sk.extract_skeleton(union_jack).lines
            if h.direction == (1, 1)][0]
    wp, wm = sk.width_profile(union_jack, line, math.sqrt(2), 0.1)
    gp, gm_ = _grid_scan_width(union_jack, line, math.sqrt(2), 0.1, 1e-6)
    assert abs(wp - gp) <= 2e-6 and abs(wm - gm_) <= 2e-6
    # analytic: F^2 = sqrt(2) t near the diagonal at (1, 1)
    assert wp == pytest.approx(0.01 / math.sqrt(2), rel=1e-4)


def test_width_gridscan_agreement(registered_bodies):
    for name, f in registered_bodies.items():
        for line in sk.extract_skeleton(f).lines[:2]:
            wp, wm = sk.width_profile(f, line, 3.7, 0.15)
            gp, gm_ = _grid_scan_width(f, line, 3.7, 0.15, 1e-5)
            assert abs(wp - gp) <= 2e-5, name
            assert abs(wm - gm_) <= 2e-5, name


def test_significance_multiplicative_axis(multiplicative):
    line = [h for h in sk.extract_skeleton(multiplicative).lines
            if h.direction == (1, 0)][0]
    res = sk.classify_significance(multiplicative, line)
    assert res.significant and res.monotone
    assert res.width_exponent == pytest.approx(1.0, abs=0.01)


def test_significance_steep_cusp_not_significant():
    # gm(|x2|, |x1|, |x1|): on the horizontal line F^3 = t * r^2,
    # so the width decays like r^(-2)
    f = GeoMean(Abs(0, 1), Abs(1, 0), Abs(1, 0))
    line = [h for h in sk.extract_skeleton(f).lines if h.direction == (1, 0)][0]
    res = sk.classify_significance(f, line)
    assert not res.significant
    assert res.width_exponent == pytest.approx(2.0, abs=0.05)


def test_significance_requires_line_in_skeleton(height, multiplicative):
    line = sk.extract_skeleton(multiplicative).lines[0]
    with pytest.raises(FitFailure):
        sk.classify_significance(height, line)


def test_classify_skeleton_fills_fields(irrational_cusp):
    rep = sk.classify_skeleton(irrational_cusp, sk.extract_skeleton(irrational_cusp))
    assert all(h.significant is not None for h in rep.lines)


# ---------------------------------------------------------------------------
# Fundamental rectangle
# ---------------------------------------------------------------------------


def test_rectangle_multiplicative(multiplicative):
    rect = sk.fundamental_rectangle(sk.extract_skeleton(multiplicative))
    assert (rect.s_hat, rect.r_hat) == (1, 1)


def test_rectangle_slope_two_thirds():
    f = Abs(2, -3)  # 2x - 3y = 0: slope 2/3
    rect = sk.fundamental_rectangle(sk.extract_skeleton(f))
    assert (rect.s_hat, rect.r_hat) == (2, 3)


def test_rectangle_empty_skeleton(height):
    rect = sk.fundamental_rectangle(sk.extract_skeleton(height))
    assert (rect.s_hat, rect.r_hat) == (1, 1)


def test_rectangle_irrational_raises(irrational_cusp):
    with pytest.raises(IrrationalSkeleton):
        sk.fundamental_rectangle(sk.extract_skeleton(irrational_cusp))


def test_rectangle_mixed_lines():
    f = Min(Abs(2, -3), Abs(1, 0), Abs(0, 1))  # slopes 2/3, vertical, 0
    rect = sk.fundamental_rectangle(sk.extract_skeleton(f))
    assert (rect.s_hat, rect.r_hat) == (2, 3)


def test_axis_monotone_detection(registered_bodies):
    assert is_axis_monotone(registered_bodies["height"])
    assert is_axis_monotone(registered_bodies["multiplicative"])
    assert not is_axis_monotone(registered_bodies["union_jack"])
    assert not is_axis_monotone(registered_bodies["irrational_cusp"])


def test_reach_of_a_nearly_flat_tube_is_the_cap(multiplicative):
    # 1/width_exp ~ 667: the power overflows a float, the tube never narrows
    half = sk.extract_skeleton(multiplicative).lines[0]
    lg = LineGeometry(half, width_coef=1.0, width_exp=0.0015)
    assert _arc_steps(lg, 0.3, 1e-6, 1.0, 600) == 600.0


def test_body_geometry_is_shared_and_the_cache_bounded(union_jack):
    assert body_geometry(union_jack) is body_geometry(union_jack)
    maxsize = body_geometry.cache_info().maxsize
    assert maxsize is not None and maxsize > 0
