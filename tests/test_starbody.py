import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import starkit as sk
from starkit.errors import DegenerateExpr, FitFailure, IrrationalSkeleton
from starkit.exact import Quad
from starkit.starbody import (_SLICE_POINTS, _WIDTH_CAP, Abs, GeoMean,
                              LinearForm, LineGeometry, Max, Min, Scale,
                              _bisect, _bisect_crossing, _sqrt_threshold,
                              body_geometry, is_axis_monotone)
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


_COEFS = [0, 1, -1, 2, -2, Fraction(1, 3), Quad.sqrt(2), -Quad.sqrt(3),
          1 / Quad.sqrt(2)]
_FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310,
                     1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(a=st.sampled_from(_COEFS), b=st.sampled_from(_COEFS),
       pts=st.lists(st.tuples(_FINITE, _FINITE), min_size=1, max_size=30))
def test_lean_atom_is_the_full_form_bit_for_bit(a, b, pts):
    # Abs._eval drops zero terms and unit multiplies and fixes the form's
    # sign; on finite points, signed zeros, subnormals and overflow to inf
    # included, its values are those of |fa*x1 + fb*x2|, byte for byte
    assume(a != 0 or b != 0)
    atom = Abs(a, b)
    fa, fb = atom.form.floats()
    x1, x2 = np.array(pts).T
    with np.errstate(over="ignore", invalid="ignore"):
        got = atom._eval(x1, x2)
        want = np.abs(fa * x1 + fb * x2)
    assert got.tobytes() == want.tobytes(), (a, b, pts)


def test_every_registered_body_is_nan_where_a_coordinate_is(
        registered_bodies):
    # an atom that drops a zero coefficient's term does not read that
    # coordinate, but each body reads both through some atom
    bodies = dict(registered_bodies,
                  sheared=sk.parse_distance_function("gm(abs(1,-1),abs(0,1))"))
    x1 = np.array([math.nan, 0.3, math.nan])
    x2 = np.array([0.3, math.nan, math.nan])
    for name, f in bodies.items():
        assert np.isnan(f.eval_xy(x1, x2)).all(), name


def test_zero_form_rejected():
    with pytest.raises(DegenerateExpr):
        LinearForm(0, 0)
    with pytest.raises(DegenerateExpr):
        Abs(0, 0)


def test_combinators_need_children():
    for cls in (Min, Max, GeoMean):
        with pytest.raises(ValueError):
            cls()
        with pytest.raises(TypeError):
            cls(Abs(1, 0), 0.5)


def test_combinators_over_the_same_children_stay_apart():
    a, b = Abs(1, 0), Abs(0, 1)
    assert Min(a, b) == Min(Abs(1, 0), Abs(0, 1))
    assert Min(a, b) != Max(a, b)
    assert Max(a, b) != GeoMean(a, b)
    assert GeoMean(a, b) != Min(a, b)
    # body_geometry caches by the expression: Min and Max keep their own
    assert body_geometry(Min(a, b)) is not body_geometry(Max(a, b))
    assert len(body_geometry(Min(a, b)).skeleton.lines) == 4
    assert body_geometry(Max(a, b)).skeleton.lines == ()


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


def _where_loop_crossing(f, base, step, eps, iters=80, mixed=None):
    """Reference: a plain np.where bracket-and-halve loop on F(base +
    t*step) < eps, every coordinate and F in full.  _bisect_crossing grows
    in place, stops at the fixed point, moves rays by a per-coordinate plan,
    compares a squared threshold at a two-child GeoMean root, and computes
    the last halvings' end from the ray's rounding staircase; the two must
    agree bit for bit.  With a dict `mixed`, counts under True and False
    the tests at midpoints whose ray point takes one coordinate from lo's
    and the other from hi's, where both coordinates differ."""
    x0, y0 = base[..., 0], base[..., 1]
    inside0 = f.eval_xy(x0, y0) < eps
    t_lo = np.zeros(np.shape(x0))
    t_hi = np.full(np.shape(x0), eps if eps > 0 else 1.0)
    out = np.full(np.shape(x0), np.inf)
    active = inside0.copy()
    for _ in range(90):
        if not np.any(active):
            break
        v = f.eval_xy(x0 + t_hi * step[0], y0 + t_hi * step[1])
        crossed = active & (v >= eps)
        t_lo = np.where(active & ~crossed, t_hi, t_lo)
        t_hi = np.where(active & ~crossed, t_hi * 2.0, t_hi)
        active = active & ~crossed & (t_hi < _WIDTH_CAP)
    bracketed = inside0 & (t_hi < _WIDTH_CAP)
    lo = np.where(bracketed, t_lo, 0.0)
    hi = np.where(bracketed, t_hi, 1.0)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        x, y = x0 + mid * step[0], y0 + mid * step[1]
        below = f.eval_xy(x, y) < eps
        if mixed is not None:
            (xl, yl), (xh, yh) = ((x0 + t * step[0], y0 + t * step[1])
                                  for t in (lo, hi))
            cross = ((x == xl) & (y == yh)) | ((x == xh) & (y == yl))
            cross &= bracketed & (xl != xh) & (yl != yh)
            for side in (True, False):
                mixed[side] = mixed.get(side, 0) + int(
                    (cross & (below == side)).sum())
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = np.where(bracketed, 0.5 * (lo + hi), out)
    return np.where(inside0, out, 0.0)


@pytest.mark.parametrize("eps", [0.3, 0.02, 0.0, -0.5])
def test_bisect_crossing_matches_the_where_loop(registered_bodies, eps):
    rng = np.random.default_rng(8)
    scale = 10.0 ** rng.uniform(-3, 1, (399, 1))
    pts = rng.uniform(-1, 1, (399, 2)) * scale
    # on an axis and on the sqrt2 line (unbracketed along them), NaN, and
    # -0.0 coordinates, which a zero step coordinate passes on as they are
    special = [[0.3, 0.0], [0.0, 0.7], [0.5, 0.5 * math.sqrt(2)],
               [math.nan, 0.1], [-2.0, 0.0], [0.0, -1e-3],
               [-0.0, 0.4], [0.25, -0.0], [-0.0, -0.0]]
    base = np.vstack([pts, special]).reshape(-1, 3, 2)
    # more than two slices of _SLICE_POINTS, as a 3-D base, with NaN rows
    # on both sides of each slice edge
    m = 2 * _SLICE_POINTS + 17
    big = rng.uniform(-1, 1, (m, 2)) * 10.0 ** rng.uniform(-3, 1, (m, 1))
    for i in (0, 5, _SLICE_POINTS - 1, _SLICE_POINTS, 2 * _SLICE_POINTS - 1,
              2 * _SLICE_POINTS, m - 1):
        big[i, i % 2] = math.nan
    steps = [np.array([1.0, 0.0]), np.array([-1.0, 0.0]),
             np.array([0.0, 1.0]), np.array([0.0, -1.0]),
             np.array([-0.6, 0.8])]
    kinds = set()
    for name, f in registered_bodies.items():
        for step in steps:
            for b in (base, big.reshape(213, 77, 2)):
                got = _bisect_crossing(f, b, step, eps)
                want = _where_loop_crossing(f, b, step, eps)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (name, step, eps,
                                                         b.shape)
                kinds |= {("outside" if t == 0 else "unbracketed"
                           if t == math.inf else "crossed") for t in got.flat}
            # one base point, as width_profile passes a scalar radius
            one = _bisect_crossing(f, base[0, 0], step, eps)
            assert np.ndim(one) == 0
            assert one.tobytes() == _where_loop_crossing(
                f, base[0, 0], step, eps).tobytes()
    if eps > 0:
        assert kinds == {"outside", "unbracketed", "crossed"}
    else:   # no point lies inside a body with eps <= 0
        assert kinds == {"outside"}


def test_bisect_crossing_at_an_infinite_eps_matches_the_where_loop(
        registered_bodies):
    # the growth then evaluates t = inf, where the ray plan reads a base
    # coordinate and the full arithmetic inf*0 = NaN; every point inside
    # ends unbracketed either way
    base = np.array([[0.3, 0.0], [-0.0, 0.7], [2.0, -1.0], [math.nan, 0.1]])
    for name, f in registered_bodies.items():
        for step in (np.array([1.0, 0.0]), np.array([0.0, -1.0]),
                     np.array([-0.6, 0.8])):
            with np.errstate(invalid="ignore"):
                got = _bisect_crossing(f, base, step, math.inf)
                want = _where_loop_crossing(f, base, step, math.inf)
            assert got.tobytes() == want.tobytes(), (name, step)
            assert got[:3].tolist() == [math.inf] * 3


def _far_bases(line, n):
    """Bases on `line` at the arcs interval_system gives the crossings n
    at y0 = 0.5: far out, where the ray coordinates round at their own
    scale and the halvings end on the staircase."""
    r_n = (0.5 + np.asarray(n, dtype=float)) / math.sin(
        math.atan(line.slope_value))
    u = line.unit_direction()
    return np.stack([r_n * u[0], r_n * u[1]], axis=-1)


@pytest.fixture(scope="module")
def sqrt2_line(irrational_cusp):
    return [h for h in sk.extract_skeleton(irrational_cusp).lines
            if not h.rational and h.slope_value > 0][0]


@pytest.mark.parametrize("eps", [0.2, 0.05])
def test_bisect_crossing_far_out_matches_the_where_loop(irrational_cusp,
                                                        sqrt2_line, eps):
    # the sqrt2 line at arcs 1e3 to 1e6, as interval_system builds them,
    # along its horizontal steps (one moving coordinate) and its normals
    # (two); the finish must give every crossing the where loop's bits
    f, n = irrational_cusp, np.unique(np.geomspace(700, 7e5, 3000).round())
    base = _far_bases(sqrt2_line, n)
    normal = sqrt2_line.normal()
    evals = []

    class Counted:
        def eval_xy(self, x1, x2):
            evals.append(1)
            return f.eval_xy(x1, x2)
    for step in (np.array([1.0, 0.0]), np.array([-1.0, 0.0]), normal,
                 -normal):
        got = _bisect_crossing(f, base, step, eps)
        want = _where_loop_crossing(f, base, step, eps)
        assert np.isfinite(want).all() and (want > 0).all()
        assert got.tobytes() == want.tobytes(), step
        evals.clear()
        assert _bisect_crossing(Counted(), base, step, eps).tobytes() == (
            want.tobytes())
        # inside0, one growth, the halvings to the staircase and the
        # finish's two or three tests, against 80 halvings in full
        assert len(evals) < 60, (step, len(evals))


def test_bisect_crossing_keeps_the_cap_just_inside_the_boundary(
        irrational_cusp, sqrt2_line):
    # bases one double from the crossing: the halvings from [0, eps] then
    # need about 52 more after lo first moves, and the cap of 80 stops
    # them first; those points must keep halving, not be finished
    f, eps = irrational_cusp, 0.2
    base = _far_bases(sqrt2_line, np.geomspace(700, 7e4, 40).round())
    for step in (np.array([1.0, 0.0]), sqrt2_line.normal()):
        t = _where_loop_crossing(f, base, step, eps)
        edge = base + t[:, None] * step
        near = np.concatenate([np.nextafter(edge, edge + k * step)
                               for k in (-1.0, 0.0, 1.0)])
        near = np.concatenate([near, np.nextafter(near, -near)])
        got = _bisect_crossing(f, near, step, eps)
        want = _where_loop_crossing(f, near, step, eps)
        assert got.tobytes() == want.tobytes(), step
        capped = want != _where_loop_crossing(f, near, step, eps, iters=200)
        assert (capped & (want > eps * 2.0 ** -60)).sum() >= 10, step
    # close to the origin on a steep body, lo stays 0 through all 80
    # halvings: the crossing is below eps * 2^-80, so t = eps * 2^-81
    steep, step = Scale(2 ** 60, f), np.array([1.0, 0.0])
    tiny = sqrt2_line.arc_point(np.linspace(1e-10, 2e-10, 50))
    got = _bisect_crossing(steep, tiny, step, eps)
    want = _where_loop_crossing(steep, tiny, step, eps)
    assert got.tobytes() == want.tobytes()
    assert (want == eps * 2.0 ** -81).sum() >= 10


@pytest.mark.parametrize("eps", [0.2, math.nextafter(0.2, 1.0)])
def test_bisect_crossing_with_a_nan_growth_end_matches_the_where_loop(eps):
    # F = |x - y| reads NaN from 0.3 to 0.5.  From 0.15 to 0.2 the growth
    # along (1, 0) passes over t = eps and brackets [eps, 2 eps] with a lo
    # that tests False, and every midpoint tests False too.  The finish
    # must test lo itself and leave these points halving, as the where
    # loop does; from 0.01 to 0.05 the points cross before the NaN.  The
    # two eps give lo an even and an odd last bit, where a finish that
    # took lo's test as True would end below lo
    class NanBand:
        def eval_xy(self, x1, x2):
            v = np.abs(x1 - x2)
            return np.where((v > 0.3) & (v <= 0.5), np.nan, v)
    x = np.geomspace(300.0, 3e5, 64)
    d = np.concatenate([np.linspace(0.15, 0.2, 64, endpoint=False),
                        np.linspace(0.01, 0.05, 64, endpoint=False)])
    base = np.stack([np.tile(x, 2), np.tile(x, 2) - d], axis=-1)
    step = np.array([1.0, 0.0])
    got = _bisect_crossing(NanBand(), base, step, eps)
    want = _where_loop_crossing(NanBand(), base, step, eps)
    assert got.tobytes() == want.tobytes()
    assert (np.abs(want[:64] - eps) < 1e-10).all()
    assert ((want[64:] > 0.14) & (want[64:] <= eps)).all()


def test_bisect_crossing_mixed_points_test_each_way(irrational_cusp,
                                                    sqrt2_line):
    # along a normal both ray coordinates move, so a midpoint can take x
    # from one end and y from the other; over these bases such points
    # test True and False, and the finish must decide them by F
    f = irrational_cusp
    base = _far_bases(sqrt2_line, np.unique(np.geomspace(1e3, 1e6, 2000)
                                            .round()))
    for step in (sqrt2_line.normal(), -sqrt2_line.normal()):
        mixed = {}
        want = _where_loop_crossing(f, base, step, 0.2, mixed=mixed)
        assert mixed[True] > 0 and mixed[False] > 0, mixed
        got = _bisect_crossing(f, base, step, 0.2)
        assert got.tobytes() == want.tobytes()


_SQUARES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072009e-308, 1e300,
                     math.inf, math.nan]),
    st.floats(min_value=0.0))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(ps=st.lists(_SQUARES, min_size=1, max_size=20),
       eps=st.one_of(st.sampled_from([5e-324, 1e-310, 1e-160, 0.2, 1.0,
                                      1.3407807929942596e154, 1e300,
                                      math.inf]),
                     st.floats(min_value=5e-324, max_value=1e300)))
def test_squared_threshold_is_the_root_comparison(ps, eps):
    # P < T(eps) holds exactly where np.sqrt(P) < eps, at T itself and the
    # doubles beside it too, so a two-child GeoMean root may skip its sqrt
    t = _sqrt_threshold(eps)
    p = np.array(ps + [t, math.nextafter(t, 0.0), math.nextafter(t, math.inf)])
    assert ((p < t) == (np.sqrt(p) < eps)).all(), (eps, t)


def test_array_half_power_is_sqrt(multiplicative, irrational_cusp):
    # the premise of the squared threshold: on arrays, GeoMean's ** 0.5 is
    # np.sqrt of the children's product, byte for byte
    rng = np.random.default_rng(25)
    x = np.concatenate([[0.0, 5e-324, 1e-310, math.inf, math.nan],
                        np.abs(rng.standard_normal(4000))
                        * 10.0 ** rng.uniform(-300, 300, 4000)])
    for v in (x, x[:1]):
        assert (v ** 0.5).tobytes() == np.sqrt(v).tobytes()
    x1, x2 = rng.uniform(-1, 1, (2, 4000)) * 10.0 ** rng.uniform(-3, 3, 4000)
    for f in (multiplicative, irrational_cusp):
        a, b = f.children
        want = np.sqrt(a.eval_xy(x1, x2) * b.eval_xy(x1, x2))
        assert f.eval_xy(x1, x2).tobytes() == want.tobytes()


def _halvings(left, lo, hi, steps):
    """Reference: `steps` halvings of every bracket, none skipped."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        below = left(mid)
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def test_bisect_stops_at_its_fixed_point(multiplicative):
    # brackets of [0, 1] about edges in [1/4, 1) shrink to two adjacent
    # floats within 55 halvings; from there each halving repeats the last,
    # and _bisect stops calling left with the bits of all 80
    edge = np.array([0.3, 1 / 3, 0.7, 0.5, 0.25 + 2.0 ** -40, 0.9])
    calls = []

    def left(mid):
        calls.append(mid.copy())
        return mid < edge
    want = _halvings(left, np.zeros(6), np.ones(6), 80)
    calls.clear()
    got = _bisect(left, np.zeros(6), np.ones(6), 80)
    assert got.tobytes() == want.tobytes()
    assert 50 < len(calls) < 80
    assert not np.array_equal(calls[-1], calls[-2])
    # a NaN bracket never settles, so every halving runs
    calls.clear()
    _bisect(left, np.where(edge == 0.5, np.nan, 0.0), np.ones(6), 80)
    assert len(calls) == 80
    # points outside the body get the bracket [0, 0], fixed at once: one
    # evaluation decides them, one halving of their slice follows
    evals = []
    eval_xy = multiplicative.eval_xy

    class Counted:
        def eval_xy(self, x1, x2):
            evals.append(np.size(x1))
            return eval_xy(x1, x2)
    out = _bisect_crossing(Counted(), np.full((40, 2), 0.5),
                           np.array([1.0, 0.0]), 0.1)
    assert not out.any() and len(evals) == 2


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
    assert all(h.significance is not None for h in rep.lines)


_S2 = Quad.sqrt(2)
_M2 = float(_S2)


@pytest.mark.parametrize("f,halves,rect", [
    # (repr of direction, slope, rational, slope_value) per half-line, and
    # the fundamental rectangle (None: irrational skeleton)
    (Abs(1, 0), [("(0, 1)", None, True, math.inf),
                 ("(0, -1)", None, True, math.inf)], (1, 1)),
    (Abs(2, 3), [("(3, -2)", Quad(Fraction(-2, 3)), True, -2 / 3),
                 ("(-3, 2)", Quad(Fraction(-2, 3)), True, -2 / 3)], (2, 3)),
    (sk.union_jack(), [("(0, 1)", None, True, math.inf),
                       ("(0, -1)", None, True, math.inf),
                       ("(1, -1)", Quad(-1), True, -1.0),
                       ("(-1, 1)", Quad(-1), True, -1.0),
                       ("(1, 0)", Quad(0), True, 0.0),
                       ("(-1, 0)", Quad(0), True, 0.0),
                       ("(1, 1)", Quad(1), True, 1.0),
                       ("(-1, -1)", Quad(1), True, 1.0)], (1, 1)),
    (sk.irrational_cusp(), [("(0, 1)", None, True, math.inf),
                            ("(0, -1)", None, True, math.inf),
                            (repr((1.0, _M2)), _S2, False, _M2),
                            (repr((-1.0, -_M2)), _S2, False, _M2)], None)],
    ids=["vertical", "negative_rational", "union_jack", "cusp"])
def test_skeleton_lines_are_read_from_the_exact_slope(f, halves, rect):
    rep = sk.extract_skeleton(f)
    got = [(repr(h.direction), h.slope, h.rational, h.slope_value)
           for h in rep.lines]
    assert got == halves
    assert all(h.slope is None or isinstance(h.slope, Quad)
               for h in rep.lines)
    if rect is None:
        with pytest.raises(IrrationalSkeleton):
            sk.fundamental_rectangle(rep)
    else:
        r = sk.fundamental_rectangle(rep)
        assert (r.s_hat, r.r_hat) == rect


def test_classify_skeleton_fits_each_line_once(union_jack, monkeypatch):
    calls = []
    fit = sk.starbody.classify_significance

    def counted(f, line, **kw):
        calls.append(line.direction)
        return fit(f, line, **kw)

    monkeypatch.setattr(sk.starbody, "classify_significance", counted)
    rep = sk.classify_skeleton(union_jack, sk.extract_skeleton(union_jack))
    full = [h.direction for h in rep.full_lines()]
    assert calls == full and len(full) == 4
    for h, opposite in zip(rep.lines[::2], rep.lines[1::2]):
        assert h.significance is not None
        assert h.significance == opposite.significance
        # the opposite half-line measures the same widths bit for bit
        assert sk.classify_significance(union_jack, opposite) == h.significance


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
