import math
import random
import subprocess
import sys
import warnings
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import starkit as sk
from starkit import measure, sampling
from starkit.errors import IrrationalSkeleton, SkeletonMismatch
from starkit.measure import _Kernel, analytic_density_info
from starkit.starbody import Abs, GeoMean, Max, Scale, _bisect, body_geometry

from conftest import brute_membership, random_dsl

# gm(|x1 - x2|, |x2|): the multiplicative body under a unimodular shear
SHEARED = "gm(abs(1,-1),abs(0,1))"


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
    kern = _Kernel(multiplicative)
    fast = kern.minimize((0.3701, 0.5), 10, 0.01)
    ex = kern.minimize_exhaustive((0.3701, 0.5), 10, 0.01)
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
    # q runs past _EXHAUSTIVE_Q, where resonant_membership takes the fast
    # path, restricted or not
    rng = np.random.default_rng(21)
    for name, f in registered_bodies.items():
        if name == "irrational_cusp":
            continue  # tube translates along irrational lines have no lattice period
        for restricted in (False, True):
            for _ in range(60):
                q = int(rng.integers(1, 301))
                eps = float(rng.uniform(0.05, 0.5)) / q
                x = tuple(rng.random(2))
                kern = _Kernel(f, restricted)
                vf, pf = kern.minimize(x, q, eps)
                ve, pe = kern.minimize_exhaustive(x, q, eps)
                case = (name, restricted, q, eps, x)
                assert (vf < q * eps) == (ve < q * eps), case
                if ve < q * eps:
                    assert vf == ve and pf == pe, case


@pytest.mark.parametrize("q,eps,x,want", [
    (225, 0.001068746768269329, (0.04370094297778038, 0.23178098788932566),
     (0.22875898153073013, (13, 49))),
    (192, 0.00252194582874272, (0.7609004959251774, 0.38515085757742007),
     (0.35009592970078635, (149, 71)))], ids=["q225", "q192"])
def test_restricted_minimize_skips_a_forbidden_wrap(union_jack, q, eps, x,
                                                    want):
    # round(q*x) is not coprime-admissible here, so its small value must not
    # size the search; want is the least admissible value (and its p) over
    # a window of half-width q/2 + 1500 around round(q*x)
    kern = _Kernel(union_jack, restricted=True)
    assert kern.minimize(x, q, eps) == want
    assert kern.minimize_exhaustive(x, q, eps) == want
    hit = sk.resonant_membership(union_jack, x, sk.ResonantSpec(
        q=q, epsilon=eps, restricted=True))
    assert hit is not None and hit.p == want[1]


def test_minimum_enumerates_a_window_up_to_q_64(union_jack, monkeypatch):
    # one call per q, through the method that perfbench's trace wraps
    calls = []
    for name in ("minimize", "minimize_exhaustive"):
        def wrapped(self, x, q, eps, _orig=getattr(_Kernel, name),
                    _name=name):
            calls.append((q, _name))
            return _orig(self, x, q, eps)
        monkeypatch.setattr(_Kernel, name, wrapped)
    kern = _Kernel(union_jack)
    for q in (1, 64, 65, 300):
        kern.minimum((0.41, 0.73), q, 1.0)
    assert calls == [(1, "minimize_exhaustive"), (64, "minimize_exhaustive"),
                     (65, "minimize"), (300, "minimize")]


@pytest.mark.parametrize("restricted", [False, True])
def test_minimum_of_a_q_array_is_its_scalar_calls(union_jack, monkeypatch,
                                                  restricted):
    # across q = 64/65: the window per q, in order, then one batched
    # minimize, and every row is its scalar call, value and p, bit for bit
    kern = _Kernel(union_jack, restricted)
    qs = np.arange(58, 72)
    xs = [(0.41, 0.73), (0.1234, 0.8712), (2 / 3, 0.25)]
    want = [[kern.minimum(x, q, 0.5) for q in qs.tolist()] for x in xs]
    calls = []
    for name in ("minimize", "minimize_exhaustive"):
        def wrapped(self, x, q, eps, _orig=getattr(_Kernel, name),
                    _name=name):
            calls.append((np.ndim(q), _name))
            return _orig(self, x, q, eps)
        monkeypatch.setattr(_Kernel, name, wrapped)
    for x, rows in zip(xs, want):
        vals, ps = kern.minimum(x, qs, 0.5)
        got = [(v.hex(), (int(p1), int(p2)))
               for v, (p1, p2) in zip(vals.tolist(), ps.tolist())]
        assert got == [(v.hex(), p) for v, p in rows]
    assert calls == 3 * ([(0, "minimize_exhaustive")] * 7 + [(1, "minimize")])


def _one_row_minimize(kern, x, q, eps):
    """``_Kernel.minimize`` as it ran before it took batches: one row, its
    threshold from the wrap evaluated as numpy scalars, every valid cell
    of every candidate rectangle turned into its lattice point p, all of
    them evaluated at once as F(y - p) and one lexsort over them all."""
    y = q * np.asarray(x, dtype=float).reshape(1, 2)
    mod = kern._moduli([q])
    p0 = np.round(y[0])
    z0 = y[0] - p0
    v0 = float(kern.f.eval_xy(z0[0], z0[1]))
    if mod is not None and not measure._coprime(p0.reshape(1, 2), *mod)[0]:
        v0 = math.inf
    tau = np.array([min(v0, q * eps) * (1.0 + 1e-9) + 1e-300])
    p = []
    for rows, o1, o2, valid in kern._blocks(y, p0.reshape(1, 2), tau,
                                            measure._SCALAR_K_CAP,
                                            np.zeros(1, dtype=bool)):
        assert not rows.any() and valid.shape[0] == len(rows)
        p.append(p0 + np.column_stack([np.broadcast_to(o, valid.shape)[valid]
                                       for o in (o1, o2)]))
    p = np.concatenate(p)
    if mod is not None:
        p = p[measure._coprime(p, *mod)]
    if len(p) == 0:
        return math.inf, (0, 0)
    z1 = y[0, 0] - p[:, 0]
    z2 = y[0, 1] - p[:, 1]
    vals = kern.f.eval_xy(z1, z2)
    zinf = np.maximum(np.abs(z1), np.abs(z2))
    i = int(np.lexsort((p[:, 1], p[:, 0], zinf, vals))[0])
    return float(vals[i]), (int(p[i, 0]), int(p[i, 1]))


def _batch_is_one_row_at_a_time(kern, xs, qs, eps):
    """One batched ``minimize`` over the rows (xs[i], qs[i], eps[i]),
    checked bit for bit, value and p, against one-row calls; returns how
    many rows found their minimizer outside the central box, on a tube."""
    vals, ps = kern.minimize(xs, qs, eps)
    assert vals.shape == (len(qs),) and ps.shape == (len(qs), 2)
    for x, q, e, v, p in zip(xs, qs.tolist(), eps, vals, ps):
        want = _one_row_minimize(kern, x, q, e)
        got = (float(v), (int(p[0]), int(p[1])))
        assert got[0].hex() == want[0].hex() and got[1] == want[1], (
            x, q, e, got, want)
    y = qs[:, None] * xs
    wrap = np.round(y)
    box = kern._box_radius(kern._tau(y, qs * eps, kern._moduli(qs)))
    return int(np.count_nonzero(np.abs(ps - wrap).max(axis=1) > box))


_SEARCH_Q = np.arange(65, 1001)


@pytest.mark.parametrize("restricted", [False, True],
                         ids=["unrestricted", "restricted"])
@pytest.mark.parametrize("body", [
    "height", "multiplicative", "union_jack", "gm(abs(1,-1),abs(0,1))",
    "gm(abs(2,-1),abs(1,1))"], ids=["height", "multiplicative", "union_jack",
                                    "sheared", "index_3"])
def test_batched_minimize_is_the_one_row_minimize(registered_bodies, body,
                                                  restricted):
    # one minimize over q = 65..1000 at (sqrt2, sqrt3), as search runs it
    # (eps = 1; q*eps = 1/2 for a restricted row, whose wrap may be
    # forbidden), then over rows of random points and q; each row's
    # candidates and pick are its own, so a batch equals its rows one at a
    # time
    f = registered_bodies.get(body) or sk.parse_distance_function(body)
    kern = _Kernel(f, restricted)
    rng = np.random.default_rng([71, len(body), restricted])
    x = np.array([math.sqrt(2), math.sqrt(3)])
    sweep_eps = 0.5 / _SEARCH_Q if restricted else np.ones(len(_SEARCH_Q))
    on_tubes = _batch_is_one_row_at_a_time(
        kern, np.broadcast_to(x, (len(_SEARCH_Q), 2)), _SEARCH_Q, sweep_eps)
    qs = rng.choice(_SEARCH_Q, 150)
    on_tubes += _batch_is_one_row_at_a_time(
        kern, rng.random((150, 2)), qs, rng.uniform(0.02, 0.5, 150) / qs)
    # a restricted row whose wrap is forbidden may find its minimizer far
    # along a skeleton line
    assert on_tubes > 0 or not restricted


def _box_and_tube_offsets(kern, z0, tau, k_cap):
    """One row's candidate offsets o = p - p0 by the plain rule: every o of
    the box of radius b about the wrap, and every step kc - kw .. kc + kw
    of every lattice line that a rational line's tube reaches, as (n, 2)
    floats, where a tube step inside the box comes twice.  The floats are
    the kernel's own, on one-element arrays."""
    tau = np.array([tau])
    b = int(kern._box_radius(tau)[0])
    span = np.arange(-b, b + 1.0)
    out = [np.stack(np.meshgrid(span, span, indexing="ij"), -1).reshape(-1, 2)]
    for lg in kern.geo.lines:
        r, s = lg.half.int_direction()
        L = math.hypot(r, s)
        _, v1, v2 = measure._xgcd(s, -r)
        c0 = z0[0] * s - z0[1] * r
        a0 = z0[0] * r + z0[1] * s
        reach = (L * np.minimum(1.0, 2.0 * lg.width(1.0, tau)))[0]
        for j in range(math.floor(c0 - reach), math.ceil(c0 + reach) + 1):
            steps = measure._arc_steps(lg, tau, np.array([abs(c0 - j) / L]),
                                       L, k_cap)[0]
            kw = max(math.ceil(steps), 1)
            kc = np.rint((a0 - j * (v1 * r + v2 * s)) / L / L)
            k = kc + np.arange(-kw, kw + 1.0)
            out.append(np.column_stack([j * v1 + k * r, j * v2 + k * s]))
    return np.concatenate(out)


def _offset_keys(o):
    """One int64 per offset, equal only for equal offsets."""
    o = o.astype(np.int64) + (1 << 24)
    return (o[:, 0] << 26) + o[:, 1]


@pytest.mark.parametrize("body", [
    SHEARED, "union_jack", "multiplicative", "gm(abs(2,-1),abs(1,1))",
    "abs(-18/10,-4)"], ids=["sheared", "union_jack", "multiplicative",
                            "index_3", "strip"])
@pytest.mark.parametrize("kind", ["hits", "minimize"])
def test_each_candidate_of_a_row_comes_once(registered_bodies, body, kind):
    # _blocks leaves a tube step inside the box to the box: a row's set of
    # p is the plain rule's, and no p comes twice.  The strip's flat tube
    # takes the full step cap on every line, 4,096 a side under minimize,
    # so it gets fewer rows
    f = registered_bodies.get(body) or sk.parse_distance_function(body)
    kern = _Kernel(f)
    rng = np.random.default_rng([23, len(body), len(kind)])
    m = 3 if body.startswith("abs") and kind == "minimize" else 40
    qs = rng.integers(1, 301, m).astype(float)
    y = qs[:, None] * rng.random((m, 2))
    p0 = np.rint(y)
    cap = qs * rng.uniform(0.01, 0.5, m)
    if kind == "hits":
        tau, k_cap = cap, measure._BATCH_K_CAP
    else:
        tau, k_cap = kern._tau(y, cap, None), measure._SCALAR_K_CAP
    rows, offsets = [], []
    for r, o1, o2, valid in kern._blocks(y, p0, tau, k_cap,
                                         np.zeros(m, dtype=bool)):
        _, idx, o = measure._cells(r, o1, o2, valid)
        rows.append(idx)
        offsets.append(o)
    rows, keys = np.concatenate(rows), _offset_keys(np.concatenate(offsets))
    on_tubes = 0
    for i in range(m):
        got = np.sort(keys[rows == i])
        want = _box_and_tube_offsets(kern, y[i] - p0[i], tau[i], k_cap)
        assert np.array_equal(np.unique(got), np.unique(_offset_keys(want))), i
        repeats = np.count_nonzero(np.diff(got) == 0)
        assert repeats == 0, (i, repeats)
        on_tubes += np.abs(want).max() > kern._box_radius(tau[i:i + 1])[0]
    # a minimize threshold, at most F of the wrap, can keep every tube step
    # of a row inside its box, as on the multiplicative body
    assert on_tubes > 0 or kind == "minimize"


def test_minimize_holds_a_bounded_set_along_a_flat_tube(monkeypatch):
    # the skeleton line of this strip has a fitted width exponent of about
    # 0, so every row's tube takes the full step cap on about 45 lattice
    # lines and most rectangle rows hold their own least value; what _least
    # holds is folded before it passes two rectangles' worth
    f = sk.parse_distance_function("abs(-18/10,-4)")
    assert body_geometry(f).lines[0].width_exp < 1e-9
    sizes = []
    pick = measure._pick_minimizer

    def recorded(idx, vals, zinf, o):
        sizes.append(idx.size)
        return pick(idx, vals, zinf, o)
    monkeypatch.setattr(measure, "_pick_minimizer", recorded)
    qs = np.arange(65, 73)
    x = np.array([math.sqrt(2), math.sqrt(3)])
    on_tubes = _batch_is_one_row_at_a_time(
        _Kernel(f), np.broadcast_to(x, (len(qs), 2)), qs, np.ones(len(qs)))
    assert on_tubes > 0
    assert len(sizes) > 1
    assert max(sizes) <= 2 * measure._HIT_CELLS + len(qs)


def test_batched_minimize_keeps_a_forbidden_wrap_out_of_its_row(union_jack):
    # the two rows of test_restricted_minimize_skips_a_forbidden_wrap, whose
    # threshold falls back to q*eps, among rows whose wraps are allowed
    kern = _Kernel(union_jack, restricted=True)
    rng = np.random.default_rng(72)
    xs = np.vstack([rng.random((5, 2)),
                    [(0.04370094297778038, 0.23178098788932566),
                     (0.7609004959251774, 0.38515085757742007)],
                    rng.random((5, 2))])
    qs = np.concatenate([rng.choice(_SEARCH_Q, 5), [225, 192],
                         rng.choice(_SEARCH_Q, 5)])
    eps = np.concatenate([rng.uniform(0.02, 0.5, 5) / qs[:5],
                          [0.001068746768269329, 0.00252194582874272],
                          rng.uniform(0.02, 0.5, 5) / qs[7:]])
    forbidden = ~measure._coprime(np.round(qs[:, None] * xs),
                                  *kern._moduli(qs))
    assert forbidden[5:7].all()
    _batch_is_one_row_at_a_time(kern, xs, qs, eps)
    vals, ps = kern.minimize(xs, qs, eps)
    assert (vals[5], tuple(ps[5])) == (0.22875898153073013, (13, 49))
    assert (vals[6], tuple(ps[6])) == (0.35009592970078635, (149, 71))


def test_batched_minimize_on_random_rational_bodies():
    # restricted on every second body
    rng = random.Random(17)
    nrng = np.random.default_rng(17)
    checked = 0
    while checked < 12:
        text = random_dsl(rng, rational=True)
        try:
            f = sk.parse_distance_function(text)
        except sk.DegenerateExpr:
            continue
        kern = _Kernel(f, restricted=bool(checked % 2))
        # a body made of strips alone reaches k_cap on every lattice line,
        # about 1e5 candidates per row
        qs = np.sort(nrng.choice(_SEARCH_Q, 16))
        xs = np.vstack([np.broadcast_to([math.sqrt(2), math.sqrt(3)],
                                        (8, 2)), nrng.random((8, 2))])
        _batch_is_one_row_at_a_time(kern, xs, qs,
                                    nrng.uniform(0.02, 0.5, 16) / qs)
        checked += 1


def _value_at(f, y, p):
    """F(y - p) through one-element arrays, as the kernel evaluates it: a
    scalar ** 0.5 and an array's (a sqrt) can differ in the last bit."""
    return float(f.eval_xy(np.array([y[0] - p[0]]),
                           np.array([y[1] - p[1]]))[0])


def test_irrational_kernel_paths_keep_what_they_promise(irrational_cusp):
    # the tube along the irrational line and the window reach it gives
    # minimize_exhaustive.  Completeness is not asserted: along the line
    # the fast search can miss a member (ROADMAP item 3)
    f = irrational_cusp
    rng = np.random.default_rng(41)
    for _ in range(8):
        q = int(rng.integers(65, 401))
        eps = float(rng.uniform(0.02, 0.5)) / q
        kern = _Kernel(f)
        xs = rng.random((40, 2))
        for x, hit in zip(xs, kern.hits(xs, q, eps)):
            y = q * x
            value, p = kern.minimize(x, q, eps)
            assert value == _value_at(f, y, p), (q, x)
            assert value <= _value_at(f, y, np.round(y)), (q, x)
            assert value < q * eps or not hit, (q, x)
    # an irrational line reaches _WINDOW_CAP, so for q <= 64 the window has
    # half-width _WINDOW_CAP + 2 (1205 x 1205 points)
    for _ in range(3):
        q = int(rng.integers(1, 65))
        eps = float(rng.uniform(0.02, 0.5)) / q
        x = tuple(rng.random(2))
        _, value, p = brute_membership(f, x, q, eps,
                                       window=measure._WINDOW_CAP + 2)
        assert _Kernel(f).minimize_exhaustive(x, q, eps) == (value, p)


def test_nearly_flat_tube_minimizes_without_overflow():
    # the fitted width exponent of a skeleton line of this body is so small
    # that the reach power overflows a float: the reach is then the cap
    f = sk.load_distance_function("min(abs(-2,1),gm(abs(0,-1),abs(3,-1)))")
    x = (0.6369616873214543, 0.2697867137638703)
    kern = _Kernel(f)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        value, _ = kern.minimize(x, 1, 0.3435)
        assert value < 0.3435
        assert kern.minimize_exhaustive(x, 1, 0.3435) == (
            0.004136660878998555, (129, 257))


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


def test_restricted_coprimality_matches_python_gcd():
    # a decimal slope makes the fundamental rectangle huge: r_hat = 2^55,
    # so p1 * r_hat leaves int64 for p1 >= 256
    f = sk.parse_distance_function("gm(abs(0.1,-1),abs(0,1))")
    rect = sk.fundamental_rectangle(sk.extract_skeleton(f))
    assert rect.r_hat == 2 ** 55
    q = 7

    def allowed(p1s, p2s):
        a1 = np.array([math.gcd(int(v) * rect.r_hat, q) == 1 for v in p1s])
        a2 = np.array([math.gcd(int(v) * rect.s_hat, q) == 1 for v in p2s])
        return np.logical_and.outer(a1, a2)

    p1s, p2s = np.arange(250, 330), np.arange(1, 10)
    grid = np.array([(a, b) for a in p1s for b in p2s], dtype=float)
    ok = allowed(p1s, p2s).ravel()
    assert 0 < ok.sum() < len(ok)
    # hits: q*x sits 1e-3 above an allowed lattice point, where only that
    # point is within q*eps
    kern = _Kernel(f, restricted=True)
    xs = (grid[ok] + np.array([0.0, 1e-3])) / q
    assert kern.hits(xs, q, 0.002 / q).all()
    # minimize_exhaustive against the same window filtered by math.gcd
    w = 602
    span = np.arange(-w, w + 1)
    for p in np.array([(266, 5), (295, 3)], dtype=float):
        y = p + np.array([0.3, 0.05])
        assert np.array_equal(np.rint(y), p)
        got = kern.minimize_exhaustive(y / q, q, 0.002 / q)
        gx, gy = np.meshgrid(p[0] + span, p[1] + span, indexing="ij")
        keep = allowed(p[0] + span, p[1] + span).ravel()
        ps = np.column_stack([gx.ravel(), gy.ravel()])[keep]
        z1, z2 = y[0] - ps[:, 0], y[1] - ps[:, 1]
        vals = f.eval_xy(z1, z2)
        zinf = np.maximum(np.abs(z1), np.abs(z2))
        i = int(np.lexsort((ps[:, 1], ps[:, 0], zinf, vals))[0])
        assert got == (float(vals[i]), (int(ps[i, 0]), int(ps[i, 1])))


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
    kern = _Kernel(f, restricted)
    fast = sk.batch_hits(f, xs, q, eps, restricted)
    slow = [kern.minimize_exhaustive(x, q, eps)[0] < q * eps for x in xs]
    assert fast.tolist() == slow, (body, restricted, q, eps, xs)


@pytest.mark.parametrize("restricted", [False, True],
                         ids=["unrestricted", "restricted"])
@pytest.mark.parametrize("name", ["height", "multiplicative", "union_jack",
                                  SHEARED])
def test_hits_on_a_batch_of_q_are_the_scalar_columns(registered_bodies, name,
                                                     restricted):
    # one call on 16 values of q decides each (point, q) pair as the call on
    # that q alone does; 600 x 16 rows also cross a _HIT_CELLS slice, and
    # the sheared body's q-major rows go through the candidate rectangles
    f = registered_bodies.get(name) or sk.parse_distance_function(name)
    rng = np.random.default_rng([53, len(name), restricted])
    qs = np.sort(rng.choice(np.arange(1, 301), 16, replace=False))
    qs[-1] = 300
    eps = rng.uniform(0.05, 0.5, len(qs)) / qs
    xs = rng.random((600, 2))
    assert len(xs) * len(qs) > measure._HIT_CELLS
    kern = _Kernel(f, restricted)
    batched = kern.hits(xs, qs, eps)
    columns = np.column_stack([kern.hits(xs, int(q), float(e))
                               for q, e in zip(qs, eps)])
    assert batched.dtype == columns.dtype == bool
    assert batched.shape == (600, 16)
    assert 0 < np.count_nonzero(columns) < columns.size
    assert np.array_equal(batched, columns)
    # every (point, q) row has its own candidates, lattice lines included,
    # so a row decides alone as it does among the 9,600
    assert np.array_equal(batched[::15], _hits_one_at_a_time(kern, xs[::15],
                                                             qs, eps))


@pytest.mark.parametrize("batch", [1, 16, 8201])
def test_q_major_hits_are_the_literal_wrap_decisions(height, batch):
    # 1,000 points fill no whole number of slices (512 points at B = 16);
    # at B = 8,201 each slice is one point.  Every (point, q) decision is
    # F(q*x - rint(q*x)) < q*eps with F = max(|z1|, |z2|) written out
    rng = np.random.default_rng([20, batch])
    xs = rng.random((1000, 2))
    qs = rng.integers(1, 10**6, batch)
    eps = rng.uniform(0.05, 0.5, batch) / qs
    got = _Kernel(height).hits(xs, qs, eps)
    assert got.shape == (1000, batch) and got.dtype == bool
    for j in range(0, batch, 512):
        q = qs[j:j + 512]
        y1, y2 = xs[:, :1] * q, xs[:, 1:] * q
        z = np.maximum(np.abs(y1 - np.rint(y1)), np.abs(y2 - np.rint(y2)))
        assert np.array_equal(got[:, j:j + 512], z < q * eps[j:j + 512])
    assert 0 < np.count_nonzero(got) < got.size
    one = _Kernel(height).hits(xs, int(qs[0]), float(eps[0]))
    assert one.shape == (1000,)
    assert np.array_equal(one, got[:, 0])


def _hits_one_at_a_time(kern, xs, qs, eps):
    """``hits`` of each (point, q) row in a call of its own, shape (m, B)."""
    return np.array([[kern.hits(x[None], int(q), float(e))[0]
                      for q, e in zip(qs, eps)] for x in xs])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(y=st.lists(st.floats(-2.0**52, 2.0**52, exclude_min=True,
                            exclude_max=True), min_size=1, max_size=40),
       o=st.lists(st.integers(-2**20, 2**20), min_size=1, max_size=40))
def test_offsets_from_the_wrap_round_as_the_lattice_point(y, o):
    # the fact the kernel's rectangles rest on: z0 = y - rint(y) is exact,
    # so z0 - o is y - (rint(y) + o) rounded once, the same float bit for
    # bit, except that a zero may differ in sign
    n = min(len(y), len(o))
    y = np.array(y[:n])
    o = np.array(o[:n], dtype=float)
    p0 = np.rint(y)
    got, want = (y - p0) - o, y - (p0 + o)
    nonzero = want != 0
    assert np.array_equal(got[nonzero].view(np.int64),
                          want[nonzero].view(np.int64)), (y, o)
    assert not got[~nonzero].any()


def test_hits_evaluate_at_most_a_slice_of_cells_per_call(monkeypatch):
    # every Expr.eval_xy call inside hits, the wrap, the box and the tube
    # rectangles alike, stays within _HIT_CELLS cells; 600 x 16 rows make
    # a full slice of 8,192 (point, q) rows and a partial one
    kern = _Kernel(sk.parse_distance_function(SHEARED))
    sizes = []
    eval_xy = sk.Expr.eval_xy

    def recorded(self, x1, x2):
        sizes.append(np.broadcast(x1, x2).size)
        return eval_xy(self, x1, x2)
    monkeypatch.setattr(sk.Expr, "eval_xy", recorded)
    rng = np.random.default_rng(19)
    qs = np.arange(100, 116)
    eps = rng.uniform(0.05, 0.5, len(qs)) / qs
    kern.hits(rng.random((600, 2)), qs, eps)
    assert len(sizes) > 4
    assert max(sizes) == measure._HIT_CELLS
    # more q values than a slice holds: one point per slice, and its wrap
    # goes in rectangles of _HIT_CELLS rows too
    sizes.clear()
    qs = np.arange(1, measure._HIT_CELLS + 10)
    kern.hits(rng.random((2, 2)), qs, 0.3 / qs)
    assert max(sizes) == measure._HIT_CELLS


@pytest.mark.parametrize("body", ["height", "multiplicative", "union_jack",
                                  "irrational_cusp", SHEARED])
def test_kernel_rejects_a_non_finite_point(registered_bodies, body):
    # one ValueError on every kernel path, before any rounding or
    # evaluation: the axis-monotone wrap, the tubes, the window, restricted
    # or not, for a scalar q and a q-batch
    f = registered_bodies.get(body) or sk.parse_distance_function(body)
    kerns = [_Kernel(f)]
    if kerns[0].geo.skeleton.rational_only:
        kerns.append(_Kernel(f, restricted=True))
    qs = np.array([5, 7])
    for bad in [(math.nan, 0.3), (math.inf, 0.3), (0.3, -math.inf)]:
        xs = np.array([(0.2, 0.4), bad])
        for kern in kerns:
            calls = [
                lambda: kern.hits(xs, 5, 0.1),
                lambda: kern.hits(xs, qs, np.array([0.1, 0.05])),
                lambda: kern.minimize(bad, 100, 0.01),
                lambda: kern.minimize(xs, qs + 100, 0.01),
                lambda: kern.minimize_exhaustive(bad, 5, 0.1),
                lambda: kern.any_hit(xs, 5, np.array([0.1, 0.05])),
                lambda: sk.batch_hits(f, xs, 5, 0.1, kern.restricted),
                lambda: sk.resonant_membership(f, bad, sk.ResonantSpec(
                    q=5, epsilon=0.1, restricted=kern.restricted)),
            ]
            for call in calls:
                with pytest.raises(ValueError, match="points must be finite"):
                    call()


@pytest.mark.parametrize("estimate, want", [
    (lambda b: (lambda r: (r.value, r.stderr))(sk.density(
        b[SHEARED], 0.1, "montecarlo", samples=200_000, seed=104)),
     (0.16948, 0.0008389175454119433)),
    (lambda b: measure.resonant_measure(b["union_jack"], sk.ResonantSpec(
        q=7, epsilon=0.03, restricted=True), samples=20_000, seed=3),
     (0.64315, 0.003387536549618321)),
    (lambda b: measure.resonant_measure(b["union_jack"], sk.ResonantSpec(
        q=7, epsilon=0.03), samples=20_000, seed=3),
     (0.7603, 0.0030186413334478807)),
    (lambda b: measure.resonant_measure(b["irrational_cusp"], sk.ResonantSpec(
        q=7, epsilon=0.005), samples=20_000, seed=3),
     (0.04895, 0.0015256784966040519)),
    (lambda b: measure.resonant_measure(b["irrational_cusp"], sk.ResonantSpec(
        q=100, epsilon=0.0005), samples=20_000, seed=3),
     (0.09125, 0.002036215085642968)),
    (lambda b: sk.tail_measure(b[SHEARED], sk.PsiFamily.power(2.5), 64,
                               samples=8192, seed=5),
     (0.004150390625, 0.0007103074889372357)),
], ids=["density_mc", "union_jack-restricted", "union_jack", "cusp-q7",
        "cusp-q100", "tail-sheared"])
def test_kernel_estimates_keep_their_pinned_bits(registered_bodies, estimate,
                                                 want):
    # values and standard errors of the kernel's Monte Carlo estimates, bit
    # for bit: the tube path and its q-batches, the restricted coprimality
    # filter and the irrational tube
    bodies = dict(registered_bodies)
    bodies[SHEARED] = sk.parse_distance_function(SHEARED)
    got = estimate(bodies)
    assert [float(v).hex() for v in got] == [v.hex() for v in want]


# x_k where the lattice of q*x_k has a short vector, down to x_k = 0, where
# every q is a candidate; and the largest float below 1
_EDGE_X = [0.0, 0.5, float(Fraction(1, 3)), 1.0 - 2.0 ** -53]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(xs=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=12),
       n=st.integers(1, 2 ** 14), tau=st.floats(1.05, 3.0),
       near=st.lists(st.tuples(st.integers(0, 2 ** 14), st.integers(0, 2 ** 15),
                               st.floats(-1.0, 1.0)), max_size=6))
@example(xs=[0.25, 0.61803398874989], n=2 ** 14, tau=1.6,
         near=[(5, 7, 1.0), (9, 2, -0.999999)])
@example(xs=[0.1, 2.0 ** -40], n=4096, tau=3.0, near=[(3, 1, -1.0)])
@example(xs=[0.3], n=1024, tau=1.05, near=[(0, 0, 0.5)])
def test_lattice_cells_hold_every_q_that_passes_the_wrap(xs, n, tau, near):
    # the enumerated (point, q) cells against the all-q sweep of the wrap
    # test |wrap(q*x)| < delta, with delta the largest q*psi(q) of the
    # block, as on the height body (c = 1).  The points of `near` put a
    # lattice point (q, s*delta) near the edge of the box
    qs = np.arange(n, 2 * n + 1)
    delta = float((qs * qs.astype(float) ** -tau).max())
    edge = [(n + a % (n + 1), b, s) for a, b, s in near]
    x = np.array(xs + _EDGE_X + [(b % q + s * delta) / q % 1.0
                                 for q, b, s in edge])
    got = _assert_lattice_superset(x, n, delta)
    assert got[x == 0.0].all()


@pytest.mark.parametrize("n", [64, 1024, 2 ** 14])
@pytest.mark.parametrize("tau", [1.05, 1.6, 3.0])
def test_lattice_cells_hold_q_at_the_edge_of_delta(n, tau):
    # points whose wrap at one q is the largest float below delta, or the
    # least above -delta, found by stepping x a float at a time: there the
    # real q*x - p may pass delta by the rounding of q*x, which the margins
    # must cover.  A third of the q are n or 2n, the corners of the box
    qs = np.arange(n, 2 * n + 1)
    delta = float((qs * qs.astype(float) ** -tau).max())
    rng = np.random.default_rng([n, int(tau * 100)])
    x = []
    for _ in range(150):
        q = int(rng.choice([n, 2 * n, rng.integers(n, 2 * n + 1)]))
        p = int(rng.integers(1, q))
        x0 = (p + float(rng.choice([-1.0, 1.0])) * delta) / q
        cand = x0 + np.arange(-64, 65) * np.spacing(x0)
        w = q * cand - p        # the wrap: q*x rounds, the subtraction is exact
        inside = np.abs(w) < delta
        if inside.any():
            x.append(cand[inside][np.argmax(np.abs(w[inside]))])
    x = np.array(x)
    assert len(x) > 100
    _assert_lattice_superset(x, n, delta)


def _assert_lattice_superset(x, n, delta):
    """The cells of ``_lattice_cells`` over [n, 2n] as an (m, n + 1) mask,
    checked to hold every (point, q) with |wrap(q*x)| < delta."""
    qs = np.arange(n, 2 * n + 1)
    cells = measure._lattice_cells(x, n, 2 * n, delta)
    assert cells is not None
    got = np.zeros((len(x), len(qs)), dtype=bool)
    for i, q in cells:
        assert len(i) == len(q) <= measure._HIT_CELLS
        assert ((n <= q) & (q <= 2 * n)).all()
        got[i, (q - n).astype(int)] = True
    y = qs.astype(float) * x[:, None]
    want = np.abs(y - np.rint(y)) < delta
    assert not (want & ~got).any(), (x[(want & ~got).any(axis=1)], n, delta)
    return got


def test_reduced_bases_are_bases():
    # integer steps only: d = q2*p1 - q1*p2 is +-1 in exact integers, and
    # the reduced u is far shorter than the start (1, rint(x))
    x = np.concatenate([np.random.default_rng(21).random(500), _EDGE_X])
    q1, p1, q2, p2, d = measure._reduced_basis(x, 1009.0, 0.0156)
    for a in (q1, p1, q2, p2, d):
        assert np.array_equal(a, np.rint(a))    # integers, held in floats
    for row in zip(q1.tolist(), p1.tolist(), q2.tolist(), p2.tolist(),
                   d.tolist()):
        a, b, c, e, sign = map(int, row)
        assert c * b - a * e == sign and sign in (-1, 1)
    assert np.median(np.abs(q1)) > 10


def test_lattice_cells_refuse_integers_past_the_limit(monkeypatch):
    # no proof past _LATTICE_LIMIT: None, and the caller decides every q
    monkeypatch.setattr(measure, "_LATTICE_LIMIT", 2.0 ** 6)
    assert measure._lattice_cells(np.array([0.3, 0.7]), 1000, 2000,
                                  0.01) is None


@pytest.mark.parametrize("text,axis,c", [
    ("max(abs(1,0),abs(0,1))", 0, 1.0),
    ("max(abs(2,0),abs(0,sqrt2))", 0, 2.0),
    ("max(abs(0,3),min(abs(-1,0),abs(2,0)))", 1, 3.0),
    ("scale(2,max(abs(0,1),abs(1/3,0)))", 1, 2.0),
])
def test_axis_bound_of_certified_bodies(text, axis, c):
    f = sk.parse_distance_function(text)
    k, got, b = measure._axis_bound(f)
    assert (k, got) == (axis, c)
    assert _Kernel(f).axis_bound[:2] == (axis, c)
    assert _Kernel(f, restricted=True).axis_bound is None
    # F >= B, B reads z_k alone, and |z_k| >= radius keeps F >= tau
    rng = np.random.default_rng(len(text))
    z = rng.uniform(-2, 2, (2, 4000))
    bz = b.eval_xy(*z)
    assert (f.eval_xy(*z) >= bz).all()
    other = z.copy()
    other[1 - k] = rng.uniform(-2, 2, 4000)
    assert np.array_equal(b.eval_xy(*other), bz)
    for tau in (1e-3, 0.0156, 1 / 3, 0.7):
        t = measure._axis_radius((k, got, b), tau)
        assert t == pytest.approx(tau / c, rel=1e-12)
        z[k] = np.where(np.abs(z[k]) < t, t, z[k])
        assert (f.eval_xy(*z) >= tau).all()


@pytest.mark.parametrize("text", [
    "gm(abs(1,0),abs(0,1))",
    "min(gm(abs(1,0),abs(0,1)),"
    "gm(abs(invsqrt2,invsqrt2),abs(invsqrt2,-invsqrt2)))",
    SHEARED,
    "gm(abs(-sqrt2,1),abs(1,0))",
    "min(abs(1,0),abs(0,1))",
    "max(abs(1,1),abs(1,-1))",
])
def test_axis_bound_is_none_without_a_certificate(text):
    # a skeleton line on an axis, a GeoMean, or no axis-aligned atom: no
    # bound, and the kernel's tail keeps the sweep
    f = sk.parse_distance_function(text)
    assert measure._axis_bound(f) is None
    assert _Kernel(f).axis_bound is None


@pytest.mark.parametrize("text,restricted,tau,n,lattice", [
    # the height body: the lattice path after the first batch, and the
    # sweep on the divergent side
    ("max(abs(1,0),abs(0,1))", False, 1.6, 1024, True),
    ("max(abs(1,0),abs(0,1))", False, 1.4, 1024, False),
    # no certified axis bound: the multiplicative and sheared bodies sweep
    ("gm(abs(1,0),abs(0,1))", False, 2.0, 256, False),
    (SHEARED, False, 2.0, 48, False),
    # a restricted kernel takes no wrap shortcut
    ("max(abs(1,0),abs(0,1))", True, 1.6, 48, False),
    ("gm(abs(1,0),abs(0,1))", True, 2.0, 48, False),
])
@pytest.mark.parametrize("limit", [None, 2.0 ** 6])
def test_any_hit_is_the_or_of_the_scalar_hits(monkeypatch, text, restricted,
                                              tau, n, lattice, limit):
    # q = n .. 2n with eps = q^-tau, on 4,096 points; a _LATTICE_LIMIT of
    # 2^6 leaves the lattice no proof, and the call goes on sweeping
    kern = _Kernel(sk.parse_distance_function(text), restricted)
    xs = np.random.default_rng(23).random((4096, 2))
    eps = np.arange(n, 2 * n + 1) ** -tau
    want = np.zeros(len(xs), dtype=bool)
    for q, e in zip(range(n, 2 * n + 1), eps.tolist()):
        want |= kern.hits(xs, q, e)
    assert 0.05 < want.mean() < 0.99
    calls = []
    cells = measure._lattice_cells

    def counted(*args):
        got = cells(*args)
        calls.append(got is not None)
        return got
    monkeypatch.setattr(measure, "_lattice_cells", counted)
    if limit is not None:
        monkeypatch.setattr(measure, "_LATTICE_LIMIT", limit)
    got = kern.any_hit(xs, n, eps)
    assert got.shape == (len(xs),) and got.dtype == bool
    assert np.array_equal(got, want)
    assert calls == ([limit is None] if lattice else [])


def test_any_hit_of_no_q_hits_nothing(height):
    assert not _Kernel(height).any_hit(np.full((3, 2), 0.5), 5, []).any()


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


def _tube_of_slope(m):
    # gm(|x2 - m x1|, max(|x1|,|x2|)): single skeleton line of slope m
    return GeoMean(Abs(-m, 1), Max(Abs(1, 0), Abs(0, 1)))


@pytest.mark.parametrize("m1,m2", [(sk.SQRT2, sk.SQRT3),
                                   (Fraction(1, 2), Fraction(1, 3))],
                         ids=["sqrt2_sqrt3", "half_third"])
def test_probe_rejects_different_exact_slopes(m1, m2):
    f1, f2 = _tube_of_slope(m1), _tube_of_slope(m2)
    with pytest.raises(SkeletonMismatch):
        sk.overlap_monotonicity_probe(f1, f2, 0.3, 0.3,
                                      sk.extract_skeleton(f1).lines[0],
                                      [0.0], [0.0], samples=100, seed=0)


def test_probe_accepts_equal_slopes_from_different_forms():
    f1 = _tube_of_slope(Fraction(1, 2))
    f2 = Scale(2, Abs(-2, 4))      # the line x2 = x1/2 again
    line = sk.extract_skeleton(f1).lines[0]
    assert line.slope == sk.extract_skeleton(f2).lines[0].slope
    vals, errs = sk.overlap_monotonicity_probe(f1, f2, 0.3, 0.3, line,
                                               [0.0], [0.0], samples=2000,
                                               seed=0)
    assert vals.shape == errs.shape == (1, 1)
    assert vals[0, 0] > 0


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


def test_probe_equals_a_plain_loop_over_the_sample_stream():
    f = _single_line_tube()
    line = sk.extract_skeleton(f).lines[0]
    t1s, t2s = [0.0, 0.3, 0.7], [0.0, 0.05, 0.1, 0.2, 0.5, 1.5]
    samples, seed = 30_001, 4
    vals, errs = sk.overlap_monotonicity_probe(f, f, 0.3, 0.25, line, t1s,
                                               t2s, samples=samples,
                                               seed=seed)
    rect = sk.fundamental_rectangle(sk.extract_skeleton(f))
    v, vp = line.unit_direction(), line.normal()
    pts = np.concatenate([
        sampling.uniform_chunk(seed, c, min(4096, samples - 4096 * c))
        for c in range(math.ceil(samples / 4096))])
    pts = pts * np.array([rect.s_hat, rect.r_hat])
    in1 = f.eval_xy(pts[:, 0], pts[:, 1]) < 0.3
    area = float(rect.s_hat * rect.r_hat)
    assert vals.shape == errs.shape == (3, 6)
    for i, t1 in enumerate(t1s):
        for j, t2 in enumerate(t2s):
            sx = pts[:, 0] + t1 * v[0] + t2 * vp[0]
            sy = pts[:, 1] + t1 * v[1] + t2 * vp[1]
            hits = np.count_nonzero(in1 & (f.eval_xy(sx, sy) < 0.25))
            p = hits / samples
            assert vals[i, j] == area * p
            assert errs[i, j] == area * math.sqrt(p * (1 - p) / samples)


def test_indicator_estimate_returns_floats_for_one_indicator():
    p, se = sampling.indicator_estimate(
        lambda pts: pts[:, 0] < 0.25, 5000, 3)
    assert type(p) is float and type(se) is float
    with pytest.raises(ValueError, match="samples"):
        sampling.uniform_points(3, 0)


def test_thread_count_reads_a_positive_decimal_integer(monkeypatch):
    monkeypatch.delenv("STARKIT_THREADS", raising=False)
    assert sampling.thread_count() == 1
    for raw, want in (("1", 1), ("4", 4)):
        monkeypatch.setenv("STARKIT_THREADS", raw)
        assert sampling.thread_count() == want


@pytest.mark.parametrize("raw", ["abc", "0", "-2"])
def test_thread_count_rejects_other_values(monkeypatch, raw):
    monkeypatch.setenv("STARKIT_THREADS", raw)
    with pytest.raises(ValueError, match="STARKIT_THREADS"):
        sampling.thread_count()


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


# ---------------------------------------------------------------------------
# Periodized quadrature
# ---------------------------------------------------------------------------

_SECTION_X2 = [0.0, 1.0, 0.5, 0.0625, 0.3, 0.6180339887498949, 0.95]


def _sections_batch_as_ones(f, eps, x2):
    """The section lengths of one batched call, after checking them bit for
    bit against one call per section, and the hit decisions of a grid over
    the sections against one call per point."""
    kern = _Kernel(f)
    batch = measure._section_length(kern, eps, x2)
    ones = np.concatenate([measure._section_length(kern, eps, [v])
                           for v in x2])
    assert batch.tobytes() == ones.tobytes(), (eps, x2, batch, ones)
    grid = np.array([(a, b) for a in np.linspace(0.0, 1.0, 33) for b in x2])
    assert np.array_equal(kern.hits(grid, 1, eps),
                          _hits_one_at_a_time(kern, grid, [1], [eps])[:, 0])
    return batch


@pytest.mark.parametrize("body, eps, pinned", [
    # on the horizontal skeleton line every cell hits
    ("gm(abs(1,0),abs(0,1))", 0.1, {0.0: 1.0, 1.0: 1.0}),
    (_STOCK_BODIES[2], 0.15, {0.0: 1.0}),
    (SHEARED, 0.375, {}),
    (SHEARED, 0.15, {}),
    # |x2 - p2| >= 1/2 > eps: no cell hits
    ("max(abs(1,0),abs(0,1))", 0.25, {0.5: 0.0}),
], ids=["multiplicative", "union_jack", "sheared-0.375", "sheared-0.15",
        "height"])
def test_section_lengths_of_a_batch_are_the_batches_of_one(body, eps, pinned):
    # one lockstep bisection over the edges of every section of a batch
    # decides each edge as the section's own bisection does: each row runs
    # on its own lattice lines in _rational_tube, so this holds by
    # construction
    lengths = _sections_batch_as_ones(sk.parse_distance_function(body), eps,
                                      _SECTION_X2)
    assert {v: lengths[_SECTION_X2.index(v)] for v in pinned} == pinned
    assert np.count_nonzero((0.0 < lengths) & (lengths < 1.0)) >= 2


def test_section_lengths_of_random_rational_bodies_batch_as_ones():
    # counted are the bodies whose bisection runs over several sections
    rng = random.Random(16)
    checked = 0
    while checked < 6:
        text = random_dsl(rng, rational=True)
        try:
            f = sk.parse_distance_function(text)
        except sk.DegenerateExpr:
            continue
        x2 = [0.0, 1.0] + [rng.random() for _ in range(3)]
        lengths = _sections_batch_as_ones(f, rng.uniform(0.05, 0.5), x2)
        checked += np.count_nonzero((0.0 < lengths) & (lengths < 1.0)) >= 2


def _one_halving_per_call(kern, eps, x2):
    """The section lengths with each section's edges bisected by
    ``_bisect``, one halving per ``hits`` call, one section at a time:
    the reference for _section_length's batched integer search."""
    x1 = np.linspace(0.0, 1.0, measure._SECTION_GRID + 1)
    out = []
    for v in x2:
        h = kern.hits(np.column_stack([x1, np.full_like(x1, v)]), 1, eps)
        edges = np.flatnonzero(h[:-1] != h[1:])

        def same_as_left(mid):
            pts = np.column_stack([mid, np.full_like(mid, v)])
            return kern.hits(pts, 1, eps) == h[edges]
        lo, hi, _ = _bisect(same_as_left, x1[edges], x1[edges + 1], 40)
        b = ([0.0] * bool(h[0]) + (0.5 * (lo + hi)).tolist()
             + [1.0] * bool(h[-1]))
        total = 0.0
        for a, c in zip(b[::2], b[1::2]):
            total += c - a
        out.append(total)
    return np.array(out)


def _assert_search_is_one_halving_per_call(kern, eps, x2):
    got = measure._section_length(kern, eps, x2)
    want = _one_halving_per_call(kern, eps, x2)
    assert got.tobytes() == want.tobytes(), (eps, x2, got, want)
    return got


def test_section_grid_keeps_the_search_exact():
    # the search's points are multiples of 2^-(log2(grid) + 41) in [0, 1]:
    # exact doubles while that exponent is at most 53
    grid = measure._SECTION_GRID
    assert grid & (grid - 1) == 0
    assert grid.bit_length() - 1 + 41 <= 53


@pytest.mark.parametrize("body, eps", [
    (SHEARED, 0.375), (SHEARED, 0.15), ("height", 0.25),
    ("multiplicative", 0.1), ("union_jack", 0.15),
], ids=["sheared-0.375", "sheared-0.15", "height", "multiplicative",
        "union_jack"])
def test_section_search_is_one_halving_per_call(registered_bodies, body, eps):
    f = registered_bodies.get(body) or sk.parse_distance_function(body)
    lengths = _assert_search_is_one_halving_per_call(_Kernel(f), eps,
                                                     _SECTION_X2)
    assert np.count_nonzero((0.0 < lengths) & (lengths < 1.0)) >= 2


def test_section_search_on_random_rational_bodies():
    rng = random.Random(5)
    checked = 0
    while checked < 8:
        text = random_dsl(rng, rational=True)
        try:
            f = sk.parse_distance_function(text)
        except sk.DegenerateExpr:
            continue
        x2 = [0.0, rng.random(), rng.random()]
        lengths = _assert_search_is_one_halving_per_call(
            _Kernel(f), rng.uniform(0.05, 0.5), x2)
        checked += np.count_nonzero((0.0 < lengths) & (lengths < 1.0)) > 0


class _HashKernel:
    """A fake kernel: one bit of a hash of each point's two coordinates,
    so hits flips many times inside every grid cell."""

    def hits(self, xs, q, eps):
        u = xs.view(np.uint64)
        u = (u[:, 0] * np.uint64(0x9E3779B97F4A7C15)
             ^ u[:, 1] * np.uint64(0xC2B2AE3D27D4EB4F))
        return ((u * np.uint64(0x165667B19E3779F9)) >> np.uint64(63)
                ).astype(bool)


def test_section_search_follows_a_non_monotone_hits():
    x2 = [0.0, 0.3, 0.6180339887498949]
    lengths = _assert_search_is_one_halving_per_call(_HashKernel(), 0.1, x2)
    assert ((0.0 < lengths) & (lengths < 1.0)).all()


def _depth_first_quadrature(f, eps):
    """The adaptive Simpson recursion over x2, one section per call, as
    _periodized_quadrature computed it before it walked level by level:
    (value, the x2 evaluated)."""
    kern = _Kernel(f)
    evaluated = []

    def g(x2):
        evaluated.append(x2)
        return float(measure._section_length(kern, eps, [x2])[0])

    def simpson(a, fa, m, fm, b, fb):
        return (b - a) * (fa + 4.0 * fm + fb) / 6.0

    def adapt(a, fa, m, fm, b, fb, whole, tol, depth):
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = g(lm), g(rm)
        left = simpson(a, fa, lm, flm, m, fm)
        right = simpson(m, fm, rm, frm, b, fb)
        if depth <= 0:
            return left + right
        if abs(left + right - whole) < 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (adapt(a, fa, lm, flm, m, fm, left, tol / 2.0, depth - 1)
                + adapt(m, fm, rm, frm, b, fb, right, tol / 2.0, depth - 1))

    fa, fm, fb = g(0.0), g(0.5), g(1.0)
    whole = simpson(0.0, fa, 0.5, fm, 1.0, fb)
    return adapt(0.0, fa, 0.5, fm, 1.0, fb, whole, measure._QUAD_TOL,
                 48), evaluated


@pytest.mark.parametrize("body, eps", [
    (SHEARED, 0.375), (SHEARED, 0.15),
    # axis-monotone: the kernel decides the wrap alone
    ("gm(abs(1,0),abs(0,1))", 0.1),
], ids=["sheared-0.375", "sheared-0.15", "multiplicative"])
def test_level_walk_is_the_depth_first_recursion(body, eps, monkeypatch):
    f = sk.parse_distance_function(body)
    want, want_x2 = _depth_first_quadrature(f, eps)
    evaluated = []
    section_length = measure._section_length

    def counted(kern, eps, x2):
        evaluated.extend(x2)
        return section_length(kern, eps, x2)
    monkeypatch.setattr(measure, "_section_length", counted)
    got = measure._periodized_quadrature(f, eps)
    assert type(got) is float
    assert got.hex() == want.hex()
    assert sorted(evaluated) == sorted(want_x2)


@pytest.mark.parametrize("body, eps, pinned", [
    (SHEARED, 0.375, "0x1.c5b4729cbb526p-1"),
    (SHEARED, 0.15, "0x1.3a138660223e2p-2"),
    ("multiplicative", 0.1, "0x1.599c3d386b2c2p-3"),
    ("union_jack", 0.3, "0x1.f9e97deef75f8p-1"),
], ids=["sheared-0.375", "sheared-0.15", "multiplicative", "union_jack"])
def test_periodized_quadrature_keeps_its_bits(registered_bodies, body, eps,
                                              pinned):
    # measured while the section edges were halved one at a time per
    # ``hits`` call; the first is perfbench's quadrature value
    f = registered_bodies.get(body) or sk.parse_distance_function(body)
    assert measure._periodized_quadrature(f, eps).hex() == pinned


def test_section_length_makes_the_pinned_hits_calls(monkeypatch):
    # one grid scan per section, then the bisection of the batch's 6 edges:
    # 40 calls of 6 points when each call served one halving, now
    # ceil(40 / 4) calls of the 15 nodes of each edge's 4-level subtree
    made = []
    hits = measure._Kernel.hits

    def counted(self, *args):
        made.append(len(args[0]))
        return hits(self, *args)
    monkeypatch.setattr(measure._Kernel, "hits", counted)
    kern = _Kernel(sk.parse_distance_function(SHEARED))
    measure._section_length(kern, 0.375, _SECTION_X2)
    assert made == [1025] * 7 + [15 * 6] * 10


def test_quadrature_budget_exhaustion(multiplicative):
    from starkit.errors import NonConvergent
    from starkit.measure import _periodized_quadrature
    with pytest.raises(NonConvergent):
        _periodized_quadrature(multiplicative, 0.1, budget=3)
    # the depth-first recursion's count of sections is the least budget
    want, evaluated = _depth_first_quadrature(multiplicative, 0.1)
    n = len(evaluated)
    assert _periodized_quadrature(multiplicative, 0.1, budget=n) == want
    with pytest.raises(NonConvergent):
        _periodized_quadrature(multiplicative, 0.1, budget=n - 1)
