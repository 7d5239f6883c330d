import itertools
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import starkit as sk
from starkit import transference
from starkit.errors import DimensionMismatch, NoSolutions
from starkit.exact import GOLDEN, SQRT2, SQRT3
from starkit.transference import (TransferParams, _enumerate_product_box,
                                  system_ii_values)

# ---------------------------------------------------------------------------
# Elementary pieces
# ---------------------------------------------------------------------------


def test_nearest_signed_distance_examples():
    assert sk.nearest_signed_distance(1.75) == -0.25
    assert sk.nearest_signed_distance(0.5) == -0.5
    assert sk.nearest_signed_distance(-0.2) == pytest.approx(-0.2, abs=1e-15)
    assert sk.nearest_signed_distance(3.0) == 0.0


@given(st.floats(-1e6, 1e6))
def test_nearest_signed_distance_window(x):
    v = sk.nearest_signed_distance(x)
    assert -0.5 <= v < 0.5


def test_f_plus_examples():
    assert sk.f_plus((3, -5)) == pytest.approx(math.sqrt(15), abs=1e-12)
    assert sk.f_plus((0, 7)) == pytest.approx(math.sqrt(7), abs=1e-12)
    assert sk.f_plus((0, 0)) == 1.0


# ---------------------------------------------------------------------------
# find_nu
# ---------------------------------------------------------------------------


def test_find_nu_example():
    nu = sk.find_nu((0.2, 0.3), 0.3)
    assert nu.nu[0] == pytest.approx(1.5)
    assert nu.nu[1] == pytest.approx(2 / 3)
    assert nu.nu[1] * 0.3 <= 0.3 + 1e-12


def test_find_nu_none_when_above():
    assert sk.find_nu((0.5, 0.5), 0.3) is None


def test_find_nu_zero_coordinate():
    nu = sk.find_nu((0.0, 0.9), 0.2)
    assert math.prod(nu.nu) == pytest.approx(1.0, abs=1e-12)
    assert nu.nu[1] * 0.9 <= 0.2 + 1e-12


def test_find_nu_all_zero():
    nu = sk.find_nu((0.0, 0.0), 0.1)
    assert math.prod(nu.nu) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=300)
@given(st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)),
       st.floats(0.01, 2.0))
def test_find_nu_iff_property(x, lam):
    n = len(x)
    gm = math.prod(abs(v) for v in x) ** (1 / n)
    nu = sk.find_nu(x, lam)
    if gm <= lam:
        assert nu is not None
        assert math.prod(nu.nu) == pytest.approx(1.0, rel=1e-12)
        assert max(v * abs(xi) for v, xi in zip(nu.nu, x)) \
            <= lam * (1 + 1e-10)
    else:
        assert nu is None


@settings(max_examples=200)
@given(st.floats(0.05, 3.0), st.floats(-2, 2), st.floats(-2, 2),
       st.floats(0.05, 2.0))
def test_box_implies_gm(nu1, x1, x2, lam):
    # converse by AM-GM: H_nu(x) <= lam with prod nu = 1 forces F(x) <= lam
    nu = (nu1, 1.0 / nu1)
    if max(nu[0] * abs(x1), nu[1] * abs(x2)) <= lam:
        gm = math.sqrt(abs(x1) * abs(x2))
        assert gm <= lam * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


def _rand_params(rng, n=2):
    return TransferParams(lam=float(rng.uniform(0.1, 3.0)),
                          mu=float(rng.uniform(0.1, 3.0)), n=n)


def _rand_nu(rng, n=2):
    parts = rng.uniform(0.2, 4.0, size=n - 1)
    vals = list(parts) + [1.0 / np.prod(parts)]
    return sk.NuVector(tuple(vals))


def test_matrix_first_column():
    params = TransferParams(lam=0.5, mu=2.0, n=2)
    nu = sk.NuVector((2.0, 0.5))
    a = sk.build_matrices("A", (0.3, 0.7), params, nu)
    assert np.allclose(a.entries[:, 0], [0.6, 1.4, 2.0])


def test_matrix_determinants():
    rng = np.random.default_rng(1)
    for _ in range(50):
        params = _rand_params(rng)
        nu = _rand_nu(rng)
        x = tuple(rng.normal(size=2))
        a = sk.build_matrices("A", x, params, nu).entries
        astar = sk.build_matrices("Astar", x, params, nu).entries
        assert abs(np.linalg.det(a)) == pytest.approx(
            params.lam ** -1 * params.mu ** -2, rel=1e-9)
        assert abs(np.linalg.det(astar)) == pytest.approx(
            params.lam * params.mu ** 2, rel=1e-9)


def test_phi_integrality():
    rng = np.random.default_rng(2)
    for _ in range(2000):
        params = _rand_params(rng)
        nu = _rand_nu(rng)
        x = tuple(rng.normal(size=2))
        a = sk.build_matrices("A", x, params, nu)
        astar = sk.build_matrices("Astar", x, params, nu)
        at = tuple(int(v) for v in rng.integers(-50, 51, size=3))
        bt = tuple(int(v) for v in rng.integers(-50, 51, size=3))
        target = sk.phi_target(at, bt)
        assert abs(sk.phi_form(at, bt, a, astar) - target) <= 1e-8
        assert isinstance(target, int)


def test_phi_example():
    params = TransferParams(lam=0.7, mu=1.3, n=2)
    nu = sk.NuVector((2.0, 0.5))
    a = sk.build_matrices("A", (0.11, 0.93), params, nu)
    astar = sk.build_matrices("Astar", (0.11, 0.93), params, nu)
    assert sk.phi_form((1, 2, 3), (4, 5, 6), a, astar) == pytest.approx(29.0, abs=1e-10)


def test_union_jack_matrices_shape_and_factors():
    params = TransferParams(lam=0.5, mu=2.0, n=2)
    nu = sk.NuVector((1.5, 1 / 1.5))
    nup = sk.NuVector((0.8, 1.25))
    for kind in ("Atilde", "AtildePrime", "AtildeTilde", "AtildeTildePrime"):
        m = sk.build_matrices(kind, (0.3, 0.4), params, nu, nu_prime=nup)
        assert m.entries.shape == (3, 3)
    ap = sk.build_matrices("AtildePrime", (0.3, 0.4), params, nu, nu_prime=nup)
    c = math.sqrt(2) / 2
    assert ap.entries[0, 1] == pytest.approx(c * 0.8 / 2.0)
    assert ap.entries[1, 0] == pytest.approx(-0.4 / 0.5)
    with pytest.raises(DimensionMismatch):
        sk.build_matrices("AtildePrime", (0.3, 0.4), params, nu)


def test_encoding_soundness():
    # q solves system (i) with witness nu  <=>  |q~ A|_inf <= 1
    rng = np.random.default_rng(3)
    for _ in range(300):
        params = _rand_params(rng)
        x = tuple(rng.uniform(0, 1, size=2))
        q = rng.integers(-6, 7, size=2)
        if not q.any():
            continue
        dot = float(q @ np.asarray(x))
        p = -round(dot)
        qt = (int(q[0]), int(q[1]), p)
        inner_ok = abs(sk.nearest_signed_distance(dot)) <= params.lam
        nu = sk.find_nu([max(abs(int(v)), 1) for v in q], params.mu)
        if inner_ok and nu is not None:
            a = sk.build_matrices("A", x, params, nu)
            row = np.asarray(qt, dtype=float) @ a.entries
            assert np.max(np.abs(row)) <= 1 + 1e-10
        a_nu = _rand_nu(rng)
        a = sk.build_matrices("A", x, params, a_nu)
        row = np.asarray(qt, dtype=float) @ a.entries
        if np.max(np.abs(row)) <= 1 + 1e-10:
            assert abs(sk.nearest_signed_distance(dot)) <= params.lam * (1 + 1e-9)
            # with prod(nu) = 1 the box gives the pure product bound
            # (zero coordinates contribute |q_i|, not max(|q_i|, 1))
            assert np.prod(np.abs(q).astype(float)) \
                <= params.mu ** 2 * (1 + 1e-9)


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------


def test_enumerate_product_box_canonical():
    q = _enumerate_product_box(2, 4.0, 100)
    assert all(tuple(r) != (0, 0) for r in q)
    as_set = {tuple(r) for r in q}
    assert len(as_set) == len(q)
    for r in as_set:
        assert (-r[0], -r[1]) not in as_set
    assert (1, 0) in as_set and (0, 1) in as_set and (2, -2) in as_set


def test_enumerate_product_box_matches_brute_force():
    for n, cap, q_bound in [(0, 7.5, 100), (1, 7.5, 100), (1, 7.5, 3),
                            (2, 12.0, 100), (2, 12.0, 4), (3, 9.0, 100),
                            (3, 9.0, 2), (4, 6.0, 100), (2, 0.5, 100),
                            (3, 0.5, 100)]:
        top = min(q_bound, math.floor(cap))
        want = [r for r in itertools.product(range(-top, top + 1), repeat=n)
                if math.prod(max(abs(v), 1) for v in r) <= cap
                and any(r) and next(v for v in r if v) > 0]
        q = _enumerate_product_box(n, cap, q_bound)
        assert q.shape == (len(want), n) and q.dtype == np.int64
        assert [tuple(r) for r in q.tolist()] == want, (n, cap, q_bound)


def test_system_i_empty_box():
    # mu^n < 1: no q != 0 fits the product box
    params = TransferParams(lam=0.5, mu=0.5, n=3)
    assert sk.solve_system_i((0.1, 0.2, 0.3), params, 10) == []


def test_system_i_example():
    params = TransferParams(lam=0.45, mu=1.0, n=2)
    sols = sk.solve_system_i((SQRT2, SQRT3), params, 50)
    assert (1, 0) in sols  # <sqrt2> = 0.4142 <= 0.45
    for q in sols:
        assert sk.f_plus(q) <= 1.0 + 1e-12


def test_system_i_window_bound():
    # lambda >= 1/2 admits every q in the product box
    params = TransferParams(lam=0.5, mu=2.0, n=2)
    sols = sk.solve_system_i((0.123, 0.789), params, 50)
    assert len(sols) == len(_enumerate_product_box(2, 4.0, 50))


def test_system_i_exact_rational():
    params = TransferParams(lam=1e-12, mu=6.0, n=2)
    sols = sk.solve_system_i((Fraction(1, 3), Fraction(1, 2)), params, 40)
    assert (3, 0) in sols  # <3 * 1/3> = 0 exactly
    assert (0, 2) in sols


def test_system_ii_example():
    params = TransferParams(lam=0.45, mu=1.0, n=2)
    assert params.p_bound == pytest.approx(2 * 0.45 ** -0.5)
    p = sk.solve_system_ii((SQRT2, SQRT3), params)
    assert p == 1
    assert system_ii_values((SQRT2, SQRT3), 1) == pytest.approx(0.3331489, abs=1e-6)


def test_system_ii_exact_half():
    # x_i = 1/2: p = 2 gives <2 * 1/2> = 0 exactly
    params = TransferParams(lam=1e-9, mu=3.0, n=2)
    p = sk.solve_system_ii((Fraction(1, 2), Fraction(1, 2)), params)
    assert p == 2
    assert system_ii_values((0.5, 0.5), 2) == 0.0


def test_system_ii_none_when_out_of_range():
    params = TransferParams(lam=1e-9, mu=0.1, n=2)
    assert sk.solve_system_ii((SQRT2, SQRT3), params) is None


# ---------------------------------------------------------------------------
# Prop-5 style equivalence
# ---------------------------------------------------------------------------


def test_prop5_witness_instance():
    params = TransferParams(lam=0.45, mu=1.0, n=2)
    rep = sk.verify_prop5((SQRT2, SQRT3), params, 50)
    assert rep.ok and rep.forward == "witness"
    assert rep.witness.q_vec == (0, 1)
    assert rep.witness.p_int == 1
    assert rep.witness.checks["gm"] <= rep.witness.checks["gm_bound"]


def test_prop5_vacuous_instance():
    params = TransferParams(lam=1e-9, mu=1.0, n=2)
    rep = sk.verify_prop5((SQRT2, SQRT3), params, 50)
    assert rep.forward == "vacuous" and rep.ok


def test_prop5_empty_box_is_vacuous():
    params = TransferParams(lam=0.5, mu=0.9, n=3)
    rep = sk.verify_prop5((SQRT2, SQRT3, GOLDEN), params, 10)
    assert rep.system_i_count == 0
    assert rep.forward == "vacuous" and rep.witness is None


def test_prop5_randomized_suite():
    rng = np.random.default_rng(4)
    bad = 0
    for _ in range(100):
        x = tuple(rng.random(2) * 0.98 + 0.01)
        params = TransferParams(lam=float(rng.uniform(0.3, 0.5)),
                                mu=float(rng.uniform(2.0, 14.0)), n=2)
        rep = sk.verify_prop5(x, params, 200)
        bad += len(rep.counterexamples)
    assert bad == 0


# ---------------------------------------------------------------------------
# Theorem harnesses
# ---------------------------------------------------------------------------


def test_multitrans_pipeline():
    rep = sk.verify_theorem_multitrans((SQRT2, SQRT3), 0.25, 40.0)
    assert rep.steps
    missing = [s for s in rep.steps[3:] if s.p is None or s.admissible_eps is None]
    assert not missing
    # mu_j sorted nondecreasing
    mus = [s.mu for s in rep.steps]
    assert mus == sorted(mus)


def _grid_eps_scan(quality, p_max, n, epsilon):
    """Largest eps' in the grid eps/2^k (k = 1..20) for which some p <= p_max
    has quality(p) <= p^(-(1+eps')/n), as the reports once scanned it."""
    ps = np.arange(1, p_max + 1, dtype=float)
    for e in [epsilon * 2.0 ** -k for k in range(1, 21)]:
        if np.any(quality[:p_max] <= ps ** (-(1.0 + e) / n)):
            return e
    return None


@pytest.mark.parametrize("flavor", ["mult", "unionjack", "height"])
def test_admissible_eps_is_the_first_grid_value(flavor):
    from starkit.starbody import union_jack
    from starkit.transference import _gm_grid, _p_distances
    x = (SQRT2, SQRT3)
    if flavor == "mult":
        rep = sk.verify_theorem_multitrans(x, 0.25, 40.0)
        grid = lambda p_max: _gm_grid(x, p_max)
    elif flavor == "unionjack":
        rep = sk.verify_theorem_unionjack(*x, 0.25, 20.0)
        grid = lambda p_max: union_jack().eval_xy(*_p_distances(x, p_max))
    else:
        rep = sk.verify_khintchine_transfer(x, 0.3, 40)
        grid = lambda p_max: np.maximum(*map(np.abs, _p_distances(x, p_max)))
    p_maxes = [int(math.floor(TransferParams(lam=s.lam, mu=s.mu, n=2).p_bound
                              + 1e-12)) for s in rep.steps]
    quality = grid(max(p_maxes))
    assert rep.steps and min(p_maxes) >= 1
    for s, p_max in zip(rep.steps, p_maxes):
        assert s.admissible_eps == _grid_eps_scan(
            quality, p_max, 2, rep.epsilon) == rep.epsilon / 2


@pytest.mark.parametrize("x, lam, mu", [
    ((Fraction(1, 7),), 0.3, 40.0),
    ((-2.5,), 0.5, 9.0),
    # lambda = 1/2 keeps every q: the equal products (1,6), (2,3), (3,2),
    # (6,1) and their sign variants tie in F_plus
    ((0.5, 0.5), 0.5, math.sqrt(6.0)),
    ((SQRT2, SQRT3), 0.2, 12.0),
    ((Fraction(2, 5), GOLDEN), 0.1, 20.0),
    ((0.1234, 0.5678), 0.5, 5.0),
    ((Fraction(1, 3), SQRT2, GOLDEN), 0.3, 5.0),
    ((0.5, 0.5, 0.5), 0.5, 12.0 ** (1 / 3)),
])
def test_system_i_ordered_by_f_plus_then_q(x, lam, mu):
    sols = sk.solve_system_i(x, TransferParams(lam=lam, mu=mu, n=len(x)),
                             10 ** 6)
    assert len(sols) > 3
    assert sols == sorted(sols, key=lambda q: (sk.f_plus(q), q))
    assert all(type(v) is int for q in sols for v in q)
    if x == (0.5, 0.5):
        ties = [q for q in sols if math.prod(max(abs(v), 1) for v in q) == 6]
        assert {(1, 6), (2, 3), (3, 2), (6, 1)} <= set(ties)


def test_multitrans_distinct_p_grows():
    small = sk.verify_theorem_multitrans((SQRT2, SQRT3), 0.25, 30.0)
    large = sk.verify_theorem_multitrans((SQRT2, SQRT3), 0.25, 300.0)
    assert large.distinct_p > small.distinct_p


def test_multitrans_no_solutions_raises():
    # any q with unit product passes the threshold, so only a degenerate
    # bound (below 1) leaves the enumeration empty
    with pytest.raises(NoSolutions):
        sk.verify_theorem_multitrans((0.5003, 0.4997), 3.0, 0.5)


@pytest.mark.parametrize("bound", [math.inf, math.nan])
def test_transfer_rejects_a_bound_without_an_end(bound):
    # an infinite height bound used to reach an int64 cast of inf and a
    # misleading NoSolutions; the multiplicative region is left out here,
    # since without the check it would enumerate a box of 10^9 per axis
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="bound"):
            sk.verify_khintchine_transfer((SQRT2, SQRT3), 0.1, bound)
        with pytest.raises(ValueError, match="bound"):
            sk.verify_theorem_unionjack(SQRT2, SQRT3, 0.25, bound)


@pytest.mark.parametrize("lam, mu", [
    (math.nan, 2.0), (0.5, math.nan), (math.inf, 2.0), (0.5, math.inf)])
def test_transfer_params_must_be_finite(lam, mu):
    with pytest.raises(ValueError):
        TransferParams(lam=lam, mu=mu, n=2)


@pytest.mark.parametrize("x, lam", [
    ([math.nan, 1.0], 0.5), ([math.inf, 1.0], 0.5), ([0.2, 0.3], math.nan),
    ([0.2, 0.3], math.inf)], ids=["x-nan", "x-inf", "lam-nan", "lam-inf"])
def test_find_nu_rejects_non_finite_input(x, lam):
    with pytest.raises(ValueError):
        sk.find_nu(x, lam)


def test_unionjack_pipeline():
    rep = sk.verify_theorem_unionjack(SQRT2, SQRT3, 0.25, 40.0)
    with_p = [s for s in rep.steps if s.p is not None]
    assert {s.branch for s in with_p} == {"axis", "rotated"}
    assert all(s.admissible_eps is not None for s in rep.steps[3:])


def test_unionjack_degenerate_diagonal_weight():
    # q1 = q2: the rotated product uses max(|q1 - q2|, 1) = 1
    from starkit.transference import _union_jack_products
    b1, b2 = _union_jack_products(np.array([[3, 3]]))
    assert b1[0] == 9.0
    assert b2[0] == pytest.approx(math.sqrt(2) / 2 * 6.0)


def test_khintchine_transfer_pipeline():
    rep = sk.verify_khintchine_transfer((SQRT2, SQRT3), 0.3, 60)
    assert rep.steps
    assert all(s.p is not None and s.admissible_eps is not None
               for s in rep.steps[3:])


def test_khintchine_transfer_golden_tracks_fibonacci():
    rep = sk.verify_khintchine_transfer((GOLDEN,), 0.2, 60)
    qs = {abs(s.q_vec[0]) for s in rep.steps}
    fib = {1, 2, 3, 5, 8, 13, 21, 34, 55}
    assert qs <= fib


def test_khintchine_transfer_empty_raises():
    with pytest.raises(NoSolutions):
        sk.verify_khintchine_transfer((0.5003, 0.4997), 2.5, 0)


# ---------------------------------------------------------------------------
# Oracles for the transference pipeline: brute force at 50 digits
# ---------------------------------------------------------------------------


def _mp_ctx():
    ctx = mpmath.mp.clone()
    ctx.dps = 50
    return ctx


def _oracle_rows(flavor, bound):
    """Every canonical q != 0 of the flavor's region with its exact size
    (an mpf), enumerated apart from the library."""
    ctx = _mp_ctx()
    rows = {}
    if flavor == "height":
        for q1 in range(0, bound + 1):
            for q2 in range(-bound, bound + 1):
                if q1 > 0 or q2 > 0:
                    rows[(q1, q2)] = ctx.mpf(max(abs(q1), abs(q2)))
        return ctx, rows
    cap = int(bound) ** 2
    for q1 in range(0, cap + 1):
        lim = cap // max(q1, 1)
        for q2 in range(-lim, lim + 1):
            if q1 > 0 or q2 > 0:
                rows[(q1, q2)] = ctx.mpf(max(q1, 1) * max(abs(q2), 1))
    if flavor == "unionjack":
        # rotated branch: (1/sqrt2) max(|s|,1) max(|d|,1) <= cap with
        # s = q1 + q2, d = q1 - q2, i.e. max(|s|,1) max(|d|,1) <= sqrt(2) cap
        top = math.isqrt(2 * cap * cap)
        for s in range(-top, top + 1):
            lim = top // max(abs(s), 1)
            for d in range(-lim, lim + 1):
                if (s - d) % 2:
                    continue
                q = ((s + d) // 2, (s - d) // 2)
                if q[0] < 0 or (q[0] == 0 and q[1] <= 0):
                    continue
                rot = ctx.mpf(max(abs(s), 1) * max(abs(d), 1)) / ctx.sqrt(2)
                rows[q] = min(rows.get(q, rot), rot)
    return ctx, rows


def _oracle_witnesses(flavor, eps, bound):
    """{q: size} with |<q.x>| <= size^(-k-eps) at 50 digits, x = (sqrt2, sqrt3)."""
    ctx, rows = _oracle_rows(flavor, bound)
    x = (ctx.sqrt(2), ctx.sqrt(3))
    k = 2 if flavor == "height" else 1
    out = {}
    for q, size in rows.items():
        v = q[0] * x[0] + q[1] * x[1]
        dist = abs(v - ctx.nint(v))
        # size >= 1 and k + eps >= 1, so dist * size > 1 rules q out
        if dist * size <= 1 and dist <= size ** (-k - ctx.mpf(eps)):
            out[q] = size
    return ctx, x, out


def _oracle_quality(flavor, ctx, x, p):
    u, v = (p * xi - ctx.nint(p * xi) for xi in x)
    if flavor == "mult":
        return ctx.sqrt(abs(u * v))
    if flavor == "unionjack":
        return ctx.sqrt(min(abs(u * v), abs(u * u - v * v) / 2))
    return max(abs(u), abs(v))


_ORACLE_CASES = [("mult", 0.25, 12), ("unionjack", 0.25, 12),
                 ("height", 0.3, 40)]


def _run_flavor(flavor, eps, bound):
    if flavor == "mult":
        return sk.verify_theorem_multitrans((SQRT2, SQRT3), eps, float(bound))
    if flavor == "unionjack":
        return sk.verify_theorem_unionjack(SQRT2, SQRT3, eps, float(bound))
    return sk.verify_khintchine_transfer((SQRT2, SQRT3), eps, bound)


@pytest.mark.parametrize("flavor,eps,bound", _ORACLE_CASES)
def test_transfer_witnesses_match_brute_force(flavor, eps, bound):
    rep = _run_flavor(flavor, eps, bound)
    ctx, x, want = _oracle_witnesses(flavor, eps, bound)
    assert rep.kind == flavor
    assert {s.q_vec for s in rep.steps} == set(want)
    assert len(rep.steps) == len(want)
    for s in rep.steps:
        mu = want[s.q_vec] if flavor == "height" else ctx.sqrt(want[s.q_vec])
        assert s.mu == pytest.approx(float(mu), rel=1e-14)
    assert [(s.mu, s.q_vec) for s in rep.steps] == \
        sorted((s.mu, s.q_vec) for s in rep.steps)


@pytest.mark.parametrize("flavor,eps,bound", [
    ("mult", 0.25, 60), ("unionjack", 0.25, 80), ("height", 0.3, 100)])
def test_transfer_p_is_least_admissible(flavor, eps, bound):
    # bounds at which the least p is not always 1
    rep = _run_flavor(flavor, eps, bound)
    ctx = _mp_ctx()
    x = (ctx.sqrt(2), ctx.sqrt(3))
    quality = {}
    found = 0
    for s in rep.steps:
        p_max = int(math.floor(2 * s.mu * s.lam ** -0.5 + 1e-12))
        target = 2 * ctx.sqrt(ctx.mpf(s.lam))
        want = None
        for p in range(1, p_max + 1):
            if p not in quality:
                quality[p] = _oracle_quality(flavor, ctx, x, p)
            if quality[p] <= target:
                want = p
                break
        assert s.p == want, (s.q_vec, s.p, want)
        if want is not None:
            found += 1
            # float64 <p x_i> is off by up to about p ulps of x_i
            assert s.quality == pytest.approx(float(quality[want]),
                                              abs=4 * want * 2.0 ** -52)
    assert found >= len(rep.steps) - 3
    assert len({s.p for s in rep.steps}) > 1


def test_unionjack_branches_match_exact_products():
    rep = sk.verify_theorem_unionjack(SQRT2, SQRT3, 0.25, 12.0)
    for s in rep.steps:
        q1, q2 = s.q_vec
        axis = max(abs(q1), 1) * max(abs(q2), 1)
        rot = max(abs(q1 + q2), 1) * max(abs(q1 - q2), 1)
        # axis <= rot / sqrt2  <=>  2 axis^2 <= rot^2
        assert s.branch == ("axis" if 2 * axis * axis <= rot * rot
                            else "rotated")
    assert {s.branch for s in rep.steps if s.p is not None} == \
        {"axis", "rotated"}


def _recording(values):
    calls = []

    def mp_quality(p):
        calls.append((p, mpmath.mp.prec))
        return values[p]
    return mp_quality, calls


def _blocked_least_p(quality, p_max, bound, mp_quality):
    blocks = transference._QualityBlocks(lambda lo, hi: quality[lo - 1:hi],
                                         len(quality))
    return blocks.least_p(p_max, bound, mp_quality)[0]


def test_least_p_band_is_decided_in_mpmath():
    bound = 0.5
    prec = transference._MP_PREC
    # float says just above the bound, mpmath says below: p = 2 is taken
    quality = np.array([0.9, bound + 5e-10, 0.1])
    mp_quality, calls = _recording({2: mpmath.mpf(bound) - mpmath.mpf(1e-12)})
    assert _blocked_least_p(quality, 3, bound, mp_quality) == 2
    assert calls == [(2, prec)]
    # float says just below the bound, mpmath says above: p = 2 is skipped
    quality = np.array([0.9, bound - 5e-10, 0.1])
    mp_quality, calls = _recording({2: mpmath.mpf(bound) + mpmath.mpf(1e-12)})
    assert _blocked_least_p(quality, 3, bound, mp_quality) == 3
    assert calls == [(2, prec)]
    # outside the band the float comparison stands; p_max cuts the range
    mp_quality, calls = _recording({})
    quality = np.array([0.9, bound - 2e-9, 0.1])
    assert _blocked_least_p(quality, 3, bound, mp_quality) == 2
    assert _blocked_least_p(quality, 1, bound, mp_quality) is None
    assert calls == []
    # above 1 the band is relative, 1e-9 |bound|: 3e-9 on either side goes
    # to mpmath, 5e-9 below is decided in float
    bound = 4.0
    quality = np.array([5.0, bound + 3e-9, bound - 3e-9, bound - 5e-9])
    above = mpmath.mpf(bound) + mpmath.mpf(1e-12)
    mp_quality, calls = _recording({2: above, 3: above})
    assert _blocked_least_p(quality, 4, bound, mp_quality) == 4
    assert calls == [(2, prec), (3, prec)]


def test_wide_band_rechecks_leave_reports_unchanged(monkeypatch):
    # with a band of 0.1 many comparisons on both sides go to mpmath; the
    # mpmath qualities must agree with the float grids, so nothing moves
    cases = [("mult", 0.25, 40), ("unionjack", 0.25, 40), ("height", 0.3, 60)]
    before = [_run_flavor(*c).to_json() for c in cases]
    counts = {}
    for name in ("_mp_gm", "_mp_union_jack", "_mp_height"):
        fn = getattr(transference, name)

        def counted(x, p, fn=fn, name=name):
            counts[name] = counts.get(name, 0) + 1
            return fn(x, p)
        monkeypatch.setattr(transference, name, counted)
    monkeypatch.setattr(transference, "_BOUNDARY", 0.1)
    after = [_run_flavor(*c).to_json() for c in cases]
    assert after == before
    assert set(counts) == {"_mp_gm", "_mp_union_jack", "_mp_height"}


# ---------------------------------------------------------------------------
# The window search and the blocked least p
# ---------------------------------------------------------------------------


def _window_xs(n):
    """n coordinates of every kind: floats of both signs and beyond 1,
    fractions, quadratic surds, and (0.5, ..., 0.5), where every |<q.x>| is
    0 or 1/2."""
    rng = np.random.default_rng(11)
    quad = sk.Quad(Fraction(1, 3), -2, 7)
    xs = {1: [(0.5,), (SQRT2,), (Fraction(-7, 3),), (quad,), (-0.75,)],
          2: [(0.5, 0.5), (SQRT2, SQRT3), (Fraction(-7, 3), GOLDEN),
              (quad, Fraction(5, 11))],
          3: [(0.5, 0.5, 0.5), (SQRT2, SQRT3, GOLDEN),
              (Fraction(-7, 3), GOLDEN, -0.75),
              (quad, Fraction(5, 11), SQRT3)]}[n]
    for _ in range(3):
        xs.append(tuple(float(v) for v in rng.uniform(-3.0, 3.0, size=n)))
    return xs


def _region_oracle(flavor, bound, n):
    """Every canonical row of the flavor's region in n coordinates with its
    size, by prefix enumeration and the region mask."""
    if flavor == "height":
        q = _enumerate_product_box(n, float(bound) ** n, q_bound=bound)
        return q, np.max(np.abs(q), axis=1).astype(float)
    cap = float(bound) ** n
    if flavor == "mult":
        q = _enumerate_product_box(n, cap, q_bound=10 ** 9)
        return q, np.prod(np.maximum(1.0, np.abs(q)), axis=1)
    # |q1| + |q2| <= sqrt2 b2, so this box holds the whole region
    top = math.ceil(math.sqrt(2.0) * cap) + 1
    q = _enumerate_product_box(2, float(top) ** 2, q_bound=top)
    size = np.minimum(*transference._union_jack_products(q))
    region = size <= cap + 1e-9
    return q[region], size[region]


def _window(flavor, x, bound, expo):
    if flavor == "height":
        return transference._height_rows(x, bound, expo)
    if flavor == "mult":
        return transference._mult_rows(x, float(bound) ** len(x), expo)
    return transference._unionjack_rows(x, float(bound) ** 2, expo)


def _kept(x, q, size, k, eps):
    mp_thresh = lambda i: mpmath.mpf(float(size[i])) ** (mpmath.mpf(-k) - eps)
    keep = transference._q_filter(x, q, size ** (-k - eps), mp_thresh)
    return {tuple(r) for r in q[keep].tolist()}


@pytest.mark.parametrize("band", [None, 0.1])
@pytest.mark.parametrize("flavor,bounds", [
    ("height", {2: (0, 1, 7, 200)}), ("mult", {2: (0.9, 1, 6.5, 40)}),
    ("unionjack", {2: (0.9, 1, 5.5, 16)}),
    ("height", {1: (0, 1, 7, 500), 3: (0, 1, 4, 20)}),
    ("mult", {1: (0.9, 1, 6.5, 500), 3: (0.9, 1, 3.5, 8)})])
def test_window_rows_match_region_oracle(flavor, bounds, band, monkeypatch):
    # bounds maps the number of coordinates to the bounds run there.  A
    # failure here is a bug in the window's width, not a width to raise;
    # the wide band puts many rows just above their thresholds
    if band is not None:
        monkeypatch.setattr(transference, "_BOUNDARY", band)
    for n, n_bounds in bounds.items():
        k = n if flavor == "height" else 1
        for bound in n_bounds[:3] if band is not None else n_bounds:
            want_q, want_size = _region_oracle(flavor, bound, n)
            region = {tuple(r) for r in want_q.tolist()}
            for x in _window_xs(n):
                for eps in (0.05, 0.25, 1.0):
                    expo = -k - eps
                    q, size = _window(flavor, x, bound, expo)
                    got = {tuple(r) for r in q.tolist()}
                    assert len(got) == len(q) and got <= region
                    vals = np.abs(sk.nearest_signed_distance(
                        transference._dot(x, want_q)))
                    near = want_q[vals <= want_size ** expo
                                  + transference._BOUNDARY]
                    assert {tuple(r) for r in near.tolist()} <= got, \
                        (flavor, bound, x, eps)
                    assert _kept(x, q, size, k, eps) == \
                        _kept(x, want_q, want_size, k, eps)


def test_height_window_checks_few_candidates():
    # the full box holds 2,002,000 rows at n = 2, bound 1000, and
    # 4,060,300 at n = 3, bound 100
    q, _ = transference._height_rows((SQRT2, SQRT3), 1000, -2.1)
    assert 40 <= len(q) <= 20_020
    q, _ = transference._height_rows((SQRT2, SQRT3, GOLDEN), 100, -3.1)
    assert len(q) <= 40_603


def test_quality_blocks_scan_in_order_and_once(monkeypatch):
    values = np.linspace(0.9, 0.5, 20)      # all above the bound 0.3
    for size in (7, 1):
        monkeypatch.setattr(transference, "_P_BLOCK", size)
        for p_star in (1, 6, 7, 8, 14, 15, 20):
            calls = []

            def grid(lo, hi):
                calls.append((lo, hi))
                return quality[lo - 1:hi].copy()
            quality = values.copy()
            quality[p_star - 1] = 0.1
            blocks = transference._QualityBlocks(grid, 20)
            assert blocks.least_p(20, 0.3, None) == (p_star, 0.1)
            assert blocks.least_p(p_star - 1, 0.3, None) == (None, None)
            # blocks in order, each once, only as far as the scans reach
            assert [lo for lo, _ in calls] == list(range(1, p_star + 1, size))
            assert calls[-1][1] == min(calls[-1][0] + size - 1, 20)
            # a value in the band goes to mpmath at its own p
            quality[p_star - 1] = 0.3 + 5e-10
            seen = []

            def mp_quality(p):
                seen.append(p)
                return mpmath.mpf(0.2)
            blocks = transference._QualityBlocks(grid, 20)
            assert blocks.least_p(20, 0.3, mp_quality) == (p_star, 0.3 + 5e-10)
            assert seen == [p_star]


def test_blocked_least_p_leaves_reports_unchanged(monkeypatch):
    x = (SQRT2, SQRT3)
    cases = [("mult", 0.25, 60), ("unionjack", 0.25, 80), ("height", 0.3, 100)]
    params = TransferParams(lam=1e-3, mu=30.0, n=2)
    before = [_run_flavor(*c).to_json() for c in cases]
    p_ii = sk.solve_system_ii(x, params)
    # at 7 p values a block, p = 7 and 1463 end a block and p = 29 opens one
    assert {7, 1463} <= {w["p"] for w in before[2]["witnesses"]}
    assert p_ii == 29
    for size in (7, 1):
        monkeypatch.setattr(transference, "_P_BLOCK", size)
        assert [_run_flavor(*c).to_json() for c in cases] == before
        assert sk.solve_system_ii(x, params) == p_ii
