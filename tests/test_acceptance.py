"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line,
plus two diagnostics that check the cause of criterion 7's failure.

Run with `pytest tests/test_acceptance.py -v -s`.  Budgets are generous on
a laptop-class machine; every tolerance is pinned here, nothing is
calibrated at runtime.
"""

import bisect
import math
import subprocess
import sys
import time
from collections import Counter

import numpy as np
import pytest

import starkit as sk
from starkit.exact import SQRT2, SQRT3
from starkit.measure import _Kernel
from starkit.sampling import binomial_stderr
from starkit.transference import TransferParams

D_MULT_01 = 4 * 0.01 * (1.0 + math.log(25.0))
COVERAGE_SAMPLES = 10_000   # criterion 7's sampled points


def report(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    return line


# ---------------------------------------------------------------------------


def test_criterion_01_homogeneity(registered_bodies):
    t0 = time.time()
    rng = np.random.default_rng(101)
    ok = True
    worst = 0.0
    for f in registered_bodies.values():
        x = rng.normal(size=(10_000, 2)) * 3.0
        t = rng.uniform(0.0, 100.0, size=10_000)
        lhs = f.eval_xy(t * x[:, 0], t * x[:, 1])
        rhs = t * f.eval_xy(x[:, 0], x[:, 1])
        dev = np.max(np.abs(lhs - rhs) / (1.0 + rhs))
        worst = max(worst, float(dev))
        ok &= bool(dev <= 1e-10)
    elapsed = time.time() - t0
    ok &= elapsed < 10.0
    line = report(1, "homogeneity suite", ok,
                  f"worst rel dev {worst:.2e}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_02_density_oracles(height, multiplicative):
    t0 = time.time()
    checks = {}
    checks["height analytic"] = sk.density(height, 0.25).value == 0.25
    dq_h = sk.density(height, 0.25, method="quadrature").value
    checks["height quadrature"] = abs(dq_h - 0.25) <= 1e-6
    da = sk.density(multiplicative, 0.1).value
    checks["mult closed form"] = abs(da - D_MULT_01) <= 1e-12
    dq = sk.density(multiplicative, 0.1, method="quadrature").value
    checks["mult quadrature"] = abs(dq - D_MULT_01) <= 1e-6
    mc_h = sk.density(height, 0.25, method="montecarlo",
                      samples=1_000_000, seed=202)
    checks["height MC"] = abs(mc_h.value - 0.25) <= 3 * max(mc_h.stderr, 1e-6)
    mc = sk.density(multiplicative, 0.1, method="montecarlo",
                    samples=1_000_000, seed=102)
    checks["mult MC"] = abs(mc.value - D_MULT_01) <= 3 * max(mc.stderr, 1e-6)
    elapsed = time.time() - t0
    checks["runtime < 60s"] = elapsed < 60.0
    ok = all(checks.values())
    line = report(2, "density oracles", ok,
                  f"quad err {abs(dq - D_MULT_01):.2e}, "
                  f"MC err {abs(mc.value - D_MULT_01):.2e} (se {mc.stderr:.1e}), "
                  f"{elapsed:.1f}s; " + ", ".join(k for k, v in checks.items() if not v))
    assert ok, line


def test_criterion_03_membership_equivalence(registered_bodies):
    t0 = time.time()
    rng = np.random.default_rng(103)
    bodies = [registered_bodies[k] for k in
              ("height", "multiplicative", "union_jack")]
    bad = 0
    for trial in range(1000):
        f = bodies[trial % 3]
        q = int(rng.integers(1, 65))
        eps = float(rng.uniform(0.05, 0.5)) / q
        x = tuple(rng.random(2))
        kern = _Kernel(f)
        vf, pf = kern.minimize(x, q, eps)
        ve, pe = kern.minimize_exhaustive(x, q, eps)
        if (vf < q * eps) != (ve < q * eps):
            bad += 1
        elif ve < q * eps and (vf != ve or pf != pe):
            bad += 1
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed < 120.0
    line = report(3, "membership oracle equivalence", ok,
                  f"{bad}/1000 mismatches, {elapsed:.1f}s")
    assert ok, line


def test_criterion_04_dichotomy_surrogate(height):
    t0 = time.time()
    blocks = [256, 512, 1024, 2048, 4096]
    conv = sk.PsiFamily.power(1.6)
    div = sk.PsiFamily.power(1.4)
    conv_vals = [sk.tail_measure(height, conv, n, samples=100_000, seed=104)
                 for n in blocks]
    div_vals = [sk.tail_measure(height, div, n, samples=100_000, seed=104)
                for n in blocks]
    checks = {}
    for (v1, e1), (v2, e2), n in zip(conv_vals, conv_vals[1:], blocks):
        checks[f"decrease {n}"] = v2 < v1 - 3 * (e1 + e2)
    for (v, e), n in zip(conv_vals, blocks):
        bound = sum(4.0 * (q * conv(q)) ** 2 for q in range(n, 2 * n + 1))
        checks[f"union bound {n}"] = v <= bound + 3 * e
    for (v, e), n in zip(div_vals, blocks):
        checks[f"divergent >= 0.5 at {n}"] = v >= 0.5
    elapsed = time.time() - t0
    checks["runtime < 600s"] = elapsed < 600.0
    ok = all(checks.values())
    line = report(4, "Khintchine dichotomy surrogate", ok,
                  f"tau=1.6: {[round(v, 4) for v, _ in conv_vals]}, "
                  f"tau=1.4: {[round(v, 4) for v, _ in div_vals]}, "
                  f"{elapsed:.0f}s; " + ", ".join(k for k, v in checks.items() if not v))
    assert ok, line


def test_criterion_05_multiplicative_breaking_point(multiplicative):
    t0 = time.time()
    _, v1 = sk.series_partial_sums(multiplicative,
                                   sk.PsiFamily.powerlog(1.5, 1.2), 50)
    _, v2 = sk.series_partial_sums(multiplicative,
                                   sk.PsiFamily.powerlog(1.5, 0.8), 50)
    elapsed = time.time() - t0
    ok = v1 == "convergent" and v2 == "divergent" and elapsed < 10.0
    line = report(5, "multiplicative breaking point", ok,
                  f"sigma=1.2 -> {v1}, sigma=0.8 -> {v2}, {elapsed:.1f}s")
    assert ok, line


def _gap_stats_all_n(alpha_inv, n_max, merge_tol=1e-9):
    """(max distinct gap count over all N, worst |sum - 1|) by reverse deletion.

    The live gaps are kept as multiplicities (`live`) and as the sorted list
    of their distinct values (`keys`); `breaks` counts the adjacent values
    more than merge_tol apart, so the merged distinct count is breaks + 1.
    A value that appears or disappears changes only its neighbours' pairs.
    """
    ks = np.arange(1, n_max + 1, dtype=float)
    pts = np.mod(ks * alpha_inv, 1.0)
    order = np.argsort(pts)
    sorted_pts = pts[order]
    nxt = np.roll(np.arange(n_max), -1)
    prv = np.roll(np.arange(n_max), 1)
    gap = np.diff(sorted_pts, append=sorted_pts[0] + 1.0)
    pos_of = np.empty(n_max, dtype=int)
    pos_of[order] = np.arange(n_max)
    live = Counter(gap.tolist())
    keys = sorted(live)
    total = math.fsum(gap.tolist())
    worst_sum = abs(total - 1.0)

    def apart(a, b):
        return int(a is not None and b is not None and b - a > merge_tol)

    def toggle(g, sign):
        """Insert (sign = 1) or delete (sign = -1) the distinct value g."""
        nonlocal breaks
        j = bisect.bisect_left(keys, g)
        if sign < 0:
            del keys[j]
        lo = keys[j - 1] if j > 0 else None
        hi = keys[j] if j < len(keys) else None
        breaks += sign * (apart(lo, g) + apart(g, hi) - apart(lo, hi))
        if sign > 0:
            keys.insert(j, g)

    breaks = sum(apart(a, b) for a, b in zip(keys, keys[1:]))
    worst_count = breaks + 1
    for k in range(n_max, 1, -1):
        i = pos_of[k - 1]
        a, b = prv[i], nxt[i]
        g1, g2 = gap[a], gap[i]
        merged = g1 + g2
        total += (merged - g1) - g2
        for g in (g1, g2):
            live[g] -= 1
            if live[g] <= 0:
                del live[g]
                toggle(g, -1)
        live[merged] += 1
        if live[merged] == 1:
            toggle(merged, 1)
        gap[a] = merged
        nxt[a], prv[b] = b, a
        worst_count = max(worst_count, breaks + 1)
        worst_sum = max(worst_sum, abs(total - 1.0))
    return worst_count, worst_sum


def test_criterion_06_three_distance_ubiquity():
    t0 = time.time()
    rng = np.random.default_rng(106)
    worst_count, worst_sum = 0, 0.0
    for _ in range(100):
        a = float(rng.random())
        c, s = _gap_stats_all_n(a, 10_000)
        worst_count = max(worst_count, c)
        worst_sum = max(worst_sum, s)
    # direct spot checks of the gap sums (independent of the incremental path)
    for _ in range(10):
        a = float(rng.random())
        for n in (1, 17, 300, 9999):
            part = sk.three_distance_partition(a, float(rng.random()), n)
            worst_sum = max(worst_sum, abs(math.fsum(part.gaps) - 1.0))
            worst_count = max(worst_count, len(part.distinct_gaps))
    cover_ok = True
    for a in (float(rng.random()), math.sqrt(2) - 1, 0.51):
        ns = sk.ubiquity_sequence(a, 10_000)
        step = max(1, len(ns) // 50)
        for n in ns[::step]:
            cover_ok &= sk.covering_check(a, 0.0, n, 3.0 / (n + 1))
    elapsed = time.time() - t0
    ok = worst_count <= 3 and worst_sum <= 1e-12 and cover_ok and elapsed < 300.0
    line = report(6, "three distances and ubiquity", ok,
                  f"max distinct {worst_count}, worst sum dev {worst_sum:.1e}, "
                  f"covering {'ok' if cover_ok else 'BROKEN'}, {elapsed:.0f}s")
    assert ok, line


@pytest.fixture(scope="module")
def irrational_line_coverage(irrational_cusp):
    """Criterion 7's experiment along the slope-sqrt2 skeleton line of the
    cusp, built once for both tests that read it: the coverage stages at
    N = 1e3 and 1e6 (seed 107), the partial sums S_N = sum_{n <= N}
    |Itilde_n| of the experiment's interval system keyed by N, the seconds
    the build took, and the interval system."""
    t0 = time.time()
    line = [h for h in sk.extract_skeleton(irrational_cusp).lines
            if not h.rational and h.slope_value > 0][0]
    stages = [1000, 1_000_000]
    system = sk.interval_system(irrational_cusp, line, 0.2, 0.5, max(stages))
    cov = sk.coverage_experiment(system, stages, samples=COVERAGE_SAMPLES,
                                 seed=107, k_hits=3)
    return (cov, {stage.n: stage.union_bound for stage in cov},
            time.time() - t0, system)


def test_criterion_07_irrational_line_coverage(irrational_line_coverage):
    # Faithful to the stated thresholds.  The interval lengths are harmonic
    # (|Itilde_n| ~ K eps^2 / n), so the N=1e6 partial sum is ~2x the N=1e3
    # value, the union of the intervals has total length S_N ~0.45, and no
    # covering fraction near 0.99 is reachable.  The detail line reports S_N
    # and the test below checks the measured coverage against it.  The
    # runtime counts the build of the shared fixture.
    t0 = time.time()
    cov, sums, build_s, _ = irrational_line_coverage
    frac1 = cov[-1].fraction_hit_once
    frack = cov[-1].fraction_hit_k
    growth = sums[1_000_000] / sums[1000]
    union = sums[1_000_000]
    elapsed = build_s + time.time() - t0
    checks = {
        "hit-once >= 0.99": frac1 >= 0.99,
        "hit-3 >= 0.95": frack >= 0.95,
        "sum growth >= 5x": growth >= 5.0,
        "runtime < 600s": elapsed < 600.0,
    }
    ok = all(checks.values())
    line_txt = report(7, "irrational-line coverage", ok,
                      f"hit-once {frac1:.4f} (need 0.99), hit-3 {frack:.4f} "
                      f"(need 0.95), sum growth {growth:.2f}x (need 5x), "
                      f"union bound S_N {union:.4f}, "
                      f"Poisson 1-exp(-S_N) {1.0 - math.exp(-union):.4f}, "
                      f"{elapsed:.0f}s")
    assert ok, line_txt


def test_irrational_line_coverage_bounds(irrational_line_coverage):
    """Criterion 7's hit-once fraction lies where the interval lengths put it.

    At each stage N the covered measure is at most the union bound S_N, and
    the independence (Poisson) prediction 1 - exp(-S_N) sits below it; the
    well-spread centres x_n overlap less than independent ones would.  Both
    bounds come from the lengths |Itilde_n|, widened by 3 standard errors of
    the sampled fraction.
    """
    cov, sums, _, _ = irrational_line_coverage
    for stage in cov:
        s_n = sums[stage.n]
        lo = 1.0 - math.exp(-s_n) - 3 * stage.stderr
        hi = s_n + 3 * stage.stderr
        assert lo <= stage.fraction_hit_once <= hi, (
            f"N={stage.n}: hit-once {stage.fraction_hit_once:.4f} outside "
            f"[{lo:.4f}, {hi:.4f}] (S_N {s_n:.4f}, stderr {stage.stderr:.4f})")


def _exact_coverage(system, stage, k):
    """Exact measure of the points of [0, 1) in at least one, and in at
    least k, of the intervals Itilde_n = [x_n - sigma_n, x_n + sigma_n]
    with n <= stage, wrapped mod 1: one sweep over the endpoints of the
    wrapped pieces, opens before closes at ties."""
    lo = system.x_n[:stage] - system.sigma_n[:stage]
    hi = system.x_n[:stage] + system.sigma_n[:stage]
    starts = np.concatenate([np.maximum(lo, 0.0), lo[lo < 0.0] + 1.0,
                             np.zeros(np.count_nonzero(hi > 1.0))])
    ends = np.concatenate([np.minimum(hi, 1.0),
                           np.ones(np.count_nonzero(lo < 0.0)),
                           hi[hi > 1.0] - 1.0])
    pos = np.concatenate([starts, ends])
    step = np.concatenate([np.ones(len(starts)), -np.ones(len(ends))])
    order = np.lexsort((-step, pos))
    depth = np.cumsum(step[order])[:-1]     # depth on each gap
    gaps = np.diff(pos[order])
    return float(gaps[depth >= 1].sum()), float(gaps[depth >= k].sum())


def test_irrational_line_coverage_matches_exact_measure(
        irrational_line_coverage):
    """Criterion 7's sampled hit-once and hit-3 fractions lie within 3
    binomial standard errors of the exact covered measures, and the exact
    hit-once measure is at most the union bound S_N.

    The exact hit-once measure is what the limsup argument along H is
    about; it stays far below 0.99 at both stages (0.2158 and 0.3896).
    """
    cov, sums, _, system = irrational_line_coverage
    for stage in cov:
        once, k_hit = _exact_coverage(system, stage.n, 3)
        assert once <= sums[stage.n], (stage.n, once, sums[stage.n])
        for name, sampled, exact in (
                ("hit-once", stage.fraction_hit_once, once),
                ("hit-3", stage.fraction_hit_k, k_hit)):
            err = binomial_stderr(exact, COVERAGE_SAMPLES)
            assert abs(sampled - exact) <= 3 * err, (
                f"N={stage.n}: {name} sampled {sampled:.4f}, exact "
                f"{exact:.5f}, stderr {err:.5f}")


def test_criterion_08_transference():
    t0 = time.time()
    checks = {}
    # Phi integrality, 1e4 cases
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(10_000):
        params = TransferParams(lam=float(rng.uniform(0.1, 3.0)),
                                mu=float(rng.uniform(0.1, 3.0)), n=2)
        parts = rng.uniform(0.2, 4.0)
        nu = sk.NuVector((float(parts), float(1.0 / parts)))
        x = tuple(rng.normal(size=2))
        a = sk.build_matrices("A", x, params, nu)
        astar = sk.build_matrices("Astar", x, params, nu)
        at = tuple(int(v) for v in rng.integers(-40, 41, size=3))
        bt = tuple(int(v) for v in rng.integers(-40, 41, size=3))
        worst = max(worst, abs(sk.phi_form(at, bt, a, astar)
                               - sk.phi_target(at, bt)))
    checks["phi integrality <= 1e-8"] = worst <= 1e-8
    # prop5 randomized suite
    bad = 0
    for _ in range(100):
        x = tuple(rng.random(2) * 0.98 + 0.01)
        params = TransferParams(lam=float(rng.uniform(0.3, 0.5)),
                                mu=float(rng.uniform(2.0, 14.0)), n=2)
        bad += len(sk.verify_prop5(x, params, 200).counterexamples)
    checks["prop5 zero counterexamples"] = bad == 0
    # multiplicative transference harness
    rep = sk.verify_theorem_multitrans((SQRT2, SQRT3), 0.25, 300.0)
    misses = [j for j, s in enumerate(rep.steps)
              if s.p is None or s.admissible_eps is None or s.admissible_eps <= 0]
    checks["multitrans witnesses"] = all(j < 3 for j in misses)
    # union jack: witnesses on both branches
    uj = sk.verify_theorem_unionjack(SQRT2, SQRT3, 0.25, 40.0)
    branches = {s.branch for s in uj.steps if s.p is not None}
    checks["unionjack both branches"] = branches == {"axis", "rotated"}
    elapsed = time.time() - t0
    checks["runtime < 600s"] = elapsed < 600.0
    ok = all(checks.values())
    line = report(8, "transference", ok,
                  f"phi worst {worst:.1e}, prop5 bad {bad}, "
                  f"multitrans misses {misses[:5]}, branches {sorted(branches)}, "
                  f"{elapsed:.0f}s; " + ", ".join(k for k, v in checks.items() if not v))
    assert ok, line


def test_criterion_09_euler_phi():
    t0 = time.time()
    lhs, rhs, ratio = sk.euler_phi_sum_check(lambda q: 1.0 / q, 100_000)
    elapsed = time.time() - t0
    ok = ratio >= 0.3 and elapsed < 5.0
    line = report(9, "Euler-phi lemma surrogate", ok,
                  f"ratio {ratio:.4f}, {elapsed:.2f}s")
    assert ok, line


def test_criterion_10_cli_determinism(tmp_path, cli_env):
    t0 = time.time()
    height_dsl = "max(abs(1,0),abs(0,1))"
    args_sets = [
        ["tail", "--f", height_dsl, "--psi", "pow:1.5", "--N", "64",
         "--samples", "20000", "--seed", "42"],
        ["density", "--f", "gm(abs(1,0),abs(0,1))", "--eps", "0.1",
         "--method", "montecarlo", "--samples", "20000", "--seed", "7"],
        ["transfer", "mult", "--x", "sqrt2,sqrt3", "--eps", "0.25",
         "--bound", "50", "--seed", "1"],
    ]
    ok = True
    crashes = []
    for i, args in enumerate(args_sets):
        outs = []
        for run, threads in ((0, "1"), (1, "1"), (2, "4")):
            out = tmp_path / f"c{i}r{run}"
            env = dict(cli_env, STARKIT_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "starkit.cli", "--out", str(out)] + args,
                capture_output=True, env=env)
            if proc.returncode != 0:
                crashes.append(f"{args[0]} run {run} exit {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace').strip()}")
                continue
            blobs = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            outs.append(blobs)
        ok &= len(outs) == 3 and outs[0] == outs[1] == outs[2]
    elapsed = time.time() - t0
    line = report(10, "CLI determinism", ok,
                  "; ".join([f"{elapsed:.0f}s"] + crashes))
    assert ok, line
