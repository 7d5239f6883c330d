"""Independent checks of the workloads' outputs.

Nothing here imports ``starkit``.  Every expected value is recomputed from
its definition: closed forms, brute-force recounts over the documented
sample stream, direct enumerations, and 100-digit ``mpmath`` evaluations
with sqrt2 and sqrt3 exact.  No stored copy of an earlier output is used.

Each ``check_*`` function takes the parsed output of one command and
returns a list of failure messages; an empty list means the output passed.
A message that starts with ``MALFORMED`` reports an artifact that is not
in its documented format although its values were checked and are right;
any other message reports a wrong or missing result.  ``check_round``
reads one round's output directories and returns the failures per command.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import mpmath
import numpy as np

import workloads as W

CHUNK = 4096          # points per Philox chunk in starkit's sample stream
DIGITS = 100          # working precision of the high-precision rechecks
REL = 1e-7            # relative tolerance of the interval closed forms
QUAD_TOL = 1e-6       # absolute tolerance of the quadrature density
SEARCH_TOL = 1e-9     # relative tolerance of recomputed search values
WINDOW_SAMPLES = 16   # sampled q > 64 for the search window check
GAP_SAMPLES = 40      # sampled N for the ubiquity check
AMBIGUOUS = 1e-9      # float comparisons closer than this go to mpmath
MALFORMED = "MALFORMED: "

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# Reading outputs
# ---------------------------------------------------------------------------


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _binomial_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------


def multiplicative_density(eps: float) -> float:
    """Periodized density of sqrt|x1 x2| < eps per unit square: with c = eps^2,
    4c(1 + log(1/(4c))) until the strips merge at c = 1/4.  A unimodular
    shear maps Z^2 onto itself, so the sheared body has the same value."""
    c = eps * eps
    return 1.0 if c >= 0.25 else 4.0 * c * (1.0 + math.log(1.0 / (4.0 * c)))


def check_density_quadrature(rows, eps: float) -> list[str]:
    if len(rows) != 1:
        return [f"expected one density row, got {len(rows)}"]
    r = rows[0]
    fails = []
    raw = r["value"]
    try:
        value = float(raw)
    except ValueError:
        # numpy >= 2 prints a float64 scalar as "np.float64(x)"; read x so
        # the value is still checked, and report the field itself
        m = re.fullmatch(r"np\.float64\((.*)\)", raw)
        if m is None:
            raise
        value = float(m.group(1))
        fails.append(f"{MALFORMED}density.csv value field {raw!r} is not a "
                     f"plain number")
    want = multiplicative_density(eps)
    if r["method"] != "quadrature" or float(r["epsilon"]) != eps:
        fails.append(f"row is {r['method']} at eps {r['epsilon']}")
    if not abs(value - want) <= QUAD_TOL:
        fails.append(f"quadrature density {value!r} is {value - want:.3g} "
                     f"from the closed form {want!r}")
    return fails


def check_density_montecarlo(rows, eps: float, samples: int) -> list[str]:
    if len(rows) != 1:
        return [f"expected one density row, got {len(rows)}"]
    value, se = float(rows[0]["value"]), float(rows[0]["stderr"])
    want = multiplicative_density(eps)
    fails = []
    if not _close(se, _binomial_se(value, samples), 1e-9):
        fails.append(f"stderr {se!r} is not the binomial error of {value!r}")
    if not abs(value - want) <= 4.0 * se:
        fails.append(f"Monte Carlo density {value!r} is more than 4 stderr "
                     f"({se:.3g}) from the closed form {want!r}")
    return fails


# ---------------------------------------------------------------------------
# Tail measures
# ---------------------------------------------------------------------------


def sample_chunk(seed: int, c: int, size: int, dim: int = 2) -> np.ndarray:
    """Chunk c of the documented stream: Philox keyed by (seed, chunk index)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, c], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random((size, dim))


def tail_hit_count(seed: int, samples: int, n_block: int, tau: float) -> int:
    """Brute-force count of sampled x hit by some q in [N, 2N] for the height
    body: x in B_q iff max_i ||q x_i|| < q psi(q), psi(q) = q^-tau."""
    qs = np.arange(n_block, 2 * n_block + 1, dtype=float)
    thr = qs * qs ** (-tau)
    total = 0
    for c in range(math.ceil(samples / CHUNK)):
        x = sample_chunk(seed, c, min(CHUNK, samples - c * CHUNK))
        hit = np.zeros(len(x), dtype=bool)
        for lo in range(0, len(qs), 128):
            y = x[:, None, :] * qs[None, lo:lo + 128, None]
            dist = np.abs(y - np.round(y)).max(axis=2)
            hit |= (dist < thr[None, lo:lo + 128]).any(axis=1)
        total += int(np.count_nonzero(hit))
    return total


def tail_union_bound(n_block: int, tau: float) -> float:
    """sum over q in [N, 2N] of |B_q| = (2 q psi(q))^2 for the height body."""
    qs = np.arange(n_block, 2 * n_block + 1, dtype=float)
    return float(np.sum(4.0 * (qs * qs ** (-tau)) ** 2))


def _tail_row(rows, n_block, samples, seed):
    if len(rows) != 1:
        return None, [f"expected one tail row, got {len(rows)}"]
    r = rows[0]
    if (int(r["N"]), int(r["samples"]), int(r["seed"])) != (n_block, samples, seed):
        return None, [f"row is for N={r['N']} samples={r['samples']} "
                      f"seed={r['seed']}"]
    return r, []


def check_tail_convergent(rows, seed, samples, n_block, tau,
                          expected_hits=None) -> list[str]:
    r, fails = _tail_row(rows, n_block, samples, seed)
    if r is None:
        return fails
    value, se = float(r["tail_measure"]), float(r["stderr"])
    if expected_hits is None:
        expected_hits = tail_hit_count(seed, samples, n_block, tau)
    if not abs(value * samples - expected_hits) < 1e-6:
        fails.append(f"tail measure {value!r} is {value * samples:.6f} hits of "
                     f"{samples}; the brute-force recount gives {expected_hits}")
    if not _close(se, _binomial_se(value, samples), 1e-9):
        fails.append(f"stderr {se!r} is not the binomial error of {value!r}")
    bound = tail_union_bound(n_block, tau)
    if not value <= bound + 3.0 * se:
        fails.append(f"tail measure {value!r} exceeds the union bound "
                     f"{bound:.6g} + 3 stderr")
    return fails


def check_tail_divergent(rows, seed, samples, n_block) -> list[str]:
    r, fails = _tail_row(rows, n_block, samples, seed)
    if r is None:
        return fails
    value = float(r["tail_measure"])
    if not value >= 0.5:
        fails.append(f"divergent tail measure {value!r} is below 0.5")
    return fails


# ---------------------------------------------------------------------------
# Interval system and coverage along the slope-sqrt2 line of the cusp body
# ---------------------------------------------------------------------------


def cusp_intervals(eps: float, y0: float, n_max: int) -> dict:
    """Closed forms for gm(|x2 - sqrt2 x1|, |x1|) along its skeleton line.

    At arc r along u = (1, sqrt2)/sqrt3, F^2 = |t| |r - sqrt2 t| across the
    line and sqrt2 |tau| |r/sqrt3 + tau| along the horizontal, which gives
    w+, w- and the horizontal half-extents as roots of quadratics.
    """
    n = np.arange(1, n_max + 1, dtype=float)
    alpha = SQRT2
    e2 = eps * eps
    r = (y0 + n) * math.sqrt(1.0 + 1.0 / (alpha * alpha))
    x0 = (y0 / alpha) % 1.0
    x = np.mod(x0 + n / alpha, 1.0)
    w_plus = 2 * e2 / (r + np.sqrt(r * r - 4 * SQRT2 * e2))
    w_minus = 2 * e2 / (r + np.sqrt(r * r + 4 * SQRT2 * e2))
    a, b = r / SQRT3, e2 / SQRT2
    right = 2 * b / (a + np.sqrt(a * a + 4 * b))
    left = 2 * b / (a + np.sqrt(a * a - 4 * b))
    w = np.minimum(w_plus, w_minus)
    k = 0.5
    while not np.all((k * w <= left) & (k * w <= right)):
        k *= 0.5
    sigma = k * w
    return {"n": n, "x_n": x, "r_n": r, "K": k, "sigma_n": sigma,
            "len_In": left + right, "len_Itilde_n": 2 * sigma}


def check_intervals(rows, eps: float, y0: float, n_max: int) -> list[str]:
    want = cusp_intervals(eps, y0, n_max)
    if len(rows) != n_max:
        return [f"expected {n_max} interval rows, got {len(rows)}"]
    got = {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}
    fails = []
    if not np.array_equal(got["n"], want["n"]):
        fails.append("interval indices are not 1..n")
    dx = np.abs(got["x_n"] - want["x_n"])
    dx = np.minimum(dx, 1.0 - dx)            # x_n lives on the circle
    if dx.max() > REL:
        fails.append(f"x_n off by up to {dx.max():.3g}")
    for k in ("r_n", "sigma_n", "len_In", "len_Itilde_n"):
        err = np.max(np.abs(got[k] / want[k] - 1.0))
        if not err <= REL:
            i = int(np.argmax(np.abs(got[k] / want[k] - 1.0)))
            fails.append(f"{k} off the closed form by {err:.3g} relative "
                         f"(n={i + 1}: {got[k][i]!r} vs {want[k][i]!r})")
    return fails


def check_coverage(rows, eps, y0, stages, samples) -> list[str]:
    if [int(r["N"]) for r in rows] != list(stages):
        return [f"coverage stages {[r['N'] for r in rows]} != {list(stages)}"]
    csum = np.cumsum(cusp_intervals(eps, y0, max(stages))["len_Itilde_n"])
    fails = []
    prev = 0.0
    for r in rows:
        n, f1 = int(r["N"]), float(r["fraction_hit_once"])
        fk, se = float(r["fraction_hit_k"]), float(r["stderr"])
        s_n = float(csum[n - 1])
        lo, hi = 1.0 - math.exp(-s_n) - 3 * se, s_n + 3 * se
        if not lo <= f1 <= hi:
            fails.append(f"N={n}: hit-once fraction {f1!r} outside "
                         f"[{lo:.6g}, {hi:.6g}] from S_N = {s_n:.6g}")
        if f1 < prev:
            fails.append(f"N={n}: hit-once fraction {f1!r} decreased")
        if not 0.0 <= fk <= f1:
            fails.append(f"N={n}: hit-k fraction {fk!r} not in [0, {f1!r}]")
        if not _close(se, _binomial_se(f1, samples), 1e-9):
            fails.append(f"N={n}: stderr {se!r} is not the binomial error")
        prev = f1
    return fails


def max_gap(alpha_inv: float, n: int) -> float:
    """Largest circular gap of {k alpha_inv}, k = 1..N, by sorting."""
    pts = np.sort(np.mod(np.arange(1, n + 1, dtype=float) * alpha_inv, 1.0))
    return float(np.max(np.diff(pts, append=pts[0] + 1.0)))


def check_ubiquity(obj, n_max: int, seed: int) -> list[str]:
    ns = obj.get("N_r", [])
    if obj.get("Nmax") != n_max or not ns:
        return [f"ubiquity output is for Nmax={obj.get('Nmax')} "
                f"with {len(ns)} entries"]
    fails = []
    if any(b <= a for a, b in zip(ns, ns[1:])) or ns[0] < 1 or ns[-1] > n_max:
        fails.append("admissible N are not strictly increasing in [1, Nmax]")
    rng = np.random.default_rng([seed, 1])
    listed = set(ns)
    unlisted = sorted(set(range(1, n_max + 1)) - listed)
    half = GAP_SAMPLES // 2
    picks = set(rng.choice(ns, min(len(ns), half), replace=False).tolist())
    if unlisted:
        picks |= set(rng.choice(unlisted, min(len(unlisted), half),
                                replace=False).tolist())
    alpha_inv = SQRT2 - 1.0
    for n in sorted(picks):
        g, limit = max_gap(alpha_inv, n), 3.0 / (n + 1)
        if abs(g - limit) <= AMBIGUOUS * limit:
            continue                        # too close to call in float64
        if (g <= limit) != (n in listed):
            fails.append(f"N={n}: max gap {g!r} vs 3/(N+1) = {limit!r}, "
                         f"but listed={n in listed}")
    return fails


# ---------------------------------------------------------------------------
# Best approximations for the union jack
# ---------------------------------------------------------------------------


def union_jack(z1, z2):
    """min(sqrt|z1 z2|, sqrt(|z1^2 - z2^2| / 2))."""
    return np.minimum(np.sqrt(np.abs(z1 * z2)),
                      np.sqrt(np.abs((z1 - z2) * (z1 + z2)) / 2.0))


def check_search(rows, q_max: int, seed: int) -> list[str]:
    if [int(r["q"]) for r in rows] != list(range(1, q_max + 1)):
        return [f"search rows are not q = 1..{q_max}"]
    x = np.array([SQRT2 % 1.0, SQRT3 % 1.0])
    q = np.array([float(r["q"]) for r in rows])
    p = np.array([[float(r["p1"]), float(r["p2"])] for r in rows])
    val = np.array([float(r["value"]) for r in rows])
    rec = [r["record"] == "1" for r in rows]
    fails = []
    y = q[:, None] * x[None, :]
    mine = union_jack(y[:, 0] - p[:, 0], y[:, 1] - p[:, 1]) / q
    bad = np.flatnonzero(np.abs(val - mine) > SEARCH_TOL * mine + 1e-15)
    if bad.size:
        i = int(bad[0])
        fails.append(f"{bad.size} values differ from F(qx-p)/q, first q={i + 1}: "
                     f"{val[i]!r} vs {mine[i]!r}")
    running = np.minimum.accumulate(val)
    want_rec = [True] + list(val[1:] < running[:-1])
    if rec != want_rec:
        i = next(k for k, (a, b) in enumerate(zip(rec, want_rec)) if a != b)
        fails.append(f"record flag at q={i + 1} is {rec[i]}, the strict "
                     f"running minimum says {want_rec[i]}")
    rng = np.random.default_rng([seed, 2])
    for qi in sorted(rng.choice(np.arange(65, q_max + 1), WINDOW_SAMPLES,
                                replace=False).tolist()):
        yq = qi * x
        w = qi // 2 + 64
        span = np.arange(-w, w + 1, dtype=float)
        z1 = (yq[0] - np.round(yq[0]) - span)[:, None]
        z2 = (yq[1] - np.round(yq[1]) - span)[None, :]
        best = float(union_jack(z1, z2).min()) / qi
        if val[qi - 1] > best * (1.0 + SEARCH_TOL) + 1e-15:
            fails.append(f"q={qi}: value {val[qi - 1]!r} exceeds the window "
                         f"minimum {best!r}")
    return fails


# ---------------------------------------------------------------------------
# Transference
# ---------------------------------------------------------------------------


def _signed(t):
    return t - np.round(t)


def _mp_dist(q1, q2, xs=None):
    """|| q1 x + q2 y || at DIGITS digits; x, y = sqrt2, sqrt3 unless given."""
    x, y = xs if xs is not None else (mpmath.sqrt(2), mpmath.sqrt(3))
    t = q1 * x + q2 * y
    return abs(t - mpmath.nint(t))


def canonical_box(cap: float, q_bound: int) -> np.ndarray:
    """All q != 0 with first nonzero entry > 0, |q_i| <= q_bound and
    max(|q1|,1) * max(|q2|,1) <= cap."""
    top = min(q_bound, math.floor(cap))
    q1 = np.arange(0, top + 1)
    lim = np.minimum(q_bound, np.floor(cap / np.maximum(q1, 1))).astype(np.int64)
    lo = np.where(q1 == 0, 1, -lim)
    cnt = lim - lo + 1
    starts = np.repeat(lo - np.concatenate([[0], np.cumsum(cnt)[:-1]]), cnt)
    q2 = starts + np.arange(cnt.sum())
    return np.column_stack([np.repeat(q1, cnt), q2])


def _below(vals, thr, exact):
    """vals <= thr elementwise; pairs closer than AMBIGUOUS go to exact(i)."""
    keep = vals <= thr
    for i in np.flatnonzero(np.abs(vals - thr) <= AMBIGUOUS * np.maximum(thr, 1e-300)):
        keep[i] = exact(i)
    return keep


def _least_p(qual, target, p_max, exact):
    """Least p in [1, p_max] with qual[p-1] <= target (exact near the edge)."""
    if p_max < 1:
        return None
    q = qual[:p_max]
    cand = np.flatnonzero(q <= target * (1 + AMBIGUOUS))
    for i in cand:
        if q[i] <= target * (1 - AMBIGUOUS) or exact(int(i) + 1):
            return int(i) + 1
    return None


def _dist_pair(ps, x1, x2):
    return np.abs(_signed(ps * x1)), np.abs(_signed(ps * x2))


def _check_witnesses(kind, wit, want_q, stepper) -> list[str]:
    """Shared part of the three harness checks.

    want_q: the independently enumerated solutions (sorted rows);
    stepper(i, w) -> list of failures for witness i.
    """
    fails = []
    got_q = sorted(tuple(w["q"]) for w in wit)
    if len(got_q) != len(want_q):
        fails.append(f"{kind}: {len(got_q)} witnesses, the independent "
                     f"enumeration finds {len(want_q)}")
    missing = sorted(set(map(tuple, want_q.tolist())) - set(got_q))
    extra = sorted(set(got_q) - set(map(tuple, want_q.tolist())))
    if missing:
        fails.append(f"{kind}: missing solutions, e.g. {missing[:3]}")
    if extra:
        fails.append(f"{kind}: witnesses that are not solutions, e.g. {extra[:3]}")
    for i, w in enumerate(wit):
        fails.extend(stepper(i, w))
        if len(fails) > 20:
            break
    return fails


def mult_solutions(eps: float, bound: float) -> np.ndarray:
    q = canonical_box(bound ** 2, 10 ** 9)
    prods = np.maximum(1, np.abs(q)).prod(axis=1).astype(float)
    vals = np.abs(_signed(q[:, 0] * SQRT2 + q[:, 1] * SQRT3))
    thr = prods ** (-1.0 - eps)

    def exact(i):
        with mpmath.workdps(DIGITS):
            return _mp_dist(int(q[i, 0]), int(q[i, 1])) <= \
                mpmath.mpf(float(prods[i])) ** (-1 - mpmath.mpf(eps))
    return q[_below(vals, thr, exact)]


def check_transfer_mult(obj, eps: float, bound: float) -> list[str]:
    wit = obj["witnesses"]
    mus = [float(np.prod(np.maximum(1, np.abs(w["q"])))) ** 0.5 for w in wit]
    lams = [m ** (-1.0 - eps) for m in mus]
    p_top = max([math.floor(2 * m * l ** -0.5 + 1e-12) for m, l in zip(mus, lams)]
                + [1])
    ps = np.arange(1, p_top + 1, dtype=float)
    d1, d2 = _dist_pair(ps, SQRT2, SQRT3)
    gm = np.sqrt(d1 * d2)

    def step(i, w):
        q1, q2 = w["q"]
        prod = max(abs(q1), 1) * max(abs(q2), 1)
        mu = prod ** 0.5
        lam = mu ** (-1.0 - eps)
        out = []
        if not (_close(w["mu"], mu, 1e-12) and _close(w["lambda"], lam, 1e-12)):
            out.append(f"mult q={w['q']}: mu/lambda {w['mu']!r}/{w['lambda']!r} "
                       f"!= {mu!r}/{lam!r}")
        with mpmath.workdps(DIGITS):
            if not _mp_dist(q1, q2) <= mpmath.mpf(prod) ** (-1 - mpmath.mpf(eps)):
                out.append(f"mult q={w['q']} fails |<q.x>| <= F+(q)^(-2-2eps) "
                           f"at {DIGITS} digits")
        bnd = 2.0 * lam ** 0.5

        def exact(p):
            with mpmath.workdps(DIGITS):
                return mpmath.sqrt(_mp_dist(p, 0) * _mp_dist(0, p)) <= mpmath.mpf(bnd)
        p_max = math.floor(2 * mu * lam ** -0.5 + 1e-12)
        want = _least_p(gm, bnd, p_max, exact)
        if w["p"] != want:
            out.append(f"mult q={w['q']}: p={w['p']}, least admissible p is {want}")
        elif want is not None and not exact(want):
            out.append(f"mult q={w['q']}: p={want} fails GM <= 2 sqrt(lambda) "
                       f"at {DIGITS} digits")
        return out

    return _check_witnesses("mult", wit, mult_solutions(eps, bound), step)


def _uj_bodies(q):
    b1 = np.maximum(1, np.abs(q[:, 0])) * np.maximum(1, np.abs(q[:, 1]))
    b2 = (SQRT2 / 2) * (np.maximum(1, np.abs(q[:, 0] + q[:, 1]))
                        * np.maximum(1, np.abs(q[:, 0] - q[:, 1])))
    return b1.astype(float), b2


def unionjack_solutions(eps: float, bound: float) -> np.ndarray:
    cap = bound ** 2
    axis = canonical_box(cap, 10 ** 9)
    # rotated region: u = q1 + q2, v = q1 - q2 of equal parity with
    # max(|u|,1) max(|v|,1) <= sqrt2 cap; enumerate every (u, v) in the box
    uv = canonical_box(SQRT2 * cap, 10 ** 9)
    uv = np.concatenate([uv, -uv])
    uv = uv[(uv[:, 0] - uv[:, 1]) % 2 == 0]
    rot = np.column_stack([(uv[:, 0] + uv[:, 1]) // 2, (uv[:, 0] - uv[:, 1]) // 2])
    q = np.unique(np.concatenate([axis, rot]), axis=0)
    first = np.where(q[:, 0] != 0, q[:, 0], q[:, 1])
    q = q[first > 0]
    b1, b2 = _uj_bodies(q)
    body = np.minimum(b1, b2)
    q, body = q[body <= cap], body[body <= cap]
    vals = np.abs(_signed(q[:, 0] * SQRT2 + q[:, 1] * SQRT3))
    thr = body ** (-1.0 - eps)

    def exact(i):
        with mpmath.workdps(DIGITS):
            return _mp_dist(int(q[i, 0]), int(q[i, 1])) <= \
                mpmath.mpf(float(body[i])) ** (-1 - mpmath.mpf(eps))
    return q[_below(vals, thr, exact)]


def _mp_union_jack(a, b):
    return min(mpmath.sqrt(abs(a * b)), mpmath.sqrt(abs(a * a - b * b) / 2))


def check_transfer_unionjack(obj, eps: float, bound: float) -> list[str]:
    wit = obj["witnesses"]
    qs = np.array([w["q"] for w in wit]).reshape(-1, 2)
    b1, b2 = _uj_bodies(qs)
    mus = np.sqrt(np.minimum(b1, b2))
    p_top = max([math.floor(2 * m * (m ** (-1.0 - eps)) ** -0.5 + 1e-12)
                 for m in mus] + [1])
    ps = np.arange(1, p_top + 1, dtype=float)
    d1 = _signed(ps * SQRT2)
    d2 = _signed(ps * SQRT3)
    fvals = union_jack(d1, d2)
    fails = []
    branches = {w["branch"] for w in wit}
    if branches != {"axis", "rotated"}:
        fails.append(f"unionjack: witnesses on branches {sorted(branches)}, "
                     f"expected both axis and rotated")

    def step(i, w):
        q1, q2 = w["q"]
        mu = float(mus[i])
        lam = mu ** (-1.0 - eps)
        out = []
        branch = "axis" if b1[i] <= b2[i] else "rotated"
        if w["branch"] != branch:
            out.append(f"unionjack q={w['q']}: branch {w['branch']}, want {branch}")
        if not (_close(w["mu"], mu, 1e-12) and _close(w["lambda"], lam, 1e-12)):
            out.append(f"unionjack q={w['q']}: mu/lambda {w['mu']!r}/"
                       f"{w['lambda']!r} != {mu!r}/{lam!r}")
        with mpmath.workdps(DIGITS):
            body = mpmath.mpf(float(min(b1[i], b2[i])))
            if not _mp_dist(q1, q2) <= body ** (-1 - mpmath.mpf(eps)):
                out.append(f"unionjack q={w['q']} fails |<q.x>| <= "
                           f"F_UJ(q)^(-2-2eps) at {DIGITS} digits")
        target = 2.0 * math.sqrt(lam)

        def exact(p):
            with mpmath.workdps(DIGITS):
                a = p * mpmath.sqrt(2)
                b = p * mpmath.sqrt(3)
                return _mp_union_jack(a - mpmath.nint(a), b - mpmath.nint(b)) \
                    <= mpmath.mpf(target)
        p_max = math.floor(2 * mu * lam ** -0.5 + 1e-12)
        want = _least_p(fvals, target, p_max, exact)
        if w["p"] != want:
            out.append(f"unionjack q={w['q']}: p={w['p']}, least admissible "
                       f"p is {want}")
        elif want is not None and not exact(want):
            out.append(f"unionjack q={w['q']}: p={want} fails F' <= "
                       f"2 sqrt(lambda) at {DIGITS} digits")
        return out

    return fails + _check_witnesses("unionjack", wit,
                                    unionjack_solutions(eps, bound), step)


def height_solutions(eps: float, bound: int) -> np.ndarray:
    q = canonical_box(float(bound) ** 2, bound)
    h = np.abs(q).max(axis=1).astype(float)
    vals = np.abs(_signed(q[:, 0] * SQRT2 + q[:, 1] * SQRT3))
    thr = h ** (-2.0 - eps)

    def exact(i):
        with mpmath.workdps(DIGITS):
            return _mp_dist(int(q[i, 0]), int(q[i, 1])) <= \
                mpmath.mpf(float(h[i])) ** (-2 - mpmath.mpf(eps))
    return q[_below(vals, thr, exact)]


def check_transfer_height(obj, eps: float, bound: int) -> list[str]:
    wit = obj["witnesses"]
    mus = [float(max(abs(v) for v in w["q"])) for w in wit]
    p_top = max([math.floor(2 * m * (m ** (-2.0 - eps)) ** -0.5 + 1e-12)
                 for m in mus] + [1])
    ps = np.arange(1, p_top + 1, dtype=float)
    d1, d2 = _dist_pair(ps, SQRT2, SQRT3)
    hv = np.maximum(d1, d2)

    def step(i, w):
        q1, q2 = w["q"]
        mu = float(max(abs(q1), abs(q2)))
        lam = mu ** (-2.0 - eps)
        out = []
        if not (w["mu"] == mu and _close(w["lambda"], lam, 1e-12)):
            out.append(f"height q={w['q']}: mu/lambda {w['mu']!r}/{w['lambda']!r}"
                       f" != {mu!r}/{lam!r}")
        with mpmath.workdps(DIGITS):
            if not _mp_dist(q1, q2) <= mpmath.mpf(mu) ** (-2 - mpmath.mpf(eps)):
                out.append(f"height q={w['q']} fails |<q.x>| <= |q|^(-2-eps) "
                           f"at {DIGITS} digits")
        target = 2.0 * lam ** 0.5

        def exact(p):
            with mpmath.workdps(DIGITS):
                return max(_mp_dist(p, 0), _mp_dist(0, p)) <= mpmath.mpf(target)
        p_max = math.floor(2 * mu * lam ** -0.5 + 1e-12)
        want = _least_p(hv, target, p_max, exact)
        if w["p"] != want:
            out.append(f"height q={w['q']}: p={w['p']}, least admissible p is {want}")
        elif want is not None and not exact(want):
            out.append(f"height q={w['q']}: p={want} fails max ||p x_i|| <= "
                       f"2 sqrt(lambda) at {DIGITS} digits")
        return out

    return _check_witnesses("height", wit, height_solutions(eps, bound), step)


def prop5_instances(seed: int, instances: int, q_bound: int):
    """(x, lambda, mu) per instance from Philox keyed by (seed, 0)."""
    rng = np.random.Generator(np.random.Philox(key=np.array(
        [seed, 0], dtype=np.uint64)))
    out = []
    for _ in range(instances):
        x = tuple(rng.random(2) * 0.98 + 0.01)
        lam = float(rng.uniform(0.3, 0.5))
        mu = float(rng.uniform(2.0, min(14.0, q_bound ** 0.5)))
        out.append((x, lam, mu))
    return out


def check_prop5(obj, seed: int, instances: int, q_bound: int) -> list[str]:
    fails = []
    res = obj["results"]
    if obj["counterexamples"] != 0:
        fails.append(f"prop5: {obj['counterexamples']} counterexamples")
    if (obj["instances"], obj["Qbound"], obj["seed"], len(res)) != \
            (instances, q_bound, seed, instances):
        return fails + ["prop5: output is for another configuration"]
    for k, (r, (x, lam, mu)) in enumerate(zip(res, prop5_instances(
            seed, instances, q_bound))):
        if (tuple(r["x"]), r["lambda"], r["mu"]) != (x, lam, mu):
            fails.append(f"prop5 #{k}: instance differs from the seeded stream")
            continue
        if r["counterexamples"]:
            fails.append(f"prop5 #{k}: counterexamples {r['counterexamples']}")
        if not mu * mu <= q_bound:
            fails.append(f"prop5 #{k}: mu^2 = {mu * mu} > Qbound, the q-search "
                         f"is incomplete")
        xs_mp = tuple(mpmath.mpf(v) for v in x)
        # system (i): q with |<q.x>| <= lambda, prod max(|q_i|,1) <= mu^2
        q = canonical_box(mu ** 2, q_bound)
        vals = np.abs(_signed(q[:, 0] * x[0] + q[:, 1] * x[1]))

        def exact_q(i):
            with mpmath.workdps(DIGITS):
                return _mp_dist(int(q[i, 0]), int(q[i, 1]), xs_mp) <= mpmath.mpf(lam)
        count = int(np.count_nonzero(_below(vals, np.full(len(vals), lam), exact_q)))
        # system (ii): least p <= 2 mu lambda^(-1/2) with GM <= 2 sqrt(lambda)
        p_max = math.floor(2 * mu * lam ** -0.5 + 1e-12)
        ps = np.arange(1, p_max + 1, dtype=float)
        gm = np.sqrt(np.abs(_signed(ps * x[0])) * np.abs(_signed(ps * x[1])))
        bnd = 2.0 * lam ** 0.5

        def exact_p(p):
            with mpmath.workdps(DIGITS):
                return mpmath.sqrt(_mp_dist(p, 0, xs_mp) * _mp_dist(0, p, xs_mp)) \
                    <= mpmath.mpf(bnd)
        p = _least_p(gm, bnd, p_max, exact_p)
        if (r["system_i_count"], r["p"]) != (count, p):
            fails.append(f"prop5 #{k}: system (i) count / p = "
                         f"{r['system_i_count']}/{r['p']}, recomputed {count}/{p}")
        fwd = "vacuous" if not count else ("witness" if p else "counterexample")
        rev = "vacuous" if p is None else ("witness" if count else "counterexample")
        if (r["forward"], r["reverse"]) != (fwd, rev):
            fails.append(f"prop5 #{k}: forward/reverse {r['forward']}/"
                         f"{r['reverse']}, recomputed {fwd}/{rev}")
        if len(fails) > 20:
            break
    return fails


# ---------------------------------------------------------------------------
# Per-workload drivers
# ---------------------------------------------------------------------------


def _guard(fn) -> list[str]:
    """Run one check; an unreadable or malformed output is a failure."""
    try:
        return fn()
    except (OSError, KeyError, ValueError, TypeError, IndexError) as e:
        return [f"unreadable output: {type(e).__name__}: {e}"]


def check_round(workload: str, seed: int, out: Path) -> dict[str, list[str]]:
    """Failures per command of one round whose outputs are under `out`."""
    d = {c.name: out / c.name for c in W.WORKLOADS[workload].commands(seed)}
    if workload == "quadrature":
        return {"density": _guard(lambda: check_density_quadrature(
            read_csv(d["density"] / "density.csv"), W.QUAD_EPS))}
    if workload == "montecarlo":
        return {
            "tail_conv": _guard(lambda: check_tail_convergent(
                read_csv(d["tail_conv"] / "tail.csv"), seed, W.TAIL_SAMPLES,
                W.TAIL_N, W.TAIL_TAU_CONV)),
            "tail_div": _guard(lambda: check_tail_divergent(
                read_csv(d["tail_div"] / "tail.csv"), seed, W.TAIL_SAMPLES,
                W.TAIL_N)),
            "density_mc": _guard(lambda: check_density_montecarlo(
                read_csv(d["density_mc"] / "density.csv"), W.MC_EPS,
                W.MC_SAMPLES)),
        }
    if workload == "circle":
        cov = d["coverage"]
        return {
            "coverage": _guard(lambda: check_intervals(
                read_csv(cov / "intervals.csv"), W.COV_EPS, W.COV_Y0,
                W.COV_INTERVALS) + check_coverage(
                read_csv(cov / "coverage.csv"), W.COV_EPS, W.COV_Y0,
                W.COV_STAGES, W.COV_SAMPLES)),
            "ubiquity": _guard(lambda: check_ubiquity(
                read_json(d["ubiquity"] / "ubiquity.json"), W.UBIQ_NMAX, seed)),
        }
    if workload == "lattice":
        return {
            "search": _guard(lambda: check_search(
                read_csv(d["search"] / "search.csv"), W.SEARCH_QMAX, seed)),
            "mult": _guard(lambda: check_transfer_mult(
                read_json(d["mult"] / "transfer_mult.json"), W.MULT_EPS,
                W.MULT_BOUND)),
            "unionjack": _guard(lambda: check_transfer_unionjack(
                read_json(d["unionjack"] / "transfer_unionjack.json"),
                W.UJ_EPS, W.UJ_BOUND)),
            "height": _guard(lambda: check_transfer_height(
                read_json(d["height"] / "transfer_height.json"), W.HEIGHT_EPS,
                W.HEIGHT_BOUND)),
            "prop5": _guard(lambda: check_prop5(
                read_json(d["prop5"] / "prop5.json"), seed,
                W.PROP5_INSTANCES, W.PROP5_QBOUND)),
        }
    raise ValueError(f"unknown workload {workload!r}")
