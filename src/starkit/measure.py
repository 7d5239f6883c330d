"""Density function, resonant neighborhoods and overlap statistics.

``density`` computes D_F(eps): the plain area of {F < eps} for bounded
bodies, and the normalized area of the integer-periodized sublevel set
over the unit square for rational skeletons (identical to the value over
the fundamental rectangle by Z^2-periodicity).  Closed forms are
registered for the box and hyperbola shapes; everything else goes through
adaptive quadrature or stratified Monte Carlo.

``resonant_membership`` decides x in B_q(F, eps) by minimizing
F(x - p/q) over a candidate lattice set: a central box around round(q*x)
plus segments along each skeleton direction out to the arc distance where
the (safety-doubled) fitted tube width drops below the candidate's
perpendicular offset.  For q <= _EXHAUSTIVE_Q it enumerates a full window
instead (``_Kernel.minimum`` picks the path).  The two were checked equal
on the registered bodies with rational skeletons only: along an
irrational skeleton line the fast search can find a smaller value far
out on the line, beyond the window (ROADMAP item 3).

One generator (``_Kernel._blocks``) enumerates those candidates for a whole
batch of points as flat ``(sample index, p)`` blocks of bounded size, and
one evaluator runs each block through a single ``Expr.eval_xy`` call.  A
vectorized hit test and a single-point minimization (a batch of one) differ
only in the per-sample threshold that sizes the search, the step cap, and
how they reduce the values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (IrrationalSkeleton, NonConvergent, SkeletonMismatch,
                     StarkitError)
from .sampling import indicator_estimate
from .starbody import (Abs, Expr, GeoMean, HalfLine, Max, Scale,
                       LineGeometry, _bisect, body_geometry, extract_skeleton,
                       fundamental_rectangle)

# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityResult:
    epsilon: float
    value: float
    method: str  # analytic | quadrature | montecarlo
    stderr: float = 0.0


@dataclass(frozen=True)
class ResonantSpec:
    """B_q(F, eps); restricted adds gcd(p1*r_hat, q) = gcd(p2*s_hat, q) = 1."""

    q: int
    epsilon: float
    restricted: bool = False

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be a positive integer")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class ResonantHit:
    x: tuple
    q: int
    p: tuple
    value: float


# ---------------------------------------------------------------------------
# Analytic density registry
# ---------------------------------------------------------------------------


def _axis_coef(e: Expr):
    """|a| if e is Abs(a, 0), |b| if Abs(0, b), tagged by axis; else None."""
    if not isinstance(e, Abs):
        return None
    a, b = e.form.floats()
    if b == 0.0:
        return ("x", abs(a))
    if a == 0.0:
        return ("y", abs(b))
    return None


def analytic_density_info(f: Expr):
    """Detect a registered closed-form shape.

    Returns (kind, coef) with kind 'box' (F = max(a|x1|, b|x2|), coef = a*b)
    or 'hyperbola' (F = sqrt(a b |x1 x2|), coef = a*b), or None.  Scale
    nodes fold into the coefficients.
    """
    scale = 1.0
    while isinstance(f, Scale):
        scale *= float(f.factor)
        f = f.child
    if isinstance(f, (Max, GeoMean)) and len(f.children) == 2:
        tags = [_axis_coef(c) for c in f.children]
        if None not in tags and {tags[0][0], tags[1][0]} == {"x", "y"}:
            coef = tags[0][1] * tags[1][1] * scale * scale
            return ("box" if isinstance(f, Max) else "hyperbola", coef)
    return None


def _analytic_density(kind: str, coef: float, eps: float) -> float:
    if kind == "box":
        # bounded: |{max(a|x1|, b|x2|) < eps}| = 4 eps^2 / (a b)
        return 4.0 * eps * eps / coef
    # periodized hyperbola: per unit square, with c = eps^2/(a b),
    # 4*(c + c*log(1/(4c))) until the strips merge at c = 1/4
    c = eps * eps / coef
    if c >= 0.25:
        return 1.0
    return 4.0 * c * (1.0 + math.log(1.0 / (4.0 * c)))


# ---------------------------------------------------------------------------
# Membership kernel
# ---------------------------------------------------------------------------

_BATCH_K_CAP = 64      # tube steps per direction in vectorized hit tests
_SCALAR_K_CAP = 4096   # tube steps in exact single-point minimization
_WINDOW_CAP = 600
_EXHAUSTIVE_Q = 64     # q up to which minimization enumerates a full window
_IRR_STEP = 0.5
_BLOCK = 1 << 16       # candidates per evaluated block


class _Kernel:
    """Candidate generation and evaluation for one (F, q, eps) problem.

    For raw points y = q*x, ``_blocks`` is the one candidate generator.  It
    yields flat ``(sample index, p)`` blocks of at most _BLOCK candidates
    from four sources: the wrapped point round(y); the central box around
    it; for each rational skeleton line, steps along every lattice line
    parallel to it that the fitted tube reaches; for each irrational line,
    rounded points along it.  Each sample carries a threshold tau that
    sizes its box and its tube reach, and k_cap bounds the tube steps.
    ``_evaluate`` runs a block through one ``Expr.eval_xy`` call.  ``hits``
    (tau = q*eps, k_cap = _BATCH_K_CAP) marks the samples with a value
    below q*eps, which ends their enumeration; ``minimize`` (a batch of one,
    tau just above min(F(wrap), q*eps), k_cap = _SCALAR_K_CAP) evaluates
    all blocks at once and keeps the ``_pick_minimizer`` choice.
    """

    def __init__(self, f: Expr, q: int, eps: float, restricted: bool = False):
        self.f = f
        self.q = q
        self.eps = eps
        self.eps_s = q * eps
        self.geo = body_geometry(f)
        self.restricted = restricted
        if restricted:
            if not self.geo.skeleton.rational_only:
                raise IrrationalSkeleton(
                    "restricted resonant sets need a rational skeleton")
            rect = fundamental_rectangle(self.geo.skeleton)
            # gcd(p*r, q) depends on r mod q only; the reduced factors keep
            # p*r inside int64 for a huge rectangle
            self.r_hat, self.s_hat = rect.r_hat % q, rect.s_hat % q

    # -- shared helpers ----------------------------------------------------

    def _allowed(self, p: np.ndarray) -> np.ndarray:
        if not self.restricted:
            return np.ones(len(p), dtype=bool)
        pi = p.astype(np.int64)
        g1 = np.gcd(np.abs(pi[:, 0] * self.r_hat) % self.q, self.q)
        g2 = np.gcd(np.abs(pi[:, 1] * self.s_hat) % self.q, self.q)
        return (g1 == 1) & (g2 == 1)

    def _box_radius(self, tau: np.ndarray) -> np.ndarray:
        c = max(self.geo.offline_min, 1e-12)
        return np.clip(np.ceil(tau / c) + 1, 1, 64).astype(np.int64)

    # -- exact single-point minimization ------------------------------------

    def minimum(self, x) -> tuple[float, tuple[int, int]]:
        """Minimum of F(q*x - p) and its p: a full window enumeration for
        q <= _EXHAUSTIVE_Q, the candidate blocks above."""
        if self.q <= _EXHAUSTIVE_Q:
            return self.minimize_exhaustive(x)
        return self.minimize(x)

    def _tau(self, y) -> float:
        """Search threshold for the point y = q*x: just above
        min(F(wrapped y), q*eps), where the wrap round(y) counts only when
        it is an allowed candidate."""
        p0 = np.round(y)
        z0 = y - p0
        v0 = float(self.f.eval_xy(z0[0], z0[1]))
        if not self._allowed(p0.reshape(1, 2))[0]:
            v0 = math.inf
        return min(v0, self.eps_s) * (1.0 + 1e-9) + 1e-300

    def minimize(self, x) -> tuple[float, tuple[int, int]]:
        """Minimum of F(q*x - p) over the candidate lattice set (raw scale)."""
        y = self.q * np.asarray(x, dtype=float).reshape(1, 2)
        tau = np.array([self._tau(y[0])])
        blocks = self._blocks(y, tau, _SCALAR_K_CAP, np.zeros(1, dtype=bool))
        return self._best(y, *(np.concatenate(a) for a in zip(*blocks)))

    def minimize_exhaustive(self, x) -> tuple[float, tuple[int, int]]:
        """Same minimum through a full window enumeration (small q)."""
        y = self.q * np.asarray(x, dtype=float).reshape(1, 2)
        p0 = np.round(y[0])
        tau = self._tau(y[0])
        reach = 0.0
        for lg in self.geo.lines:
            if lg.half.rational:
                L = math.hypot(*lg.half.int_direction())
                reach = max(reach, _arc_steps(lg, tau, 0.5 / L, 1.0,
                                              _WINDOW_CAP))
            else:
                reach = max(reach, min(_WINDOW_CAP, _IRR_STEP * _SCALAR_K_CAP))
        w = int(max(self.q / 2 + 1, min(reach, _WINDOW_CAP) + 2))
        span = np.arange(-w, w + 1)
        gx, gy = np.meshgrid(p0[0] + span, p0[1] + span, indexing="ij")
        p = np.column_stack([gx.ravel(), gy.ravel()]).astype(float)
        return self._best(y, np.zeros(len(p), dtype=np.intp), p)

    def _best(self, y, idx, p) -> tuple[float, tuple[int, int]]:
        """Least F(y[idx] - p) over the allowed candidates and its p, by the
        ``_pick_minimizer`` rule; (inf, (0, 0)) when none is allowed."""
        _, p, z1, z2, vals = self._evaluate(y, idx, p)
        if len(vals) == 0:
            return math.inf, (0, 0)
        i = _pick_minimizer(vals, z1, z2, p)
        return float(vals[i]), (int(p[i, 0]), int(p[i, 1]))

    # -- vectorized hit decisions -------------------------------------------

    def hits(self, xs: np.ndarray) -> np.ndarray:
        """Boolean hit array for points xs of shape (m, 2)."""
        y = self.q * np.asarray(xs, dtype=float)
        if self.geo.axis_monotone and not self.restricted:
            # coordinatewise-monotone body: the wrap is the exact minimizer
            z = y - np.round(y)
            return self.f.eval_xy(z[:, 0], z[:, 1]) < self.eps_s
        hit = np.zeros(len(y), dtype=bool)
        tau = np.full(len(y), self.eps_s)
        for block in self._blocks(y, tau, _BATCH_K_CAP, hit):
            idx, _, _, _, vals = self._evaluate(y, *block)
            hit[idx[vals < self.eps_s]] = True
        return hit

    # -- candidate blocks -----------------------------------------------------

    def _evaluate(self, y, idx, p):
        """(idx, p, z1, z2, vals) with vals = F(y[idx] - p) in one
        ``Expr.eval_xy`` call; restricted candidates are dropped."""
        if self.restricted:
            ok = self._allowed(p)
            idx, p = idx[ok], p[ok]
        z1 = y[idx, 0] - p[:, 0]
        z2 = y[idx, 1] - p[:, 1]
        return idx, p, z1, z2, self.f.eval_xy(z1, z2)

    def _blocks(self, y, tau, k_cap, done):
        """Yield (idx, p) candidate blocks for the samples not yet `done`.

        `done` is read again before each block, so a consumer that sets it
        stops the enumeration for those samples; each source enumerates its
        nearest candidates first.
        """
        p0 = np.rint(y)
        live = np.flatnonzero(~done)
        yield live, p0[live]     # the wrapped point settles most samples
        live = np.flatnonzero(~done)
        b = self._box_radius(tau[live])
        ring = _ring_offsets(int(b.max(initial=1)))
        for t, m in _rounds((2 * b + 1) ** 2, live, done):
            yield live[t], p0[live[t]] + ring[m]
        for lg in self.geo.lines:
            if done.all():
                return
            if lg.half.rational:
                yield from self._rational_tube(lg, y - p0, p0, tau, k_cap,
                                               done)
            else:
                yield from self._irrational_tube(lg, y, tau, k_cap, done)

    def _rational_tube(self, lg, z0, p0, tau, k_cap, done):
        """Steps p = base_j + k*d along every lattice line j = cross(p, d)
        that the tube reaches: k = kc + dk, |dk| <= kw, per (sample, j)."""
        r, s = lg.half.int_direction()
        L = math.hypot(r, s)
        d = np.array([r, s], dtype=float)
        # Bezout vector v with v1*s - v2*r = 1 steps across lattice lines
        _, v1, v2 = _xgcd(s, -r)
        v = np.array([v1, v2], dtype=float)
        c0 = z0[:, 0] * s - z0[:, 1] * r    # cross(z0, d): offset index units
        a0 = z0[:, 0] * r + z0[:, 1] * s    # dot(z0, d)
        reach = L * np.minimum(1.0, 2.0 * lg.width(1.0, tau))
        lo = math.floor(float((c0 - reach).min()))
        hi = math.ceil(float((c0 + reach).max()))
        if hi - lo >= _BLOCK:
            # every (sample, line) row takes a candidate, so one sample alone
            # would overflow a block
            raise StarkitError(
                f"the tube along the skeleton line of slope {s}/{r} meets "
                f"{hi - lo + 1} lattice lines, more than a block of {_BLOCK} "
                "candidates holds")
        j = np.arange(lo, hi + 1)
        live = np.flatnonzero(~done)
        steps = _arc_steps(lg, tau[live, None], np.abs(c0[live, None] - j) / L,
                           L, k_cap)
        kw = np.maximum(np.ceil(steps), 1).astype(np.int64).ravel()
        vd = v[0] * r + v[1] * s
        kc = np.rint((a0[live, None] - j * vd) / L / L).ravel()
        base = (p0[live, None] + j[:, None] * v).reshape(-1, 2)
        owner = live.repeat(len(j))
        for t, m in _rounds(2 * kw + 1, owner, done):
            dk = (m + 1) // 2 * (2 * (m % 2) - 1)     # 0, 1, -1, 2, -2, ...
            yield owner[t], base[t] + (kc[t] + dk)[:, None] * d

    def _irrational_tube(self, lg, y, tau, k_cap, done):
        """Rounded points y -/+ k*_IRR_STEP*u along the line, k = 1..kmax_i."""
        u = lg.half.unit_direction()
        live = np.flatnonzero(~done)
        kmax = np.floor(_arc_steps(lg, tau[live], 1e-6, _IRR_STEP, k_cap))
        for t, m in _rounds(2 * kmax.astype(np.int64), live, done):
            i = live[t]
            arc = (m // 2 + 1) * (1 - 2 * (m % 2)) * _IRR_STEP
            yield i, np.round(np.column_stack([y[i, 0] - arc * u[0],
                                               y[i, 1] - arc * u[1]]))


def _arc_steps(lg: LineGeometry, tau, u, step: float, cap: int) -> np.ndarray:
    """Arc distance, in units of `step` and capped at `cap`, out to which the
    doubled fitted width of {F < tau} still exceeds the offset u.  A nearly
    flat tube overflows the power to rho = inf, which gives the cap."""
    if lg.width_exp <= 1e-9:
        return np.full(np.broadcast(tau, u).shape, float(cap))
    power = 1.0 / lg.width_exp
    base = 2.0 * lg.width_coef * tau / np.maximum(u, 1e-15)
    if power <= 1:
        rho = base ** power
    else:
        # the only case that can overflow; entering errstate costs about 1 us
        with np.errstate(over="ignore"):
            rho = base ** power
    return np.minimum(cap, tau * rho / step)


@functools.lru_cache(maxsize=64)    # box radii are 1..64
def _ring_offsets(b: int) -> np.ndarray:
    """Integer offsets of [-b, b]^2 by Chebyshev norm: the first (2c+1)^2
    rows are the box of radius c."""
    span = np.arange(-b, b + 1)
    gx, gy = np.meshgrid(span, span, indexing="ij")
    off = np.column_stack([gx.ravel(), gy.ravel()])
    off = off[np.argsort(np.abs(off).max(axis=1), kind="stable")]
    off.flags.writeable = False     # shared by every caller
    return off


def _rounds(counts: np.ndarray, owner: np.ndarray, done: np.ndarray):
    """Enumerate ranks 0 .. counts[r]-1 of every row r, low ranks first, in
    blocks of at most _BLOCK candidates (one rank per row at least).  Before
    each later block, rows whose sample owner[r] is `done` are dropped.
    Yields (r, m): the row and the rank of each candidate."""
    if counts.sum() <= _BLOCK:
        r = np.arange(len(counts)).repeat(counts)
        yield r, np.arange(r.size) - (counts.cumsum() - counts)[r]
        return
    rows = np.flatnonzero(counts)
    lo = 0
    while rows.size:
        hi = lo + max(1, _BLOCK // rows.size)
        c = np.minimum(counts[rows], hi) - lo
        r = rows.repeat(c)
        yield r, np.arange(r.size) - (c.cumsum() - c).repeat(c) + lo
        lo = hi
        rows = rows[(counts[rows] > lo) & ~done[owner[rows]]]


def _pick_minimizer(vals, z1, z2, p) -> int:
    """Deterministic argmin: break value ties by the nearest z, then
    lexicographically by p.  The order is total, so the candidates may come
    in any order.  The choice is window-independent only among exact float
    ties: along a nearly flat tube a far candidate can undercut a near one
    by rounding (about 1e-12 of the value), and then a wider window picks
    the far one."""
    zinf = np.maximum(np.abs(z1), np.abs(z2))
    return int(np.lexsort((p[:, 1], p[:, 0], zinf, vals))[0])


def _xgcd(a: int, b: int):
    """g, x, y with a*x + b*y = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


# ---------------------------------------------------------------------------
# Public membership / measure operations
# ---------------------------------------------------------------------------


def resonant_membership(f: Expr, x, spec: ResonantSpec) -> Optional[ResonantHit]:
    """Minimizing p for F(x - p/q); a ResonantHit when the minimum is < eps.

    Enumerates a full window for q <= _EXHAUSTIVE_Q (64), the fast
    candidate search above it.  The two were checked equal on the
    registered rational bodies, restricted or not, for q <= 300; along an
    irrational skeleton line the fixed window can miss a smaller value far
    out on the line.  Value ties are broken toward the nearest q*x - p,
    then lexicographically in p, so among exactly tied values the reported
    minimizer does not depend on the search window.
    """
    kern = _Kernel(f, spec.q, spec.epsilon, spec.restricted)
    raw, p = kern.minimum(x)
    if raw < kern.eps_s:
        return ResonantHit(x=(float(x[0]), float(x[1])), q=spec.q, p=p,
                           value=raw / spec.q)
    return None


def batch_hits(f: Expr, xs: np.ndarray, q: int, eps: float,
               restricted: bool = False) -> np.ndarray:
    """Vectorized membership decisions for an (m, 2) array of torus points."""
    return _Kernel(f, q, eps, restricted).hits(np.asarray(xs, dtype=float))


def resonant_measure(f: Expr, spec: ResonantSpec, samples: int = 10_000,
                     seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of |B_q| (or |B*_q|) with its standard error."""
    kern = _Kernel(f, spec.q, spec.epsilon, spec.restricted)
    return indicator_estimate(kern.hits, samples, seed)


def overlap_estimate(f: Expr, spec_a: ResonantSpec, spec_b: ResonantSpec,
                     samples: int = 10_000, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of |B*_q ∩ B*_q'| on a common sample stream."""
    ka = _Kernel(f, spec_a.q, spec_a.epsilon, spec_a.restricted)
    kb = _Kernel(f, spec_b.q, spec_b.epsilon, spec_b.restricted)
    return indicator_estimate(lambda pts: ka.hits(pts) & kb.hits(pts),
                              samples, seed)


def _spec_record(spec: ResonantSpec):
    return {"q": spec.q, "epsilon": spec.epsilon, "restricted": spec.restricted}


def resonant_record(f: Expr, spec: ResonantSpec, samples: int = 10_000,
                    seed: int = 0) -> dict:
    """JSON-able record of a resonant-measure estimate; bit-exact given seed."""
    value, stderr = resonant_measure(f, spec, samples=samples, seed=seed)
    return {"kind": "resonant_measure", "spec": _spec_record(spec),
            "value": value, "stderr": stderr, "samples": samples, "seed": seed}


def overlap_record(f: Expr, spec_a: ResonantSpec, spec_b: ResonantSpec,
                   samples: int = 10_000, seed: int = 0) -> dict:
    """JSON-able record of an overlap estimate; bit-exact given seed."""
    value, stderr = overlap_estimate(f, spec_a, spec_b, samples=samples,
                                     seed=seed)
    return {"kind": "overlap", "spec_a": _spec_record(spec_a),
            "spec_b": _spec_record(spec_b), "value": value,
            "stderr": stderr, "samples": samples, "seed": seed}


# ---------------------------------------------------------------------------
# Density
# ---------------------------------------------------------------------------


def _bounded_area_unit(f: Expr) -> float:
    """Area of {F < 1} for a bounded body, by radial quadrature."""
    from scipy.integrate import quad   # slow to import; only used here

    def integrand(theta):
        v = f.eval_xy(math.cos(theta), math.sin(theta))
        return 1.0 / (v * v)
    val, err = quad(integrand, 0.0, 2.0 * math.pi, limit=400)
    if err > 1e-8 * max(1.0, abs(val)):
        raise NonConvergent(f"radial quadrature error {err:.3g}")
    return 0.5 * val


_SECTION_GRID = 1024   # x1 cells scanned before each section edge is bisected
_QUAD_TOL = 1e-7       # adaptive Simpson tolerance of the periodized quadrature


def _section_length(kern: _Kernel, x2: float) -> float:
    """Measure of {x1 in [0,1] : (x1, x2) in B_1(F, eps)}."""
    x1 = np.linspace(0.0, 1.0, _SECTION_GRID + 1)
    pts = np.column_stack([x1, np.full(_SECTION_GRID + 1, x2)])
    h = kern.hits(pts)
    if h.all():
        return 1.0
    if not h.any():
        return 0.0
    # refine every transition edge by bisection, all edges in lockstep
    edges = np.flatnonzero(h[:-1] != h[1:])
    h_left = h[edges]
    mid_pts = np.full((len(edges), 2), x2)   # column 0 is set per step

    def same_as_left(mid):
        mid_pts[:, 0] = mid
        return kern.hits(mid_pts) == h_left
    cross = _bisect(same_as_left, x1[edges], x1[edges + 1], 40)
    # walk runs of True cells using refined boundaries
    total = 0.0
    start = 0.0 if h[0] else None
    for e, c in zip(edges, cross):
        if h[e]:       # True -> False
            total += c - (start if start is not None else 0.0)
            start = None
        else:          # False -> True
            start = c
    if start is not None:
        total += 1.0 - start
    return total


def _periodized_quadrature(f: Expr, eps: float, budget: int = 20_000) -> float:
    kern = _Kernel(f, 1, eps)
    evals = [0]

    def g(x2):
        evals[0] += 1
        if evals[0] > budget:
            raise NonConvergent("quadrature evaluation budget exhausted")
        return _section_length(kern, x2)

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

    a, b = 0.0, 1.0
    m = 0.5 * (a + b)
    fa, fm, fb = g(a), g(m), g(b)
    whole = simpson(a, fa, m, fm, b, fb)
    return adapt(a, fa, m, fm, b, fb, whole, _QUAD_TOL, depth=48)


def density(f: Expr, epsilon: float, method: str = "auto",
            samples: int = 100_000, seed: int = 0) -> DensityResult:
    """D_F(epsilon): bounded-body area, or periodized measure per unit square.

    method: 'analytic' (registered closed forms only), 'quadrature',
    'montecarlo', or 'auto' (analytic when registered, else quadrature).
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    skel = extract_skeleton(f)
    bounded = not skel.lines
    if not bounded and not skel.rational_only and method != "montecarlo":
        raise IrrationalSkeleton(
            "periodized density needs a rational skeleton (or method='montecarlo')")
    info = analytic_density_info(f)

    if method in ("analytic", "auto") and info is not None:
        return DensityResult(epsilon, _analytic_density(*info, epsilon), "analytic")
    if method == "analytic":
        raise ValueError("no analytic density registered for this expression")

    if method in ("quadrature", "auto"):
        if bounded:
            value = epsilon * epsilon * _bounded_area_unit(f)
        else:
            value = _periodized_quadrature(f, epsilon)
        return DensityResult(epsilon, value, "quadrature")

    if method == "montecarlo":
        if bounded:
            geo = body_geometry(f)
            r = 1.0 / max(geo.circle_min, 1e-12) * 1.01

            def worker(pts):
                box = (pts - 0.5) * (2.0 * r)
                return f.eval_xy(box[:, 0], box[:, 1]) < 1.0

            p, se = indicator_estimate(worker, samples, seed, stratified=True)
            area = (2.0 * r) ** 2
            return DensityResult(epsilon, epsilon * epsilon * p * area,
                                 "montecarlo", epsilon * epsilon * se * area)
        kern = _Kernel(f, 1, epsilon)
        p, se = indicator_estimate(kern.hits, samples, seed, stratified=True)
        return DensityResult(epsilon, p, "montecarlo", se)

    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Overlap monotonicity probe
# ---------------------------------------------------------------------------


def overlap_monotonicity_probe(f1: Expr, f2: Expr, delta1: float, delta2: float,
                               line: HalfLine, t1s, t2s,
                               samples: int = 10_000, seed: int = 0):
    """Monte Carlo table of f(t1, t2) = |{F1 < d1} ∩ ({F2 < d2} - t1 v - t2 v_perp)|
    with both sets clipped to the fundamental rectangle of the common line.

    Uses one coupled sample stream across the whole grid so monotonicity
    comparisons share their randomness.  Returns (values, stderrs).
    """
    s1, s2 = extract_skeleton(f1), extract_skeleton(f2)
    if len(s1.full_lines()) != 1 or len(s2.full_lines()) != 1:
        raise SkeletonMismatch("both bodies must have a single skeleton line")
    if s1.lines[0].slope != s2.lines[0].slope:
        raise SkeletonMismatch("the two skeletons differ")
    rect = fundamental_rectangle(s1)
    v = line.unit_direction()
    vp = line.normal()
    t1s = np.asarray(t1s, dtype=float)
    t2s = np.asarray(t2s, dtype=float)

    def hit(pts):
        # (m, T1, T2) hits, one grid cell at a time so only O(m) floats live
        x1, x2 = (pts * [rect.s_hat, rect.r_hat]).T
        in1 = f1.eval_xy(x1, x2) < delta1
        cells = [[in1 & (f2.eval_xy(x1 + t1 * v[0] + t2 * vp[0],
                                    x2 + t1 * v[1] + t2 * vp[1]) < delta2)
                  for t2 in t2s] for t1 in t1s]
        return np.moveaxis(np.reshape(cells, (len(t1s), len(t2s), len(x1))),
                           -1, 0)

    p, se = indicator_estimate(hit, samples, seed)
    area = float(rect.s_hat * rect.r_hat)
    return area * p, area * se
