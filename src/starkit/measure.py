"""Density function, resonant neighborhoods and overlap statistics.

``density`` computes D_F(eps): the plain area of {F < eps} for bounded
bodies, and the normalized area of the integer-periodized sublevel set
over the unit square for rational skeletons (identical to the value over
the fundamental rectangle by Z^2-periodicity).  Closed forms are
registered for the box and hyperbola shapes; everything else goes through
adaptive quadrature or stratified Monte Carlo.  The periodized quadrature
(``_periodized_quadrature``) is an adaptive Simpson rule over x2 of the
section lengths in x1, walked one level of its tree at a time: the new
midpoints of a level are one ``_section_length`` call, which bisects the
hit/miss edges of all their sections together, as an exact search over
the multiples of 2^-50, _SECTION_DEPTH halvings per ``hits`` call.

``resonant_membership`` decides x in B_q(F, eps) by minimizing
F(x - p/q) over a candidate lattice set: a central box around round(q*x)
plus segments along each skeleton direction out to the arc distance where
the (safety-doubled) fitted tube width drops below the candidate's
perpendicular offset.  For q <= _EXHAUSTIVE_Q it enumerates a full window
instead.  ``_Kernel.minimum`` picks the path per q, for one q or for an
array of them, as ``best_approximations`` sweeps q.  The two were
checked equal on the registered bodies with rational skeletons only:
along an irrational skeleton line the fast search can find a smaller
value far out on the line, beyond the window (ROADMAP item 3).

One ``_Kernel`` serves one body, restricted or not; q and eps are
arguments of each call.  Its generator (``_Kernel._blocks``) enumerates
those candidates for a whole batch of rows, one row per (point, q), as
dense rectangles (rows by ranks) of integer offsets from each row's
wrap, at most _HIT_CELLS cells each, and _MIN_RANKS ranks at least
unless the rows have fewer left (``minimize_exhaustive``'s window goes in
one-row rectangles of _WINDOW_CELLS).  One evaluator runs each rectangle
through a single ``Expr.eval_xy`` call.  Each candidate of a row comes
once: a rational tube skips the steps inside the row's central box and
runs outward from it.  Every row has its own candidates, so a row's
result does not depend on the rows beside it.  The hit test (``hits``, a
batch of q values for every point) and the minimization (``minimize``,
one q per row, as ``best_approximations`` sweeps q) differ only in the
per-row threshold that sizes the search, the step cap, and how they
reduce the values: a hit ends a row's search, a minimum keeps the least
values of each rectangle row and folds them to one pick per row whenever
more than _HIT_CELLS are held.

``_Kernel.any_hit`` asks whether some q of a run q0 .. q1 hits each
point, as the dyadic tails of ``khintchine.tail_measure`` do: it calls
``hits`` on _Q_BATCH values of q at a time, drops a point at its first
hit, and may decide the rest of the run through the 2-D lattice of q*x
(``_lattice_cells``) where the body's tree bounds F on one axis and that
costs less than the sweep.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (IrrationalSkeleton, NonConvergent, SkeletonMismatch,
                     StarkitError)
from .sampling import indicator_estimate
from .starbody import (Abs, Expr, GeoMean, HalfLine, Max, Min, Scale,
                       LineGeometry, _SLICE_POINTS, as_point,
                       body_geometry, extract_skeleton, fundamental_rectangle)

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
# the most lattice lines that the tube of one row may meet
_MAX_LINES = 1 << 16
# window points per rectangle of minimize_exhaustive, one row of up to
# 1,205^2 points: here a rectangle's fixed cost outweighs the page faults
# of arrays above the mmap rule (on a 2-vCPU VM, windows in 8,192-point
# rectangles took 1.07x as long on union_jack, 1.2x on irrational_cusp)
_WINDOW_CELLS = 1 << 16
# cells per candidate rectangle and (point, q) cells per slice of
# _Kernel.hits, under starbody's mmap rule; unsliced, a tail chunk's
# 4096 x 16 batch spent half its time in page faults
_HIT_CELLS = _SLICE_POINTS
# rows per slice of _Kernel.minimize: the rectangles keep to _HIT_CELLS
# cells, and this bounds the per-row tables behind them (a tube's lines)
_MIN_ROWS = 128
# ranks per rectangle of _rounds, at least: a rectangle pays its gathers,
# its reduction along the ranks and the dropping of done rows once, and a
# hit test's 4,096 live rows at two ranks a rectangle paid them for every
# second cell.  On the 49 hits calls of a 200,000-sample Monte Carlo
# density of the sheared body at eps = 0.1 (2-vCPU VM, in-process CPU,
# 9 alternating pairs each), floors of 1, 4 and 8 ranks took 1.54x, 1.27x
# and 1.08x the time of 16, and 32 took 0.95x (its radius-2 box of 24
# ranks goes in one rectangle)
_MIN_RANKS = 16
_Q_BATCH = 16       # q values per ``hits`` call of _Kernel.any_hit
# CPU of any_hit's lattice path in units of one swept (point, q) cell
# (5.6-8 ns): per point for its basis and rows, and per enumerated cell.
# Fitted over psi exponents 1.4, 1.6 and 2.0 of the dyadic tail (height
# body, 4096 points, N = 1024, 2-vCPU Xeon VM), five runs gave 115-168
# and 2.6-5.3
_LATTICE_SAMPLE_COST = 130.0
_LATTICE_CELL_COST = 5.0


class _Kernel:
    """Candidate generation and evaluation for one body F, restricted or not.

    q and the threshold q*eps are per-call values.  A row is one problem
    (point x, q) with raw point y = q*x, its wrap p0 = rint(y) and the
    remainder z0 = y - p0; ``hits`` and ``minimize`` take a scalar q (a
    batch of one) or an array of them.  ``_blocks`` is the one candidate
    generator.  It yields each source's candidates as dense rectangles of
    integer offsets o from the wrap, rows by ranks, with a mask of the
    ranks each rectangle row really has: candidate p = p0 + o is evaluated
    at z = z0 - o.  Each row carries a threshold tau that sizes its box and
    its tube reach, and k_cap bounds the tube steps, so a row's candidates
    are the same in any batch.  ``_evaluate`` runs a rectangle through one
    ``Expr.eval_xy`` call, and a restricted row keeps its own q for the
    coprimality filter on p (``_allowed``).
    ``hits`` (tau = q*eps, k_cap = _BATCH_K_CAP) marks the rows with an
    allowed value below q*eps, which ends their enumeration; on an
    unrestricted axis-monotone body it evaluates the wrap alone, on
    (point x q) arrays.  ``minimize`` (tau just above min(F(wrap), q*eps),
    k_cap = _SCALAR_K_CAP) runs _MIN_ROWS rows at a time, and ``_least``
    keeps the least values of each rectangle row and picks among them
    with a segmented ``_pick_minimizer``, folding what it holds to one
    pick per row whenever that passes _HIT_CELLS cells.

    Exactness.  For a finite y, z0 = y - p0 is exact: either p0 = 0, or p0
    has the sign of y and |y - p0| <= 1/2 <= |p0|/2, so y lies between
    p0/2 and 2*p0 and Sterbenz's lemma applies.  For an integer o with
    |p0 + o| < 2^53, p = p0 + o is an exact float, so z0 - o and y - p are
    both the correctly rounded value of the one real number y - p0 - o:
    the same float, except that a zero may differ in sign (y = -0.0 gives
    y - p = -0.0 and z0 - o = +0.0).  F and |z|_inf read z only through
    absolute values, so every value, tie-break and p is that of y - p.
    """

    def __init__(self, f: Expr, restricted: bool = False):
        self.f = f
        self.geo = body_geometry(f)
        self.restricted = restricted
        # where the wrap decides every hit, F's bound on one axis, if any
        self.axis_bound = (_axis_bound(f) if self.geo.axis_monotone
                           and not restricted else None)
        if restricted:
            if not self.geo.skeleton.rational_only:
                raise IrrationalSkeleton(
                    "restricted resonant sets need a rational skeleton")
            rect = fundamental_rectangle(self.geo.skeleton)
            self.r_hat, self.s_hat = rect.r_hat, rect.s_hat

    # -- shared helpers ----------------------------------------------------

    def _moduli(self, q):
        """None when unrestricted; else the int64 arrays (q, r_hat mod q,
        s_hat mod q), one entry per row of the 1-D q.  gcd(p*r, q) depends
        on r mod q only, and the reduced factors keep p*r inside int64 for a
        huge rectangle."""
        if not self.restricted:
            return None
        q = np.asarray(q, dtype=np.int64)
        return (q,) + tuple(np.array([h % int(v) for v in q], dtype=np.int64)
                            for h in (self.r_hat, self.s_hat))

    def _box_radius(self, tau: np.ndarray) -> np.ndarray:
        """Each row's central box radius, an integer 1..64 in a float."""
        c = max(self.geo.offline_min, 1e-12)
        return np.clip(np.ceil(tau / c) + 1, 1, 64)

    # -- exact minimization ---------------------------------------------------

    def minimum(self, x, q, eps: float):
        """Minimum of F(q*x - p) at the point x and its p: a full window
        enumeration for each q <= _EXHAUSTIVE_Q, the candidate blocks
        above.  A scalar q gives (value, (p1, p2)).  A 1-D q gives arrays
        of the values and of their (m, 2) p, as ``minimize`` does: the
        window's q one call each, in order, and the others in one batched
        ``minimize``, so each row equals its scalar call."""
        if np.ndim(q) == 0:
            return (self.minimize_exhaustive if q <= _EXHAUSTIVE_Q
                    else self.minimize)(x, q, eps)
        qs = np.asarray(q)
        small = qs <= _EXHAUSTIVE_Q
        vals, p = np.empty(len(qs)), np.empty((len(qs), 2))
        for i in np.flatnonzero(small).tolist():
            vals[i], p[i] = self.minimize_exhaustive(x, int(qs[i]), eps)
        if not small.all():
            vals[~small], p[~small] = self.minimize(x, qs[~small], eps)
        return vals, p

    def _tau(self, y, cap, mod) -> np.ndarray:
        """Search thresholds of the rows y = q*x: just above
        min(F(wrapped y), cap) with cap = q*eps, where the wrap rint(y)
        counts only when it is an allowed candidate."""
        p0 = np.rint(y)
        z0 = y - p0
        v0 = self.f.eval_xy(z0[:, 0], z0[:, 1])
        if mod is not None:
            v0 = np.where(_coprime(p0, *mod), v0, np.inf)
        return np.minimum(v0, cap) * (1.0 + 1e-9) + 1e-300

    def minimize(self, x, q, eps):
        """Minimum of F(q*x - p) over the candidate lattice set (raw scale)
        and its p, one row per (x, q, eps).

        For a 1-D q of m values, x is one point or m points and eps a scalar
        or m values: arrays of the m minima and of their (m, 2) p.  A scalar
        q is a batch of one, returned as (value, (p1, p2)).  A row with no
        allowed candidate gets (inf, (0, 0)).  The rows go through in
        slices of _MIN_ROWS."""
        qs = np.atleast_1d(q)
        y = qs[:, None] * as_point(x).reshape(-1, 2)
        cap = qs * np.asarray(eps, dtype=float)
        vals, p = np.empty(len(qs)), np.empty((len(qs), 2))
        for i in range(0, len(qs), _MIN_ROWS):
            rows = slice(i, i + _MIN_ROWS)
            mod = self._moduli(qs[rows])
            tau = self._tau(y[rows], cap[rows], mod)
            p0 = np.rint(y[rows])
            vals[rows], p[rows] = self._least(y[rows], p0, self._blocks(
                y[rows], p0, tau, _SCALAR_K_CAP,
                np.zeros(len(tau), dtype=bool)), mod)
        return _as_pair(vals, p) if np.ndim(q) == 0 else (vals, p)

    def minimize_exhaustive(self, x, q: int,
                            eps: float) -> tuple[float, tuple[int, int]]:
        """Same minimum through a full window enumeration (small q), in
        one-row rectangles of _WINDOW_CELLS window points."""
        y = q * as_point(x).reshape(1, 2)
        p0 = np.rint(y)
        mod = self._moduli([q])
        tau = self._tau(y, np.array([q * eps]), mod)[0]
        reach = 0.0     # at most _WINDOW_CAP, the reach of an irrational line
        for lg in self.geo.lines:
            if lg.half.rational:
                L = math.hypot(*lg.half.int_direction())
                reach = max(reach, _arc_steps(lg, tau, 0.5 / L, 1.0,
                                              _WINDOW_CAP))
            else:
                reach = _WINDOW_CAP
        w = int(max(q / 2 + 1, reach + 2))
        span = np.arange(-w, w + 1, dtype=float)
        o1, o2 = (g.reshape(1, -1) for g in np.meshgrid(span, span,
                                                          indexing="ij"))
        row = np.zeros(1, dtype=np.intp)
        blocks = ((row, o1[:, i:i + _WINDOW_CELLS], o2[:, i:i + _WINDOW_CELLS],
                   np.ones((1, min(_WINDOW_CELLS, o1.size - i)), dtype=bool))
                  for i in range(0, o1.size, _WINDOW_CELLS))
        return _as_pair(*self._least(y, p0, blocks, mod))

    def _least(self, y, p0, blocks, mod):
        """Per row of y, the least F(y - p) over the allowed candidates of
        the rectangles and its p, by the ``_pick_minimizer`` rule: (values,
        p) arrays, inf and (0, 0) for a row that has none.  Of each
        rectangle only the least values of each of its rows are kept, the
        only cells that can be their row's pick, and once more than
        _HIT_CELLS are held they are folded to one pick per row (a thin
        tube's rectangles can be one rank wide, every cell its row's
        least); the rule's order is total, so the choice does not depend
        on where the rectangles split or when the folds come."""
        z0 = (y - p0).T.copy()
        # (row index, value, |y - p|_inf, o = p - p0) of the kept cells;
        # within a row o orders as p does, so the rule can read o
        kept = [(np.empty(0, dtype=np.intp), np.empty(0), np.empty(0),
                 np.empty((0, 2)))]
        held = 0
        for rows, o1, o2, valid in blocks:
            z1, z2, vals = self._evaluate(z0, rows, o1, o2)
            if mod is not None:
                valid = self._allowed(p0, rows, o1, o2, valid, mod)
            low = np.fmin.reduce(np.where(valid, vals, np.nan), axis=1,
                                 keepdims=True)
            flat, idx, o = _cells(rows, o1, o2,
                                  valid & ((vals == low) | np.isnan(low)))
            kept.append((idx, vals.ravel()[flat], np.maximum(
                np.abs(z1.ravel()[flat]), np.abs(z2.ravel()[flat])), o))
            held += flat.size
            if held > _HIT_CELLS:
                kept = [_fold(kept)]
                held = kept[0][0].size
        idx, vals, _, o = _fold(kept)
        best, best_p = np.full(len(y), np.inf), np.zeros((len(y), 2))
        best[idx], best_p[idx] = vals, p0[idx] + o
        return best, best_p

    # -- vectorized hit decisions -------------------------------------------

    def hits(self, xs: np.ndarray, q, eps, check: bool = True) -> np.ndarray:
        """Whether F(q*x - p) < q*eps for some allowed p, for the points xs
        of shape (m, 2): shape (m, B) for arrays of B values of q and eps,
        column j for q[j] and eps[j], and shape (m,) for a scalar q and eps
        (a batch of one).  The decisions fill one q-major (B, m) array, a
        slice of at most _HIT_CELLS (q, point) cells at a time (one point
        per slice when there are more q values than that), and come back
        as its transpose.  check=False skips the validation of xs, which
        must then be a finite float array of shape (m, 2) (``any_hit``
        passes the chunk it has validated)."""
        if check:
            xs = as_point(xs).reshape(-1, 2)
        qs = np.atleast_1d(q)
        tau = qs * eps
        out = np.empty((len(qs), len(xs)), dtype=bool)
        step = max(1, _HIT_CELLS // len(qs))
        for i in range(0, len(xs), step):
            self._hits(xs[i:i + step], qs, tau, out[:, i:i + step])
        return out.T if np.ndim(q) else out[0]

    def _hits(self, xs, q, tau, out):
        """``hits`` on one slice of points, for 1-D q and tau = q*eps,
        written into the (len(q), len(xs)) view `out`."""
        if self.geo.axis_monotone and not self.restricted:
            # coordinatewise-monotone body: the wrap is the exact minimizer,
            # decided on one (q, point) array.  int64 q < 2^53 casts exactly
            _wrap_below(self.f, q.astype(float)[:, None], xs[:, 0], xs[:, 1],
                        tau[:, None], out)
            return
        # one row per (q, point): row j*m + i for q[j] and point i
        m = len(xs)
        y = (q[:, None, None] * xs).reshape(-1, 2)
        p0 = np.rint(y)
        z0 = (y - p0).T.copy()
        row_tau = tau.repeat(m)
        mod = self._moduli(q)
        if mod is not None:
            mod = tuple(v.repeat(m) for v in mod)
        hit = np.zeros(len(y), dtype=bool)
        for rows, o1, o2, valid in self._blocks(y, p0, row_tau,
                                                _BATCH_K_CAP, hit):
            below = (self._evaluate(z0, rows, o1, o2)[2]
                     < row_tau[rows][:, None]) & valid
            if mod is not None:
                below = self._allowed(p0, rows, o1, o2, below, mod)
            # a tube's rectangle holds several rows of one owner
            hit[rows[below.any(axis=1)]] = True
        out[...] = hit.reshape(len(q), m)

    def any_hit(self, xs, q0: int, eps) -> np.ndarray:
        """Whether some q = q0 .. q0 + len(eps) - 1 hits each point of xs,
        q deciding as in ``hits`` with eps[q - q0]: shape (m,).

        The points meet _Q_BATCH values of q at a time, one ``hits`` call
        per batch on the points validated here, and a point leaves at its
        first hit.  After the first batch the call may switch paths.  On an unrestricted axis-monotone
        body with a bound F(z) >= B(z) ~ c*|z_k| (``_axis_bound``), a hit
        needs |wrap(q*x_k)| < delta, where delta comes from the largest
        q*eps left (``_axis_radius``).  The q that pass are the points of a
        thin lattice box, about 2*delta*R per point for the R values of q
        left (``_lattice_cells``), and only those cells are decided, by
        the wrap-and-compare of ``hits`` (``_wrap_below``): the same bits,
        at a cost that follows the candidates.  The switch is taken when
        its measured cost per point, _LATTICE_SAMPLE_COST +
        2*delta*R*_LATTICE_CELL_COST in swept cells, is below min(R, 1/h),
        h being the share of the first batch's (point, q) cells that hit:
        the sweep costs about min(R, 1/h) cells per point, since a point
        leaves at its first hit.  Nothing of a call stays on the kernel."""
        xs = as_point(xs).reshape(-1, 2)
        qs = np.arange(q0, q0 + len(eps))
        rest = len(qs) - _Q_BATCH
        alive = np.ones(len(xs), dtype=bool)
        for lo in range(0, len(qs), _Q_BATCH):
            idx = np.flatnonzero(alive)
            if idx.size == 0:
                break
            h = self.hits(xs[idx], qs[lo:lo + _Q_BATCH],
                          eps[lo:lo + _Q_BATCH], False)
            alive[idx[h.any(axis=1)]] = False
            if lo or rest <= 0 or not self.axis_bound:
                continue
            tau = qs[_Q_BATCH:] * eps[_Q_BATCH:]    # as ``hits`` forms it
            delta = _axis_radius(self.axis_bound, tau.max())
            cost = (_LATTICE_SAMPLE_COST
                    + _LATTICE_CELL_COST * 2.0 * delta * rest)
            if cost < rest and cost * h.mean() < 1:
                live = np.flatnonzero(alive)
                got = self._lattice_hits(xs[live], qs[_Q_BATCH], tau, delta)
                if got is not None:
                    alive[live[got]] = False
                    break
        return ~alive

    def _lattice_hits(self, xs, q0, tau, delta):
        """``any_hit`` for q = q0 .. q0 + len(tau) - 1, tau = q*eps,
        deciding only the cells of ``_lattice_cells`` on the bound axis (the
        other q cannot hit); None when it gives none."""
        cells = _lattice_cells(xs[:, self.axis_bound[0]], q0,
                               q0 + len(tau) - 1, delta)
        if cells is None:
            return None
        hit = np.zeros(len(xs), dtype=bool)
        x1, x2 = xs.T.copy()
        for i, q in cells:
            below = np.empty(len(i), dtype=bool)
            _wrap_below(self.f, q, x1[i], x2[i],
                        tau[(q - q0).astype(np.intp)], below)
            hit[i[below]] = True
        return hit

    # -- candidate rectangles -------------------------------------------------

    def _evaluate(self, z0, rows, o1, o2):
        """(z1, z2, F(z)) on a rectangle, z = z0[:, rows] - o, in one
        ``Expr.eval_xy`` call; z0 holds the rows' remainders y - p0 as two
        coordinate rows, whose gathers cost less than a column's."""
        z1 = z0[0][rows][:, None] - o1
        z2 = z0[1][rows][:, None] - o2
        return z1, z2, self.f.eval_xy(z1, z2)

    def _allowed(self, p0, rows, o1, o2, mask, mod):
        """The cells of a rectangle's `mask` whose p = p0 + o passes the
        coprimality of its row's q (``_moduli``, one entry per row)."""
        flat, idx, o = _cells(rows, o1, o2, mask)
        out = np.zeros(mask.size, dtype=bool)
        out[flat] = _coprime(p0[idx] + o, *(m[idx] for m in mod))
        return out.reshape(mask.shape)

    def _blocks(self, y, p0, tau, k_cap, done):
        """Yield (rows, o1, o2, valid) candidate rectangles for the rows not
        yet `done`.  rows indexes y; the offsets o1 and o2 broadcast to
        valid's shape (len(rows), ranks), and valid marks the ranks that a
        rectangle row really has.  Cell (i, k) is p = p0[rows[i]] + o[i, k].

        `done` is read again before each rectangle, so a consumer that sets
        it stops the enumeration for those rows; each source enumerates its
        nearest candidates first.  The sources: the wrap (o = 0); the
        central box of radius b (``_box_radius``), whose rows share the
        Chebyshev rings of offsets (rank 0, the wrap again, is skipped);
        per rational line, the steps of the lattice lines its tube reaches
        that lie outside the box, outward from it; per irrational line,
        rounded points along it, which may repeat a cell of the box.  So on
        a rational skeleton a row's candidates come once each.
        """
        live = np.flatnonzero(~done)
        zero = np.zeros((1, 1))
        # the wrap settles most rows, _HIT_CELLS of them per rectangle
        for i in range(0, live.size, _HIT_CELLS):
            rows = live[i:i + _HIT_CELLS]
            yield rows, zero, zero, np.ones((rows.size, 1), dtype=bool)
        live = np.flatnonzero(~done)
        b = self._box_radius(tau)
        bl = b[live]
        ring = _ring_offsets(int(bl.max(initial=1)))
        for r, lo, hi, valid in _rounds((2 * bl + 1) ** 2 - 1, live, done):
            o = ring[:, lo + 1:hi + 1]      # ranks 1.. of the rings
            yield live[r], o[:1], o[1:], valid
        z0 = (y - p0).T
        for lg in self.geo.lines:
            if done.all():
                return
            if lg.half.rational:
                yield from self._rational_tube(lg, z0, tau, b, k_cap, done)
            else:
                yield from self._irrational_tube(lg, y, p0, tau, k_cap, done)

    def _rational_tube(self, lg, z0, tau, b, k_cap, done):
        """Steps p = p0 + j*v + k*d along the lattice lines j = cross(p, d)
        that each row's tube reaches, outside the row's central box of
        radius b: k = kc + dk, |dk| <= kw, per (row, j).  Row i takes its
        own lines floor(c0_i - reach_i) .. ceil(c0_i + reach_i), so its
        candidates do not depend on the rows beside it.

        The steps of a (row, j) inside the box, |j*v + (kc + dk)*d|_inf <=
        b, are one interval [a, c] of dk, which the box has enumerated
        already.  The others go out as two rectangle rows, one per side,
        nearest the box first: dk = a-1, a-2, .. down to -kw, and c+1, c+2,
        .. up to kw.  A line that meets the box at no dk in [-kw, kw]
        takes a = 1 and c = 0, so that its steps run 0, -1, .. and 1, 2, ..
        from kc.  So every candidate of a row comes once, from the box or
        from one tube line, and the row's set is the union of the box and
        the whole tube.  The (row, line) tables behind them
        (``_tube_steps``) are gone before the first rectangle."""
        owner, counts, (s1, s2), (d1, d2) = _tube_steps(
            lg, z0, tau, b, k_cap, np.flatnonzero(~done))
        for t, lo, hi, valid in _rounds(counts, owner, done):
            m = np.arange(lo, hi, dtype=float)
            yield (owner[t], s1[t, None] + np.multiply.outer(d1[t], m),
                   s2[t, None] + np.multiply.outer(d2[t], m), valid)

    def _irrational_tube(self, lg, y, p0, tau, k_cap, done):
        """Rounded points y -/+ k*_IRR_STEP*u along the line, k = 1..kmax_i,
        as offsets rint(y - arc*u) - p0."""
        u = lg.half.unit_direction()
        live = np.flatnonzero(~done)
        kmax = np.floor(_arc_steps(lg, tau[live], 1e-6, _IRR_STEP, k_cap))
        for t, lo, hi, valid in _rounds(2 * kmax.astype(np.int64), live,
                                        done):
            i = live[t]
            m = np.arange(lo, hi)
            arc = (m // 2 + 1) * (1 - 2 * (m % 2)) * _IRR_STEP
            yield (i, np.rint(y[i, 0, None] - arc * u[0]) - p0[i, 0, None],
                   np.rint(y[i, 1, None] - arc * u[1]) - p0[i, 1, None], valid)


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


def _tube_steps(lg: LineGeometry, z0, tau, b, k_cap, live):
    """The tube of ``_Kernel._rational_tube`` for the rows `live`: one
    entry per (row, lattice line, side) with steps outside the box, as
    arrays (owner, counts, (start1, start2), (step1, step2)); its steps are
    start + m*step for m = 0 .. count - 1."""
    r, s = lg.half.int_direction()
    L = math.hypot(r, s)
    # Bezout vector v with v1*s - v2*r = 1 steps across lattice lines
    _, v1, v2 = _xgcd(s, -r)
    z1, z2 = z0[0][live], z0[1][live]
    c0 = z1 * s - z2 * r    # cross(z0, d): offset index units
    a0 = z1 * r + z2 * s    # dot(z0, d)
    reach = L * np.minimum(1.0, 2.0 * lg.width(1.0, tau[live]))
    j0 = np.floor(c0 - reach)
    n = np.ceil(c0 + reach) - j0 + 1    # lattice lines of each row
    over = np.flatnonzero(n > _MAX_LINES)
    if over.size:
        # the (row, line) tables below are as wide as the most lines of a
        # row, and each side of a (row, line) may be a rectangle row
        raise StarkitError(
            f"the tube along the skeleton line of slope {s}/{r} meets "
            f"{int(n[over[0]])} lattice lines, more than the "
            f"{_MAX_LINES} that one row may take")
    col = np.arange(int(n.max(initial=0)))
    j = j0[:, None] + col               # (row, line), padded to the widest
    kw = np.ceil(_arc_steps(lg, tau[live, None],
                            np.abs(c0[:, None] - j) / L, L, k_cap))
    np.maximum(kw, 1, out=kw)
    kc = np.rint((a0[:, None] - j * (v1 * r + v2 * s)) / L / L)
    # offset of each (row, line)'s step kc: j*v + kc*d, an exact integer
    base = j * v1 + kc * r, j * v2 + kc * s
    del j, kc   # a 4,096-point hit chunk's (row, line) tables are 90 KB each
    # [a, c], the dk in [-kw, kw] with |base + dk*d|_inf <= b.  Per
    # coordinate with a step e = r or s other than 0, |o + dk*e| <= b
    # holds for the integers dk from ceil(lo/|e|) to floor(hi/|e|), with
    # lo, hi = -b - o, b - o for e > 0 and o - b, o + b for e < 0.  These
    # are integers far below 2^53, exact in floats, and a float quotient
    # n/|e| rounds to no other side of an integer: n/|e| is one, then
    # exact, or it is at least 1/|e| away from one and rounds by at
    # most |n/e|*2^-53, which is less.  So the ceil and floor of the
    # float quotients are those of the real ones.  A coordinate with e
    # = 0 is o along the whole line: the line misses the box if |o| > b.
    bf = b[live, None]
    a, c = -kw, kw.copy()
    for o, e in zip(base, (r, s)):
        if e:
            lo, hi = (-bf - o, bf - o) if e > 0 else (o - bf, o + bf)
            if abs(e) > 1:
                lo, hi = np.ceil(lo / abs(e)), np.floor(hi / abs(e))
            np.maximum(a, lo, out=a)
            np.minimum(c, hi, out=c)
        else:
            np.copyto(c, -np.inf, where=np.abs(o) > bf)
    miss = a > c
    np.copyto(a, 1.0, where=miss)
    np.copyto(c, 0.0, where=miss)
    # one entry (side, row i, line k) per side with steps: side 0 runs
    # down from dk = a-1 to -kw, side 1 up from c+1 to kw, so with g = a
    # or c and sign -1 or +1 it starts at g + sign and has kw - sign*g
    # steps
    has = np.empty((2,) + kw.shape, dtype=bool)
    np.greater(a, -kw, out=has[0])
    np.less(c, kw, out=has[1])
    side, i, k = np.nonzero(has & (col < n[:, None]))
    sign = 2.0 * side - 1.0
    g = np.where(side, c[i, k], a[i, k])
    counts, first = kw[i, k] - sign * g, g + sign
    start1, step1 = base[0][i, k] + first * r, sign * r
    start2, step2 = base[1][i, k] + first * s, sign * s
    owner = live[i]
    return owner, counts, (start1, start2), (step1, step2)


@functools.lru_cache(maxsize=64)    # box radii are 1..64
def _ring_offsets(b: int) -> np.ndarray:
    """Integer offsets of [-b, b]^2 by Chebyshev norm, as a (2, n) float
    array of coordinates: the first (2c+1)^2 columns are the box of radius
    c."""
    span = np.arange(-b, b + 1)
    gx, gy = np.meshgrid(span, span, indexing="ij")
    off = np.column_stack([gx.ravel(), gy.ravel()])
    off = off[np.argsort(np.abs(off).max(axis=1), kind="stable")]
    off = np.ascontiguousarray(off.T, dtype=float)
    off.flags.writeable = False     # shared by every caller
    return off


def _rounds(counts: np.ndarray, owner: np.ndarray, done: np.ndarray):
    """Enumerate ranks 0 .. counts[r]-1 of every row r, low ranks first, as
    rectangles of at most _HIT_CELLS cells: rows r by ranks lo .. hi-1.
    A rank range spans _HIT_CELLS // (rows left) ranks, at least
    _MIN_RANKS and at most the ranks its rows have left, and its rows go
    in rectangles of as many as keep to _HIT_CELLS cells, one at least, so
    a row wider than the cap is split along its ranks.
    Before each later rank range, rows whose owner[r] is `done` are
    dropped, and so are rows whose ranks are used up.
    Yields (r, lo, hi, valid), where valid marks the ranks below counts[r]."""
    rows = np.flatnonzero(counts)
    lo = 0
    while rows.size:
        c = counts[rows]
        hi = min(lo + max(_MIN_RANKS, _HIT_CELLS // rows.size), int(c.max()))
        ranks = np.arange(lo, hi)
        step = max(1, _HIT_CELLS // (hi - lo))
        for i in range(0, rows.size, step):
            yield rows[i:i + step], lo, hi, ranks < c[i:i + step, None]
        lo = hi
        rows = rows[(c > lo) & ~done[owner[rows]]]


def _cells(rows, o1, o2, mask):
    """The cells of a rectangle's `mask`: their flat positions, row indices
    and (n, 2) offsets o."""
    flat = np.flatnonzero(mask)
    o = np.column_stack([np.broadcast_to(a, mask.shape).ravel()[flat]
                         for a in (o1, o2)])
    return flat, rows[flat // mask.shape[1]], o


def _fold(kept):
    """The kept (row index, value, zinf, o) cells of ``_Kernel._least``,
    concatenated and cut to each row's ``_pick_minimizer`` pick."""
    both = [np.concatenate(a) for a in zip(*kept)]
    pick = _pick_minimizer(*both)
    return [a[pick] for a in both]


def _pick_minimizer(idx, vals, zinf, p):
    """Deterministic argmin per row: for each distinct row index of idx, the
    least value, value ties broken by the nearest z (zinf = |z|_inf), then
    lexicographically by p (or by o = p - p0, which orders the candidates
    of a row as p does).  Returns the position of each row's pick, in
    ascending order of the rows.  The order is total, so the candidates
    may come in any order.  The choice is window-independent only among
    exact float ties: along a nearly flat tube a far candidate can undercut
    a near one by rounding (about 1e-12 of the value), and then a wider
    window picks the far one."""
    # only a row's least values (all of them if it has only NaN) can come
    # first, so the lexsort runs over those alone
    low = np.full(int(idx.max(initial=-1)) + 1, np.nan)
    np.fmin.at(low, idx, vals)
    low = low[idx]
    tied = np.flatnonzero((vals == low) | np.isnan(low))
    order = tied[np.lexsort((p[tied, 1], p[tied, 0], zinf[tied], vals[tied],
                             idx[tied]))]
    return order[np.flatnonzero(np.diff(idx[order], prepend=-1))]


def _as_pair(vals, p) -> tuple[float, tuple[int, int]]:
    """The first row of ``_Kernel._least``'s arrays as (value, (p1, p2))."""
    return float(vals[0]), (int(p[0, 0]), int(p[0, 1]))


def _coprime(p, q, r, s) -> np.ndarray:
    """gcd(p1*r, q) = gcd(p2*s, q) = 1 for each candidate row of p, with q,
    r and s given per candidate (``_Kernel._moduli``)."""
    pi = p.astype(np.int64)
    g1 = np.gcd(np.abs(pi[:, 0] * r) % q, q)
    g2 = np.gcd(np.abs(pi[:, 1] * s) % q, q)
    return (g1 == 1) & (g2 == 1)


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
# The wrap decision, an axis bound, and the q that can pass it
# ---------------------------------------------------------------------------

# the integers of _lattice_cells stay below this, held in floats, so that
# they and every product of them that it forms are exact
_LATTICE_LIMIT = 2.0 ** 50
_REDUCE_STEPS = 64      # Lagrange steps per basis, at most


def _wrap_below(f: Expr, q, x1, x2, tau, out):
    """out = F(wrap(q*x1), wrap(q*x2)) < tau with wrap(y) = y - rint(y),
    for float q, x1, x2 and tau that broadcast to out's shape: a (B, 1)
    column of q and of tau against (m,) coordinates decide a (q, point)
    array, and (n,) arrays decide n cells.  q*x is the float product,
    wrapped in place; the subtraction is exact (``_Kernel``)."""
    y1, y2 = q * x1, q * x2
    y1 -= np.rint(y1)
    y2 -= np.rint(y2)
    np.less(f.eval_xy(y1, y2), tau, out=out)


def _lower(f: Expr, k: int):
    """(c, B) with F(z) >= B(z) in floats for every finite z, where B is
    a tree that reads z_k alone and B(z) ~ c*|z_k|; None when the rules
    give none.  The rules: an Abs atom with a zero float coefficient on
    the other axis is its own bound (the atom's plan drops that term); a
    Scale scales its child's bound; a Max takes its child with the largest
    c; a Min needs a bound on every child and takes their Min; a GeoMean
    gives none (its float power has no proven rounding here).  Every
    float operation of F above the atoms (times a positive factor, max,
    min) is monotone, so F(z) >= B(z) holds node by node, and B(z) is
    a non-decreasing function of |z_k|."""
    if isinstance(f, Abs):
        coef = f.form.floats()
        return (abs(coef[k]), f) if coef[1 - k] == 0.0 else None
    if isinstance(f, Scale):
        got = _lower(f.child, k)
        return None if got is None else (float(f.factor) * got[0],
                                         Scale(f.factor, got[1]))
    found = [_lower(c, k) for c in getattr(f, "children", ())]
    if isinstance(f, Max):
        return max((g for g in found if g is not None),
                   key=lambda g: g[0], default=None)
    if isinstance(f, Min) and None not in found:
        return min(g[0] for g in found), Min(*(g[1] for g in found))
    return None


def _axis_bound(f: Expr):
    """(k, c, B) for the axis k whose ``_lower`` bound has the larger
    c > 0 (axis 0 on a tie), or None: F(z) >= B(z) ~ c*|z_k|."""
    best = None
    for k in (0, 1):
        got = _lower(f, k)
        if got is not None and got[0] > (0.0 if best is None else best[1]):
            best = (k, *got)
    return best


def _axis_radius(bound, tau: float) -> float:
    """A float t with B(t*e_k) >= tau, for the bound (k, c, B) of
    ``_axis_bound``, starting from tau/c: then every finite z with |z_k|
    >= t has F(z) >= B(z) >= B(t*e_k) >= tau, as B is non-decreasing in
    |z_k|, so F(z) < tau needs |z_k| < t.  Each retry raises t."""
    k, c, b = bound
    t = tau / c
    z = [0.0, 0.0]
    while True:
        z[k] = t
        if not b.eval_xy(*z) < tau:
            return t
        t = t * (1.0 + 2.0 ** -45) + 2.0 ** -1074


def _reduced_basis(x, width: float, scale: float):
    """Integer bases u = (q1, p1), v = (q2, p2) of the lattice
    {(q, q*x - p)}, one per x, Lagrange-reduced as far as floats tell in
    the norm of (q/width, (q*x - p)/scale), and d = q2*p1 - q1*p2, all
    held exactly in floats.

    The start is u = (1, rint(x)), v = (0, 1), d = -1.  Each step swaps u
    and v when u is the longer (d changes sign) and then sets v -= mu*u
    for an integer mu, so (u, v) stays a basis and d stays +-1 whatever
    the rounding of the float norms: they decide only how short the
    basis gets.  A step is taken only while it shortens v and keeps both
    integers of v below _LATTICE_LIMIT.  A float mu*u that is not exact
    is 2^53 or more, so it cannot pass that test, and a step that passes
    is exact.  There are at most _REDUCE_STEPS steps."""
    m = len(x)
    q1, p1 = np.ones(m), np.rint(x)
    q2, p2 = np.zeros(m), np.ones(m)
    d = np.full(m, -1.0)

    def coords(q, p, xi):
        return q / width, (q * xi - p) / scale

    live = np.arange(m)
    for _ in range(_REDUCE_STEPS):
        if not live.size:
            break
        xi = x[live]
        uq, up, vq, vp = q1[live], p1[live], q2[live], p2[live]
        s1, t1 = coords(uq, up, xi)
        s2, t2 = coords(vq, vp, xi)
        swap = s1 * s1 + t1 * t1 > s2 * s2 + t2 * t2
        uq, vq = np.where(swap, vq, uq), np.where(swap, uq, vq)
        up, vp = np.where(swap, vp, up), np.where(swap, up, vp)
        s1, s2 = np.where(swap, s2, s1), np.where(swap, s1, s2)
        t1, t2 = np.where(swap, t2, t1), np.where(swap, t1, t2)
        d[live] = np.where(swap, -d[live], d[live])
        mu = np.rint((s1 * s2 + t1 * t2) / (s1 * s1 + t1 * t1))
        nq, np_ = vq - mu * uq, vp - mu * up
        s, t = coords(nq, np_, xi)
        ok = ((mu != 0) & (s * s + t * t < s2 * s2 + t2 * t2)
              & (np.abs(nq) < _LATTICE_LIMIT) & (np.abs(np_) < _LATTICE_LIMIT))
        q1[live], p1[live] = uq, up
        q2[live], p2[live] = np.where(ok, nq, vq), np.where(ok, np_, vp)
        live = live[ok]
    return q1, p1, q2, p2, d


def _remainder(q, p, x):
    """r = q*x - p in floats and a bound e >= |r - (q*x - p)| on its
    error, for integers q, p below _LATTICE_LIMIT and x in [0, 1): q*x
    rounds by at most 2^-53*|q|, the subtraction by 2^-53*|r|."""
    r = q * x - p
    return r, (np.abs(q) + np.abs(r)) * 2.0 ** -52


def _lattice_cells(x, qlo: int, qhi: int, delta: float):
    """Cells (i, q) that hold every q in [qlo, qhi] with
    |wrap(q*x[i])| < delta, x[i] in [0, 1) and wrap as in
    ``_wrap_below``: a generator of arrays of i and of q (integers in
    floats) of at most _HIT_CELLS cells, or None when an integer would
    leave the range where the margins below are proven (then the caller
    decides every q).

    Such a q has an integer p with |q*x - p| < dr = delta + qhi*2^-51 in
    the reals (for delta < qhi): the float q*x is within 2^-53*qhi of the
    real one, the wrap subtracts exactly, and the float sum dr rounds by
    less than 2^-52*qhi.
    So the cells are the points (q, r = q*x - p) of the lattice in the box
    [qlo, qhi] x (-dr, dr), about 2*dr*(qhi - qlo + 1) of them per point.
    In the basis u, v of ``_reduced_basis``, reduced for the box scaled to
    a square (q1 > 0 after a swap or a sign change), a point is a*u + b*v
    with b = d*(q1*r - r1*q) and r1 = q1*x - p1.  The b of the box form a
    range of rows, from the corners and r1's error bound e1 (each float
    bound widened by 2^-48 of the magnitudes it sums, against a rounding
    of at most a few 2^-53 of them).  In a row, a meets
    qlo <= a*q1 + b*q2 <= qhi exactly: n/q1 for integers |n| < 2^53 and
    q1 >= 1 rounds to no other side of an integer, since n/q1 is one, or
    at least 1/q1 away from one, and rounds by less.  And a meets
    |a*r1 + b*r2| < dr in the reals, which the float r1, r2 and their
    bounds e1, e2 turn into |a*r1f + b*r2f| < dr + |a|*e1 + |b|*e2 for
    every a of the first range; its two float ends are widened by 2^-48
    of the larger, against at most 4*2^-53 of it from the rounding, and
    dropped where r1f = 0.  Any cell more is only decided in vain, never
    wrong.  The rows and then their cells go out in slices through
    ``_flat_ranks``."""
    x = np.asarray(x, dtype=float)
    dr = delta + qhi * 2.0 ** -51
    width = float(qhi - qlo + 1)
    q1, p1, q2, p2, d = _reduced_basis(x, width, max(dr, 1.0 / width))
    flip = q1 == 0
    q1, q2 = np.where(flip, q2, q1), np.where(flip, q1, q2)
    p1, p2 = np.where(flip, p2, p1), np.where(flip, p1, p2)
    sign = np.where(q1 < 0, -1.0, 1.0)
    q1, p1, d = sign * q1, sign * p1, np.where(flip, -d, d) * sign
    r1, e1 = _remainder(q1, p1, x)
    r2, e2 = _remainder(q2, p2, x)
    reach = q1 * dr
    # the extremes of r_u*q over the box, for the real r_u in r1 -+ e1,
    # and then those of b*d = q1*r - r_u*q
    top = np.maximum(qlo * (r1 + e1), qhi * (r1 + e1))
    low = np.minimum(qlo * (r1 - e1), qhi * (r1 - e1))
    pad = (reach + qhi * (np.abs(r1) + e1)) * 2.0 ** -48
    lo, hi = -reach - top - pad, reach - low + pad
    blo = np.ceil(np.where(d > 0, lo, -hi))
    bhi = np.floor(np.where(d > 0, hi, -lo))
    span = np.maximum(np.abs(blo), np.abs(bhi))
    if qhi >= _LATTICE_LIMIT or not (
            span * np.maximum(np.abs(q2), 1.0) < _LATTICE_LIMIT).all():
        return None
    return _box_cells(qlo, qhi, dr, blo,
                      np.maximum(bhi - blo + 1, 0).astype(np.int64),
                      (q1, r1, e1), (q2, r2, e2))


def _box_cells(qlo, qhi, dr, blo, rows, u, v):
    """The cells of ``_lattice_cells``: rows b = blo[i] .. blo[i] +
    rows[i] - 1 of point i, for u = (q1, r1, e1) and v = (q2, r2, e2).
    The rows go _HIT_CELLS at a time, and only their (base, count) stay
    while their cells go out."""
    for i, k in _flat_ranks(rows):
        step = u[0][i]
        base, count = _row_span(qlo, qhi, dr, blo[i] + k,
                                *(w[i] for w in u), *(w[i] for w in v))
        for j, m in _flat_ranks(count):
            yield i[j], base[j] + m * step[j]


def _row_span(qlo, qhi, dr, b, q1, r1, e1, q2, r2, e2):
    """(base, count) for the rows b of ``_lattice_cells``: a row's a-range
    gives the cells q = base + m*q1 for m = 0 .. count - 1."""
    qb = b * q2
    first, last = np.ceil((qlo - qb) / q1), np.floor((qhi - qb) / q1)
    tol = (dr + np.maximum(np.abs(first), np.abs(last)) * e1
           + np.abs(b) * e2) * (1.0 + 2.0 ** -48)
    t = b * r2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ends = (-tol - t) / r1, (tol - t) / r1
    lo = np.where(r1 == 0, -np.inf, np.minimum(*ends))
    hi = np.where(r1 == 0, np.inf, np.maximum(*ends))
    pad = np.maximum(np.abs(lo), np.abs(hi)) * 2.0 ** -48
    with np.errstate(over="ignore", invalid="ignore"):  # NaN: no narrowing
        first = np.fmax(first, np.ceil(lo - pad))
        last = np.fmin(last, np.floor(hi + pad))
    count = np.maximum(last - first + 1, 0)
    return np.where(count > 0, first, 0) * q1 + qb, count.astype(np.int64)


def _flat_ranks(counts):
    """(j, k) arrays for the ranks k = 0 .. counts[j] - 1 of every j in
    order, at most _HIT_CELLS pairs at a time."""
    starts = np.cumsum(counts) - counts
    total = int(starts[-1] + counts[-1]) if counts.size else 0
    for lo in range(0, total, _HIT_CELLS):
        hi = min(lo + _HIT_CELLS, total)
        # the j whose ranks meet [lo, hi), the first and last cut to it
        j0 = bisect.bisect_right(starts, lo) - 1
        j1 = bisect.bisect_right(starts, hi - 1) - 1
        n = counts[j0:j1 + 1].copy()
        n[-1] = hi - starts[j1]
        n[0] -= lo - starts[j0]
        j = np.repeat(np.arange(j0, j1 + 1), n)
        yield j, np.arange(lo, hi) - starts[j]


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
    raw, p = _Kernel(f, spec.restricted).minimum(x, spec.q, spec.epsilon)
    if raw < spec.q * spec.epsilon:
        return ResonantHit(x=(float(x[0]), float(x[1])), q=spec.q, p=p,
                           value=raw / spec.q)
    return None


def batch_hits(f: Expr, xs: np.ndarray, q: int, eps: float,
               restricted: bool = False) -> np.ndarray:
    """Vectorized membership decisions for an (m, 2) array of torus points."""
    return _Kernel(f, restricted).hits(xs, q, eps)


def resonant_measure(f: Expr, spec: ResonantSpec, samples: int = 10_000,
                     seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of |B_q| (or |B*_q|) with its standard error."""
    kern = _Kernel(f, spec.restricted)
    return indicator_estimate(lambda pts: kern.hits(pts, spec.q, spec.epsilon),
                              samples, seed)


def overlap_estimate(f: Expr, spec_a: ResonantSpec, spec_b: ResonantSpec,
                     samples: int = 10_000, seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of |B*_q ∩ B*_q'| on a common sample stream."""
    ka, kb = _Kernel(f, spec_a.restricted), _Kernel(f, spec_b.restricted)
    return indicator_estimate(
        lambda pts: (ka.hits(pts, spec_a.q, spec_a.epsilon)
                     & kb.hits(pts, spec_b.q, spec_b.epsilon)), samples, seed)


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
# halvings of the section edges per ``hits`` call: a call of a few hundred
# points costs mostly its fixed part, so ``density(..., method=
# "quadrature")`` on the sheared body took 96, 79, 73, 72, 77 and 91 ms of
# CPU at 1 to 6 halvings per call at eps = 0.375, and 631, 451, 423 and
# 446 ms at 1, 3, 4 and 5 at eps = 0.15 (in-process, 2-vCPU Xeon, medians
# of 9 alternating runs).  Every point the search tests is exact whatever
# the depth (``_section_length``)
_SECTION_DEPTH = 4
_QUAD_TOL = 1e-7       # adaptive Simpson tolerance of the periodized quadrature


def _section_length(kern: _Kernel, eps: float, x2) -> np.ndarray:
    """Measures of the sections {x1 in [0,1] : (x1, x2) in B_1(F, eps)},
    one for each value of the 1-D x2.

    Each section scans its own grid of _SECTION_GRID cells in one ``hits``
    call, for memory.  One call for the grids of a whole level took 0.90x
    the CPU of ``density(..., method="quadrature")`` on the sheared body
    at eps = 0.375 (fresh interpreters, 2-vCPU VM, 6 alternating runs
    each), with the same value, but raised ru_maxrss from 37.5 to 38.5
    MB.  Then every hit/miss edge [x1[e], x1[e] + 2^-10] of every section
    is bisected 40 times, as a search over integers.  The grid points
    are exact (i * 2^-10), and with r halvings left an edge's bracket is
    [lo, lo + 2^r u], u = 2^-50, lo = x1[e] + k*u for an integer
    k < 2^40.  Such numbers are multiples of 2^-51 in [0, 1], exact
    doubles since the grid has 2^10 <= 2^(53-41) cells, so each halving's
    midpoint is exact and strictly inside: the search is the halvings of
    ``starbody._bisect`` on [x1[e], x1[e + 1]], the same midpoints, the
    same answers and no fixed point, and its crossing, x1[e] + (2k + 1)
    * u/2, is that bisection's, bit for bit.  One ``hits`` call serves
    _SECTION_DEPTH halvings of the whole batch: with r halvings left and
    d of them in the call, it tests the points x1[e] + (k + j*2^(r-d)) * u
    for j = 1 .. 2^d - 1 of every edge, each row carrying the x2 of its
    section, and a d-level descent over j moves k as the d halvings do,
    whether or not the answers are monotone in x1.  A row's candidates,
    its own lattice lines in ``_rational_tube`` included, do not depend on
    the rows beside it, so a batch's lengths equal those of batches of
    one, bit for bit.
    """
    x2 = np.asarray(x2, dtype=float)
    x1 = np.linspace(0.0, 1.0, _SECTION_GRID + 1)
    h = np.array([kern.hits(np.column_stack([x1, np.full_like(x1, v)]), 1, eps)
                  for v in x2])
    sec, edges = np.nonzero(h[:, :-1] != h[:, 1:])
    cross = x1[edges]
    if len(edges):
        h_left, rows = h[sec, edges][:, None], np.arange(len(edges))
        k = np.zeros(len(edges))    # integers, exact as floats
        for r in range(40, 0, -_SECTION_DEPTH):
            d = min(_SECTION_DEPTH, r)
            offsets = np.arange(1.0, 2 ** d) * 2.0 ** (r - d)
            pts = np.empty((len(edges), len(offsets), 2))
            pts[..., 0] = cross[:, None] + (k[:, None] + offsets) * 2.0 ** -50
            pts[..., 1] = x2[sec, None]
            same = kern.hits(pts.reshape(-1, 2), 1, eps).reshape(
                len(edges), -1) == h_left
            j = np.zeros(len(edges), dtype=np.intp)
            for half in 2 ** np.arange(d - 1, -1, -1):
                j += half * same[rows, j + half - 1]
            k += j * 2.0 ** (r - d)
        cross = cross + (2.0 * k + 1.0) * 2.0 ** -51
    # sum each section's runs of True cells between its refined boundaries
    ends = iter(cross.tolist())
    out = np.empty(len(x2))
    for i, n in enumerate(np.bincount(sec, minlength=len(x2)).tolist()):
        b = ([0.0] * bool(h[i, 0]) + [next(ends) for _ in range(n)]
             + [1.0] * bool(h[i, -1]))
        total = 0.0
        for lo, hi in zip(b[::2], b[1::2]):
            total += hi - lo
        out[i] = total
    return out


def _periodized_quadrature(f: Expr, eps: float, budget: int = 20_000) -> float:
    """Adaptive Simpson over x2 in [0, 1] of the section lengths, walked one
    level of the tree at a time.

    The two new midpoints of every open interval of a level go through one
    ``_section_length`` call.  Each interval then takes the decision of the
    depth-first recursion: a leaf at depth 0, a leaf with the Richardson
    term once |left + right - whole| < 15 tol, else two halves with tol / 2.
    The values are combined bottom-up, a split interval's as (left half) +
    (right half), which are the depth-first sums in the same order, so the
    value is the depth-first value bit for bit.  Both walks evaluate the
    same x2, so NonConvergent is raised for the same inputs: those that
    need more than `budget` sections.
    """
    kern = _Kernel(f)
    evals = 0

    def g(x2):
        nonlocal evals
        evals += len(x2)
        if evals > budget:
            raise NonConvergent("quadrature evaluation budget exhausted")
        return _section_length(kern, eps, x2).tolist()

    def simpson(a, fa, m, fm, b, fb):
        return (b - a) * (fa + 4.0 * fm + fb) / 6.0

    fa, fm, fb = g([0.0, 0.5, 1.0])
    # an open interval is (a, fa, m, fm, b, fb, whole, tol, depth)
    level = [(0.0, fa, 0.5, fm, 1.0, fb, simpson(0.0, fa, 0.5, fm, 1.0, fb),
              _QUAD_TOL, 48)]
    levels = []     # per level, a leaf's value or None for a split interval
    while level:
        mids = [x for a, _, m, _, b, *_ in level
                for x in (0.5 * (a + m), 0.5 * (m + b))]
        gs = g(mids)
        values, below = [], []
        for (a, fa, m, fm, b, fb, whole, tol, depth), lm, flm, rm, frm in zip(
                level, mids[::2], gs[::2], mids[1::2], gs[1::2]):
            left = simpson(a, fa, lm, flm, m, fm)
            right = simpson(m, fm, rm, frm, b, fb)
            if depth <= 0:
                values.append(left + right)
            elif abs(left + right - whole) < 15.0 * tol:
                values.append(left + right + (left + right - whole) / 15.0)
            else:
                values.append(None)
                below += [(a, fa, lm, flm, m, fm, left, tol / 2.0, depth - 1),
                          (m, fm, rm, frm, b, fb, right, tol / 2.0, depth - 1)]
        levels.append(values)
        level = below
    sums = []       # the values of the level below, in order
    for values in reversed(levels):
        pairs = iter(sums)
        sums = [next(pairs) + next(pairs) if v is None else v for v in values]
    return sums[0]


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
        kern = _Kernel(f)
        p, se = indicator_estimate(lambda pts: kern.hits(pts, 1, epsilon),
                                   samples, seed, stratified=True)
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
