"""Planar distance functions as an expression algebra.

A distance function F: R^2 -> [0, inf) with F(t*x) = t*F(x) for t >= 0 is
represented by a tree over the closed algebra

    Abs(linear form) | Min(...) | Max(...) | GeoMean(...) | Scale(c, child)

which keeps zero sets computable (finite unions of lines through the
origin) and is degree-1 homogeneous by construction.  Evaluation
broadcasts over numpy point arrays of shape ``(..., 2)``.

Alongside evaluation this module extracts the skeleton F^{-1}(0) with an
exact rational/irrational slope classification, measures the widths of the
unbounded components, fits their decay exponent (the computable surrogate
for "carries infinite mass"), and computes the fundamental rectangle
(s_hat, r_hat) from the lcm's of the rational slopes.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import DegenerateExpr, FitFailure, IrrationalSkeleton
from .exact import Quad

_WIDTH_CAP = 1e12  # beyond this the sublevel set is treated as unbounded sideways
# points per slice of a ray crossing, and (point, q) cells per slice of
# measure._Kernel.hits: 64 KB per float array.  A temporary of 128 KB or more
# comes from mmap (glibc's default threshold) and page-faults afresh at each
# allocation: unsliced, four 1e5-point crossings took 147,000 minor faults
# instead of 700, and 1.5x the CPU (2-vCPU Xeon)
_SLICE_POINTS = 1 << 13


def as_point(x) -> np.ndarray:
    """Validate and convert a point (or array of points) to float ndarray:
    ValueError for a last dimension other than 2 and for a NaN or infinite
    coordinate."""
    p = np.asarray(x, dtype=float)
    if p.shape[-1] != 2:
        raise ValueError("points must have final dimension 2")
    if not np.all(np.isfinite(p)):
        raise ValueError("points must be finite")
    return p


# ---------------------------------------------------------------------------
# Expression algebra
# ---------------------------------------------------------------------------

Number = Union[int, float, Fraction, Quad]


@dataclass(frozen=True)
class LinearForm:
    """The map (x1, x2) -> a*x1 + b*x2 with exact coefficients."""

    a: Quad
    b: Quad

    def __init__(self, a: Number, b: Number):
        object.__setattr__(self, "a", Quad.of(a))
        object.__setattr__(self, "b", Quad.of(b))
        if self.a.sign() == 0 and self.b.sign() == 0:
            raise DegenerateExpr("linear form (0, 0) vanishes identically")

    def floats(self) -> tuple[float, float]:
        return float(self.a), float(self.b)


class Expr:
    """Base class; subclasses are immutable and safe to share across threads."""

    def __call__(self, x):
        return self.evaluate(x)

    def evaluate(self, x):
        """Evaluate F at x; x may be a pair or an array of shape (..., 2)."""
        p = as_point(x)
        v = self._eval(p[..., 0], p[..., 1])
        return float(v) if np.ndim(v) == 0 else v

    def eval_xy(self, x1, x2):
        """Raw evaluation on pre-validated coordinate arrays of one shape
        (hot path).  The coordinates must be finite: an atom that drops a
        zero coefficient's term (``Abs``) does not read the other
        coordinate, so an infinity or NaN there need not reach the
        value."""
        return self._eval(x1, x2)

    def _eval(self, x1, x2):
        raise NotImplementedError

    def zero_lines(self) -> frozenset[Optional[Quad]]:
        """Exact slopes of the lines making up F^{-1}(0); None is vertical."""
        raise NotImplementedError


@dataclass(frozen=True)
class Abs(Expr):
    form: LinearForm

    def __init__(self, a, b=None):
        form = a if isinstance(a, LinearForm) and b is None else LinearForm(a, b)
        object.__setattr__(self, "form", form)
        # the evaluation plan for the hot path (``_eval``); not a dataclass
        # field, so equality and hashing still use the exact form only
        fa, fb = form.floats()
        if fa < 0:
            fa, fb = -fa, -fb
        terms = [(k, None if abs(v) == 1.0 else abs(v))
                 for k, v in enumerate((fa, fb)) if v != 0]
        second = None if len(terms) == 1 else (
            *terms[1], operator.sub if fb < 0 else operator.add)
        object.__setattr__(self, "_plan", (terms[0], second))

    def _eval(self, x1, x2):
        """|fa*x1 + fb*x2| on the float coefficients, without the arithmetic
        that cannot change it: the form is negated when fa < 0, a zero
        coefficient drops its term, a term of its own is |c|*x (or x for
        c = +-1), and of two terms the second is added or, for fb < 0,
        |fb|*x2 (or x2) is subtracted.

        On finite coordinates the value is bit for bit that of
        ``np.abs(fa*x1 + fb*x2)``.  Rounding to nearest is symmetric, so
        (-c)*x = -(c*x) and (-a) + (-b) = -(a + b): the absolute value of
        the negated form is that of the form, and |c*x| = ||c|*x|.  1.0*x
        = x.  a - b is by definition a + (-b), and -(|fb|*x2) = fb*x2.  For
        a zero fb, fb*x2 is +-0 (x2 finite), and v + (+-0) = v for v != 0;
        when v is itself +-0 the sum is a zero of some sign, which the
        absolute value makes +0.  The same holds with the roles of the
        coordinates swapped.
        Only non-finite coordinates differ: 0*inf = NaN, so the full form
        turns an infinite other coordinate into NaN, where the plan does not
        read that coordinate (``eval_xy`` takes finite coordinates)."""
        x = (x1, x2)
        (i, c), second = self._plan
        t = x[i] if c is None else c * x[i]
        if second is not None:
            j, d, op = second
            t = op(t, x[j] if d is None else d * x[j])
        return np.abs(t)

    def zero_lines(self):
        # a*x1 + b*x2 = 0  <=>  x2 = (-a/b) x1, vertical when b == 0
        a, b = self.form.a, self.form.b
        return frozenset([None if b.sign() == 0 else (-a) / b])


@dataclass(frozen=True)
class Combinator(Expr):
    """A node over one or more child expressions.  Equality compares the
    class as well as the children, so Min(a, b) != Max(a, b); hashing
    reads the children only, so hash(Min(a, b)) == hash(Max(a, b))."""

    children: tuple[Expr, ...]

    def __init__(self, *children):
        if not children:
            raise ValueError("combinators need at least one child")
        if not all(isinstance(c, Expr) for c in children):
            raise TypeError("children must be expressions")
        object.__setattr__(self, "children", children)

    def zero_lines(self):
        return frozenset().union(*(c.zero_lines() for c in self.children))


class Min(Combinator):
    def _eval(self, x1, x2):
        return functools.reduce(np.minimum,
                                (c._eval(x1, x2) for c in self.children))


class Max(Combinator):
    def _eval(self, x1, x2):
        return functools.reduce(np.maximum,
                                (c._eval(x1, x2) for c in self.children))

    def zero_lines(self):
        return frozenset.intersection(*(c.zero_lines() for c in self.children))


class GeoMean(Combinator):
    """Geometric mean of k degree-1 children (exponent 1/k keeps degree 1)."""

    def _eval(self, x1, x2):
        out = functools.reduce(np.multiply,
                               (c._eval(x1, x2) for c in self.children))
        k = len(self.children)
        return out if k == 1 else out ** (1.0 / k)


@dataclass(frozen=True)
class Scale(Expr):
    factor: Quad
    child: Expr

    def __init__(self, factor, child):
        f = Quad.of(factor)
        if f.sign() <= 0:
            raise ValueError("scale factor must be positive")
        if not isinstance(child, Expr):
            raise TypeError("child must be an expression")
        object.__setattr__(self, "factor", f)
        object.__setattr__(self, "child", child)

    def _eval(self, x1, x2):
        return float(self.factor) * self.child._eval(x1, x2)

    def zero_lines(self):
        return self.child.zero_lines()


# ---------------------------------------------------------------------------
# Skeleton
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HalfLine:
    """One half-line of skel(F), keyed by the exact slope of its line.

    ``slope`` is None for a vertical line, whose directions are (0, +-1).
    A rational slope s/r (lowest terms, r > 0) gives the integer directions
    +-(r, s); an irrational slope m gives the float directions +-(1, m).
    ``significance`` is filled in by :func:`classify_skeleton`.
    """

    direction: tuple
    slope: Optional[Quad]
    significance: Optional[SignificanceResult] = None

    @property
    def rational(self) -> bool:
        return self.slope is None or self.slope.is_rational

    @property
    def slope_value(self) -> float:
        return math.inf if self.slope is None else float(self.slope)

    @property
    def slope_ratio(self) -> tuple[int, int]:
        """(s, r) with slope s/r in lowest terms; (1, 0) for a vertical line."""
        if self.slope is None:
            return 1, 0
        fr = self.slope.to_fraction()
        return fr.numerator, fr.denominator

    def unit_direction(self) -> np.ndarray:
        d = np.asarray(self.direction, dtype=float)
        return d / math.hypot(d[0], d[1])

    def normal(self) -> np.ndarray:
        u = self.unit_direction()
        return np.array([-u[1], u[0]])

    def arc_point(self, r) -> np.ndarray:
        # scale the stored direction by a shared factor: products like
        # t*d0, t*d1 keep the defining form cancelling exactly in floats
        d = np.asarray(self.direction, dtype=float)
        t = np.asarray(r, dtype=float) / math.hypot(d[0], d[1])
        return np.stack([t * d[0], t * d[1]], axis=-1)

    def int_direction(self) -> tuple[int, int]:
        if not self.rational:
            raise IrrationalSkeleton("no integer direction for an irrational line")
        r, s = self.direction
        return int(r), int(s)


@dataclass(frozen=True)
class SkeletonReport:
    lines: tuple[HalfLine, ...]

    @property
    def rational_only(self) -> bool:
        return all(h.rational for h in self.lines)

    def full_lines(self) -> list[HalfLine]:
        """One representative per line (drop the opposite half-lines)."""
        return [h for i, h in enumerate(self.lines) if i % 2 == 0]


def _halflines_for(slope: Optional[Quad]) -> list[HalfLine]:
    if slope is None:
        d = (0, 1)
    elif slope.is_rational:
        fr = slope.to_fraction()
        d = (fr.denominator, fr.numerator)  # already coprime, r > 0
    else:
        # direction (1, m): the defining form cancels exactly in float arithmetic
        d = (1.0, float(slope))
    return [HalfLine(d, slope), HalfLine((-d[0], -d[1]), slope)]


def extract_skeleton(f: Expr) -> SkeletonReport:
    """All half-lines of F^{-1}(0), slope-classified; empty for gauge functions."""
    halves: list[HalfLine] = []
    for slope in sorted(f.zero_lines(),
                        key=lambda m: (0, 0.0) if m is None else (1, float(m))):
        halves.extend(_halflines_for(slope))
    return SkeletonReport(lines=tuple(halves))


# ---------------------------------------------------------------------------
# Widths along skeleton lines
# ---------------------------------------------------------------------------


def _bisect(left, lo: np.ndarray, hi: np.ndarray, steps: int):
    """Halve every bracket [lo, hi] `steps` times in lockstep: (lo, hi,
    settled) after them, or after fewer, with settled True, once they reach
    their fixed point.

    left(mid) is True where the boundary lies above mid: lo moves up to mid
    there, hi down to mid elsewhere; the arrays passed in are not written.
    left must depend on the values of mid alone, and copy what it keeps of
    it: the midpoints alternate between two buffers.
    The ends move by selection, ``np.where``, which picks the same
    elements as masked copies into lo and hi: 16 us for the pair on 8,192
    points with a random mask, against 89 us for the copies (2-vCPU Xeon).
    The halvings stop at their fixed point.  After a halving, each bracket
    has one end at its midpoint; if the next midpoints all equal these,
    left answers as it did, and every end is set to the value it holds.
    So that halving changes nothing, and neither does any after it.

    *Where a bracket ends* (``_staircase_finish`` relies on this).  Take
    doubles 0 <= lo < hi < 2*lo and a step: left True on the doubles of
    [lo, s) and False on those of [s, hi], for a double s in (lo, hi].
    Then the halvings end on (a, b) = (the double below s, s), if the
    steps left number at least ceil(log2 G) + 1, G the gap of the bit
    patterns (int64 views) of lo and hi.
    - The midpoint is the double nearest the exact one, mu: the sum is
      exact below 2^-1021, where every double is a multiple of 2^-1074,
      and its halving is exact above.  While a double lies strictly
      between lo and hi, it is nearer to mu than the ends are, so the
      midpoint lies strictly inside.  lo only moves to a double left of s
      and hi to one at or right of s, so the bracket narrows to (a, b),
      whose midpoint is a or b: left answers True at a and False at b.
    - The count.  hi < 2*lo puts the bracket in one binade, or across a
      power of two 2^e from a binade of spacing u into one of 2u.  All its
      doubles are multiples of u; let v be its width in units of u, so
      G <= v <= 2G.  Each halving lowers ceil(log2 v) by one until the
      ends are adjacent, so there are at most ceil(log2 G) + 1 of them.
      Within a binade the halvings bisect integers: v goes to at most
      ceil(v/2) (or to 2*ceil(v/4) units of 2u).  Across 2^e, a midpoint
      below 2^e rounds by at most u/2, and v goes to at most ceil(v/2)
      again.  Above 2^e the grid is 2u.  With lo an odd number of u below
      2^e, mu is u/2 from that grid, and v goes to ceil(v/2).  With an even
      number, mu is on the grid, or on a tie u from it; a tie leaves
      v/2 + 1 but needs v = 2 mod 4, and then v/2 and v/2 + 1 have the
      same ceil(log2).
    A bracket [0, hi] is left out: its end can take up to 1,074 halvings.
    """
    mid, last = np.empty_like(lo), np.full_like(lo, np.nan)
    for _ in range(steps):
        np.add(lo, hi, out=mid)
        mid *= 0.5
        if np.array_equal(mid, last):
            return lo, hi, True
        below = left(mid)
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        mid, last = last, mid
    return lo, hi, False


def _bisect_crossing(f: Expr, base: np.ndarray, step: np.ndarray,
                     eps: float) -> np.ndarray:
    """Vectorized first crossing of F(base + t*step) = eps from t=0 upward.

    base: (..., 2); step: (2,).  Returns t per point: 0 where base is not
    inside the eps-body, inf where no crossing is bracketed below the cap.
    The points go through in slices of at most _SLICE_POINTS; a crossing
    is elementwise, so the slicing does not change a bit.
    """
    flat = base.reshape(-1, 2)
    if len(flat) <= _SLICE_POINTS:
        return _crossing_slice(f, flat, step, eps).reshape(base.shape[:-1])
    out = np.empty(len(flat))
    for i in range(0, len(flat), _SLICE_POINTS):
        out[i:i + _SLICE_POINTS] = _crossing_slice(
            f, flat[i:i + _SLICE_POINTS], step, eps)
    return out.reshape(base.shape[:-1])


def _sqrt_threshold(eps: float) -> float:
    """The least double T >= 0 with sqrt(T) >= eps, for eps > 0.

    The first loop walks up from eps*eps until sqrt(t) >= eps; it ends at
    inf at the latest, since sqrt(inf) = inf.  The second walks down while
    the next lower double keeps sqrt >= eps; it ends at 0 at the latest,
    since sqrt(0) = 0 < eps.  Each step moves to another of finitely many
    doubles, so both loops end; eps*eps lies a few doubles from T, or
    under- or overflows to where T is the first double up or down.
    T is inf when eps exceeds the square root of the largest double.
    """
    t = eps * eps
    while math.sqrt(t) < eps:
        t = math.nextafter(t, math.inf)
    while math.sqrt(math.nextafter(t, 0.0)) >= eps:
        t = math.nextafter(t, 0.0)
    return t


def _below(f: Expr, eps: float):
    """The test F(x, y) < eps as a function of coordinate arrays.

    At a root ``GeoMean`` of two children a and b, F = sqrt(a*b): numpy
    takes an array's ``** 0.5`` as ``np.sqrt`` (a test checks the bits).
    sqrt is correctly rounded, so it is monotone, and on P >= 0 or NaN
    sqrt(P) < eps holds exactly when P < T, T = ``_sqrt_threshold(eps)``:
    below T every double has sqrt < eps, from T up sqrt >= eps, and NaN
    fails both comparisons.  So there the test compares a*b against T
    and skips the root.  Every other root, a duck-typed f, and eps <= 0
    or not finite, compare ``f.eval_xy`` against eps.
    """
    if type(f) is GeoMean and len(f.children) == 2 and 0 < eps < math.inf:
        a, b = f.children
        square = _sqrt_threshold(eps)
        return lambda x, y: np.multiply(a._eval(x, y), b._eval(x, y)) < square
    return lambda x, y: f.eval_xy(x, y) < eps


def _ray(c: np.ndarray, s: float):
    """t -> c + t*s, one coordinate of a ray, by the plan that
    ``_crossing_slice`` fixes: c itself for s = 0, else a new array or
    out."""
    if s == 0:
        return lambda t, out=None: c
    if s == 1:
        return lambda t, out=None: np.add(c, t, out=out)
    if s == -1:
        return lambda t, out=None: np.subtract(c, t, out=out)
    return lambda t, out=None: np.add(c, np.multiply(t, s, out=out), out=out)


def _switch(ray, c, s, lo, hi, a, b, live):
    """Where live, the least double t in (lo, hi] with ray(t) == b, given
    ray(lo) == a != b == ray(hi); lo elsewhere.

    The ray is monotone in t, so the doubles with ray(t) == b are those
    of [t*, hi] for some t*.  The estimate is where c + t*s crosses the
    exact midpoint of a and b.  Each walk moves it one double at a time,
    up until ray(t) == b, then down while the double below has it; the
    guards t < hi and t > lo end them.  Only the ray is evaluated, not F.
    """
    t = ((a - c) + (b - a) * 0.5) / s
    t = np.where(live & (t > lo), t, lo)
    t = np.where(t < hi, t, hi)
    while (up := live & (t < hi) & (ray(t) != b)).any():
        t = np.where(up, (t.view(np.int64) + 1).view(np.float64), t)
    while True:
        prev = (t.view(np.int64) - 1).view(np.float64)
        down = live & (prev > lo) & (ray(prev) == b)
        if not down.any():
            return t
        t = np.where(down, prev, t)


def _staircase_finish(below, plan, lo, hi, k):
    """The ends of the halvings of ``_crossing_slice`` from halving k on,
    computed directly: (t, rest), with t exact wherever rest is False.

    A point qualifies when, at its bracket [lo, hi]:
    - each moving ray coordinate is a staircase: its values at lo and at
      hi are equal or adjacent doubles (int64 views at most 1 apart).
      Rounding is monotone, so t -> fl(c + t*s) is, and every t in
      [lo, hi] gives one of the two values, up to the sign of a zero,
      which F does not read (``Abs._eval``).  With one moving coordinate
      the ray point at t is lo's or hi's; with two, there is at most one
      mixed point, (X_hi, Y_lo) or (X_lo, Y_hi), on the doubles between
      the two coordinates' switches (``_switch``);
    - the halving test is True at lo's ray point and False at hi's,
      evaluated there: an end that never moved comes from the growth,
      whose test counts NaN as inside.  So the test is a step along the
      bracket, and its switch s is the first coordinate switch, or the
      second where the mixed point tests True;
    - hi < 2*lo and k + ceil(log2 G) + 1 <= 80, G the gap of the int64
      views of lo and hi.  Then the halvings left end on the double below
      s and s (``_bisect``), before the cap of 80, and t is their midpoint,
      as ``_crossing_slice`` forms it from the ends.
    Every other bracketed point is in rest and keeps halving.
    """
    ends = [[ray(t) for ray, _, _ in plan] for t in (lo, hi)]
    ok = below(*ends[0]) & ~below(*ends[1]) & (hi < 2.0 * lo)
    ok &= hi.view(np.int64) - lo.view(np.int64) <= 1 << min(79 - k, 62)
    moving = [(ray, c, s, a, b) for (ray, c, s), a, b in zip(plan, *ends)
              if s != 0]
    for *_, a, b in moving:
        d = b.view(np.int64) - a.view(np.int64)
        ok &= (d >= -1) & (d <= 1)
    cuts = [_switch(ray, c, s, lo, hi, a, b, ok & (a != b))
            for ray, c, s, a, b in moving]
    if len(cuts) == 1:
        cut = cuts[0]
    else:
        (xl, yl), (xh, yh) = ends
        x_first = cuts[0] < cuts[1]
        mixed = below(np.where(x_first, xh, xl), np.where(x_first, yl, yh))
        cut = np.where(mixed, np.maximum(*cuts), np.minimum(*cuts))
    return 0.5 * ((cut.view(np.int64) - 1).view(np.float64) + cut), ~ok


def _crossing_slice(f: Expr, base: np.ndarray, step: np.ndarray,
                    eps: float) -> np.ndarray:
    """``_bisect_crossing`` on one slice of points, base of shape (m, 2).

    The ray base + t*step follows a plan fixed per call (``_ray``), as
    ``Abs`` fixes its own: a step coordinate s of 0 reads the base
    coordinate itself, one of +-1 is c + t or c - t, and any other is
    c + t*s.  F's values are those at c + t*s, bit for bit: t*1 = t,
    t*(-1) = -t, and a - b is a + (-b).  For finite t >= 0, t*0 is a zero
    and c + (+-0) = c, except that -0 + +0 = +0; F reads a coordinate only
    through ``Abs``, which clears the sign of a zero (``Abs._eval``).  The
    halvings evaluate t in [0, t_hi]; the growth may evaluate an infinite
    t_hi (eps = inf), or one at or past _WIDTH_CAP, but such a point ends
    unbracketed whatever F is there.

    Far out on a line, c + t*s rounds at the scale of c, not of t, and the
    ray points of a bracket's ends become equal or adjacent doubles long
    before the halvings end.  So the halvings stop at halving k, where the
    widest bracket times |s| falls below 2^-53 min |c| with one halving to
    spare, about the spacing at c; ``_staircase_finish`` computes the ends
    from there.  perfbench's coverage slices stop at halving 36 to 53 of
    the 69 to 76 they ran before.  The points the finish leaves keep
    halving to the cap, by themselves.  t is the midpoint of each point's
    final ends, formed here from the (lo, hi) that ``_bisect`` returns.
    """
    m = len(base)
    # contiguous, since every evaluation reads them: an add on 8,192
    # strided points took 5.5 us against 2.8 us contiguous (2-vCPU Xeon)
    x0, y0 = base[:, 0].copy(), base[:, 1].copy()
    plan = [(_ray(c, s), c, s) for c, s in ((x0, step[0]), (y0, step[1]))]
    out = np.empty(m), np.empty(m)

    def ray(t):
        return [r(t, o) for (r, _, _), o in zip(plan, out)]
    below = _below(f, eps)

    inside0 = f.eval_xy(x0, y0) < eps
    t_lo = np.zeros(m)
    t_hi = np.full(m, eps, dtype=float)
    # grow brackets geometrically; a NaN value counts as not crossed
    active = inside0.copy()
    for _ in range(90):
        if not np.any(active):
            break
        grow = active & ~(f.eval_xy(*ray(t_hi)) >= eps)
        np.copyto(t_lo, t_hi, where=grow)
        np.multiply(t_hi, 2.0, out=t_hi, where=grow)
        active = grow & (t_hi < _WIDTH_CAP)
    bracketed = inside0 & (t_hi < _WIDTH_CAP)
    # [0, 0] is fixed from the first halving, so these points never keep
    # the halvings going; their t is replaced below
    np.copyto(t_lo, 0.0, where=~bracketed)
    np.copyto(t_hi, 0.0, where=~bracketed)
    width = float(np.max(t_hi - t_lo, initial=0.0))
    near = min((float(np.min(np.abs(c), initial=math.inf)) / abs(s)
                for _, c, s in plan if s != 0), default=0.0)
    k = 80
    if near > 0 and 0 < width / near < math.inf:
        k = min(80, max(0, math.ceil(54 + math.log2(width / near))))
    lo, hi, settled = _bisect(lambda mid: below(*ray(mid)), t_lo, t_hi, k)
    if settled or k == 80:
        t = 0.5 * (lo + hi)
    else:
        t, rest = _staircase_finish(below, plan, lo, hi, k)
        rest &= bracketed
        if rest.any():
            sub = [_ray(c[rest], s) for _, c, s in plan]
            a, b, _ = _bisect(lambda mid: below(*(r(mid) for r in sub)),
                              lo[rest], hi[rest], 80 - k)
            t[rest] = 0.5 * (a + b)
    return np.where(inside0, np.where(bracketed, t, np.inf), 0.0)


def width_profile(f: Expr, line: HalfLine, r, epsilon: float):
    """Perpendicular extents (w+, w-) of {F < eps} at arc distance r.

    Found by bisection on t -> F(point + t*normal) against eps; both are
    >= 0 and (0, 0) when the base point is outside the eps-body, so
    everywhere when eps <= 0.
    """
    base = line.arc_point(r)
    n = line.normal()
    wp = _bisect_crossing(f, base, n, epsilon)
    wm = _bisect_crossing(f, base, -n, epsilon)
    if np.ndim(r) == 0:
        return float(wp), float(wm)
    return wp, wm


class SignificanceResult(NamedTuple):
    significant: bool
    width_exponent: float
    monotone: bool


_FIT_POINTS = 33    # radii of the significance fit
_FIT_TOL = 0.05     # slack on the significance threshold beta <= 1


def classify_significance(f: Expr, line: HalfLine, Rmax: float = 1e6,
                          epsilon: float = 0.1) -> SignificanceResult:
    """Fit w(r; eps) ~ C * r^(-beta) over [1, Rmax]; significant iff
    beta <= 1 + _FIT_TOL.

    Also reports whether w is non-increasing over the sampled range (the
    monotonicity hypothesis of the irrational-line theorem).  Rmax must
    exceed 1, so that the radii grow, and epsilon must be positive.
    """
    if not Rmax > 1:
        raise ValueError(f"Rmax must exceed 1, got {Rmax}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    rs = np.geomspace(1.0, Rmax, _FIT_POINTS)
    wp, wm = width_profile(f, line, rs, epsilon)
    w = np.asarray(wp) + np.asarray(wm)
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise FitFailure("widths are zero or unbounded over the sampled range")
    beta = -np.polyfit(np.log(rs), np.log(w), 1)[0]
    monotone = bool(np.all(np.diff(w) <= 1e-12 * w[:-1] + 1e-300))
    return SignificanceResult(bool(beta <= 1.0 + _FIT_TOL), float(beta),
                              monotone)


def classify_skeleton(f: Expr, report: SkeletonReport, Rmax: float = 1e6,
                      epsilon: float = 0.1) -> SkeletonReport:
    """Return a copy of the report with each line's significance filled in.

    The fit runs once per full line and both half-lines carry it: F is even,
    so the opposite half-line evaluates F at exactly negated points.
    """
    out = []
    for h, opposite in zip(report.lines[::2], report.lines[1::2]):
        res = classify_significance(f, h, Rmax=Rmax, epsilon=epsilon)
        out += [replace(h, significance=res), replace(opposite, significance=res)]
    return SkeletonReport(lines=tuple(out))


# ---------------------------------------------------------------------------
# Fundamental rectangle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FundamentalRectangle:
    s_hat: int
    r_hat: int


def fundamental_rectangle(skel: SkeletonReport) -> FundamentalRectangle:
    """(s_hat, r_hat) = lcm's of slope numerators/denominators, zeros skipped.

    Vertical lines contribute (s, r) = (1, 0): numerator 1 to s_hat, the
    denominator is skipped.  The empty skeleton gives (1, 1).
    """
    s_hat = r_hat = 1
    for h in skel.full_lines():
        if not h.rational:
            raise IrrationalSkeleton(
                "fundamental rectangle needs rational slopes")
        s, r = h.slope_ratio
        if s != 0:
            s_hat = math.lcm(s_hat, abs(s))
        if r != 0:
            r_hat = math.lcm(r_hat, r)
    return FundamentalRectangle(s_hat, r_hat)


# ---------------------------------------------------------------------------
# Cached per-body geometry (shared by the measure-theoretic machinery)
# ---------------------------------------------------------------------------


@dataclass
class LineGeometry:
    half: HalfLine
    # power-law fit of the unit body width: w1(rho) ~ C * rho^(-beta)
    width_coef: float
    width_exp: float

    def width(self, r, eps):
        """Conservative width of {F < eps} at arc r (fit with safety headroom)."""
        r = np.maximum(np.asarray(r, dtype=float), 1e-9)
        rho = np.maximum(r / eps, 1e-12)
        return eps * self.width_coef * rho ** (-self.width_exp)


def iter_atoms(f: Expr):
    if isinstance(f, Abs):
        yield f
    elif isinstance(f, Scale):
        yield from iter_atoms(f.child)
    else:
        for c in f.children:
            yield from iter_atoms(c)


def is_axis_monotone(f: Expr) -> bool:
    """True when every atom is axis-aligned, making F a monotone function of
    (|z1|, |z2|); then min_p F(z - p) is attained at the componentwise wrap."""
    return all(a.form.a.sign() == 0 or a.form.b.sign() == 0 for a in iter_atoms(f))


_SCAN_ANGLES = 1440     # directions of the unit-circle scan


class BodyGeometry:
    """Angular scan constants and fitted tube widths for one distance function."""

    def __init__(self, f: Expr):
        self.f = f
        self.skeleton = extract_skeleton(f)
        self.axis_monotone = is_axis_monotone(f)
        theta = np.linspace(0.0, 2.0 * math.pi, _SCAN_ANGLES, endpoint=False)
        u = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        vals = f.eval_xy(u[:, 0], u[:, 1])
        self.circle_min = float(np.min(vals))
        # min of F on the circle away from skeleton directions
        mask = np.ones(_SCAN_ANGLES, dtype=bool)
        for h in self.skeleton.lines:
            ud = h.unit_direction()
            ang = math.atan2(ud[1], ud[0])
            dist = np.abs((theta - ang + math.pi) % (2 * math.pi) - math.pi)
            mask &= dist > 0.12
        self.offline_min = float(np.min(vals[mask])) if mask.any() else self.circle_min
        self.lines: list[LineGeometry] = []
        for h in self.skeleton.full_lines():
            self.lines.append(self._fit_line(h))

    def _fit_line(self, h: HalfLine) -> LineGeometry:
        rs = np.geomspace(1.0, 1e6, 25)
        wp, wm = width_profile(self.f, h, rs, 1.0)
        w = np.asarray(wp) + np.asarray(wm)
        good = np.isfinite(w) & (w > 0)
        if good.sum() < 2:
            # side-unbounded tube: treat as constant width
            return LineGeometry(h, width_coef=1.0, width_exp=0.0)
        beta, logc = np.polyfit(np.log(rs[good]), np.log(w[good]), 1)
        resid = np.log(w[good]) - (beta * np.log(rs[good]) + logc)
        # inflate the constant so the fit upper-bounds every sample
        return LineGeometry(h, width_coef=float(np.exp(logc + max(0.0, resid.max()))),
                            width_exp=float(-beta))


@functools.lru_cache(maxsize=128)
def body_geometry(f: Expr) -> BodyGeometry:
    """The BodyGeometry of f, shared by every caller while it stays cached."""
    return BodyGeometry(f)


# ---------------------------------------------------------------------------
# Stock bodies
# ---------------------------------------------------------------------------


def height() -> Expr:
    """F(x) = max(|x1|, |x2|); the star body is a square."""
    return Max(Abs(1, 0), Abs(0, 1))


def multiplicative() -> Expr:
    """F(x) = sqrt(|x1 x2|); the body is bounded by the hyperbolas x2 = +-1/x1."""
    return GeoMean(Abs(1, 0), Abs(0, 1))


def union_jack() -> Expr:
    """min(|xy|, |x^2-y^2|/2)^(1/2): the multiplicative body plus its pi/4 turn."""
    half = Fraction(1, 2)
    inv = Quad(0, half, 2)
    return Min(GeoMean(Abs(1, 0), Abs(0, 1)),
               GeoMean(Abs(inv, inv), Abs(inv, -inv)))


def irrational_cusp() -> Expr:
    """gm(|x2 - sqrt2*x1|, |x1|): one significant line of irrational slope sqrt2."""
    return GeoMean(Abs(-Quad.sqrt(2), 1), Abs(1, 0))
