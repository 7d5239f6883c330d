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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import DegenerateExpr, FitFailure, IrrationalSkeleton
from .exact import Quad

Vec2 = tuple[float, float]

_WIDTH_CAP = 1e12  # beyond this the sublevel set is treated as unbounded sideways


def as_point(x) -> np.ndarray:
    """Validate and convert a point (or array of points) to float ndarray."""
    p = np.asarray(x, dtype=float)
    if p.shape[-1] != 2:
        raise ValueError("points must have final dimension 2")
    if not np.all(np.isfinite(p)):
        raise ValueError("points must have finite components")
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

    @property
    def rational(self) -> bool:
        return self.a.is_rational and self.b.is_rational

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
        """Raw evaluation on pre-validated coordinate arrays (hot path)."""
        return self._eval(x1, x2)

    def _eval(self, x1, x2):
        raise NotImplementedError

    def zero_lines(self) -> frozenset["SkelLine"]:
        raise NotImplementedError


@dataclass(frozen=True)
class Abs(Expr):
    form: LinearForm

    def __init__(self, a, b=None):
        form = a if isinstance(a, LinearForm) and b is None else LinearForm(a, b)
        object.__setattr__(self, "form", form)
        # float coefficients for the hot path; not a dataclass field, so
        # equality and hashing still use the exact form only
        object.__setattr__(self, "_floats", form.floats())

    def _eval(self, x1, x2):
        fa, fb = self._floats
        return np.abs(fa * x1 + fb * x2)

    def zero_lines(self):
        return frozenset([SkelLine.from_form(self.form)])


def _tuple_children(children):
    out = []
    for c in children:
        if not isinstance(c, Expr):
            raise TypeError("children must be expressions")
        out.append(c)
    if not out:
        raise ValueError("combinators need at least one child")
    return tuple(out)


@dataclass(frozen=True)
class Min(Expr):
    children: tuple[Expr, ...]

    def __init__(self, *children):
        object.__setattr__(self, "children", _tuple_children(children))

    def _eval(self, x1, x2):
        vals = [c._eval(x1, x2) for c in self.children]
        out = vals[0]
        for v in vals[1:]:
            out = np.minimum(out, v)
        return out

    def zero_lines(self):
        return frozenset().union(*(c.zero_lines() for c in self.children))


@dataclass(frozen=True)
class Max(Expr):
    children: tuple[Expr, ...]

    def __init__(self, *children):
        object.__setattr__(self, "children", _tuple_children(children))

    def _eval(self, x1, x2):
        vals = [c._eval(x1, x2) for c in self.children]
        out = vals[0]
        for v in vals[1:]:
            out = np.maximum(out, v)
        return out

    def zero_lines(self):
        sets = [c.zero_lines() for c in self.children]
        out = sets[0]
        for s in sets[1:]:
            out = out & s
        return out


@dataclass(frozen=True)
class GeoMean(Expr):
    """Geometric mean of k degree-1 children (exponent 1/k keeps degree 1)."""

    children: tuple[Expr, ...]

    def __init__(self, *children):
        object.__setattr__(self, "children", _tuple_children(children))

    def _eval(self, x1, x2):
        out = self.children[0]._eval(x1, x2)
        for c in self.children[1:]:
            out = out * c._eval(x1, x2)
        k = len(self.children)
        return out if k == 1 else out ** (1.0 / k)

    def zero_lines(self):
        return frozenset().union(*(c.zero_lines() for c in self.children))


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
class SkelLine:
    """A full line through the origin, keyed by exact slope (None = vertical)."""

    slope: Optional[Quad]

    @staticmethod
    def from_form(form: LinearForm) -> "SkelLine":
        # a*x1 + b*x2 = 0  <=>  x2 = (-a/b) x1, vertical when b == 0
        if form.b.sign() == 0:
            return SkelLine(None)
        return SkelLine((-form.a) / form.b)

    @property
    def vertical(self) -> bool:
        return self.slope is None

    @property
    def rational(self) -> bool:
        return self.slope is None or self.slope.is_rational

    def sort_key(self):
        return (0, 0.0) if self.slope is None else (1, float(self.slope))


@dataclass(frozen=True)
class HalfLine:
    """One half-line of skel(F) with its slope classification.

    ``slope_num/slope_den`` follow the convention slope = s/r with integer
    direction (r, s); vertical lines are encoded as (s, r) = (1, 0) with
    direction (0, +-1).  Irrational slopes carry the float value and, when
    available, the exact quadratic-surd form.  ``significant`` and
    ``width_exponent`` are filled in by :func:`classify_significance`.
    """

    direction: tuple
    rational: bool
    slope_num: Optional[int] = None
    slope_den: Optional[int] = None
    slope_value: float = 0.0
    slope_exact: Optional[Quad] = None
    significant: Optional[bool] = None
    width_exponent: Optional[float] = None

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


def _halflines_for(line: SkelLine) -> list[HalfLine]:
    if line.vertical:
        base = dict(rational=True, slope_num=1, slope_den=0,
                    slope_value=math.inf)
        return [HalfLine(direction=(0, 1), **base),
                HalfLine(direction=(0, -1), **base)]
    if line.slope.is_rational:
        fr = line.slope.to_fraction()
        s, r = fr.numerator, fr.denominator  # already coprime, r > 0
        base = dict(rational=True, slope_num=s, slope_den=r,
                    slope_value=float(fr))
        return [HalfLine(direction=(r, s), **base),
                HalfLine(direction=(-r, -s), **base)]
    # direction (1, m): the defining form cancels exactly in float arithmetic
    m = float(line.slope)
    base = dict(rational=False, slope_value=m, slope_exact=line.slope)
    return [HalfLine(direction=(1.0, m), **base),
            HalfLine(direction=(-1.0, -m), **base)]


def extract_skeleton(f: Expr) -> SkeletonReport:
    """All half-lines of F^{-1}(0), slope-classified; empty for gauge functions."""
    lines = sorted(f.zero_lines(), key=SkelLine.sort_key)
    halves: list[HalfLine] = []
    for line in lines:
        halves.extend(_halflines_for(line))
    return SkeletonReport(lines=tuple(halves))


# ---------------------------------------------------------------------------
# Widths along skeleton lines
# ---------------------------------------------------------------------------


def _bisect_crossing(f: Expr, base: np.ndarray, step: np.ndarray, eps: float,
                     iters: int = 80) -> np.ndarray:
    """Vectorized first crossing of F(base + t*step) = eps from t=0 upward.

    base: (..., 2); step: (2,).  Returns t per point (inf if no crossing is
    bracketed below the cap).
    """
    x0, y0 = base[..., 0], base[..., 1]
    inside0 = f.eval_xy(x0, y0) < eps
    t_lo = np.zeros(np.shape(x0))
    t_hi = np.full(np.shape(x0), eps if eps > 0 else 1.0)
    out = np.full(np.shape(x0), np.inf)
    # grow brackets geometrically
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
        v = f.eval_xy(x0 + mid * step[0], y0 + mid * step[1])
        below = v < eps
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    out = np.where(bracketed, 0.5 * (lo + hi), out)
    return np.where(inside0, out, 0.0)


def width_profile(f: Expr, line: HalfLine, r, epsilon: float):
    """Perpendicular extents (w+, w-) of {F < eps} at arc distance r.

    Found by bisection on t -> F(point + t*normal) against eps; both are
    >= 0 and (0, 0) when the base point is outside the eps-body.
    """
    if epsilon <= 0:
        if np.ndim(r) == 0:
            return 0.0, 0.0
        z = np.zeros(np.shape(np.asarray(r, dtype=float)))
        return z, z.copy()
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
    monotonicity hypothesis of the irrational-line theorem).
    """
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
    """Return a copy of the report with significance fields filled in."""
    out = []
    for h in report.lines:
        res = classify_significance(f, h, Rmax=Rmax, epsilon=epsilon)
        out.append(replace(h, significant=res.significant,
                           width_exponent=res.width_exponent))
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
        s, r = h.slope_num, h.slope_den
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
