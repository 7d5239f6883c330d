"""Continued fractions, the Three Distances Theorem, and the interval
system that drives the irrational-line coverage experiment.

The rotation x_n = {x0 + n/alpha} visits a horizontal line through the
unit square; around each visit sits an interval I_n cut from the
eps-neighborhood of the skeleton line, and an inscribed centred interval
Itilde_n of radius sigma_n = K*min(w+_n, w-_n).  Coverage statistics of
the Itilde_n at growing stage N are the desk-scale surrogate for the
full-measure limsup conclusion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Sequence

import mpmath
import numpy as np

from .errors import (EmptySequence, NotSignificant, PrecisionExhausted,
                     StarkitError)
from .exact import Quad
from .sampling import CHUNK, uniform_chunk
from .starbody import Expr, HalfLine, classify_significance, width_profile

# ---------------------------------------------------------------------------
# Continued fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuedFraction:
    alpha: float
    partial_quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]  # (p_k, q_k), lowest terms
    exact: bool
    terminated: bool = False


def _cf_exact(alpha: Quad, depth: int):
    quots = []
    x = alpha
    for _ in range(depth):
        a = math.floor(x)
        quots.append(a)
        frac = x - a
        if frac.sign() == 0:
            return quots, True
        x = 1 / frac
    return quots, False


def _cf_float(alpha, depth: int, prec_bits: int):
    """Float/mpf expansion with an explicit precision budget on q_k q_{k+1}."""
    mp_x = mpmath.mpf(alpha)
    quots = []
    p0, q0, p1, q1 = 0, 1, 1, 0  # (p_{k-2}, q_{k-2}), (p_{k-1}, q_{k-1})
    budget = mpmath.mpf(2) ** (prec_bits - 8)
    x = mp_x
    for _ in range(depth):
        a = int(mpmath.floor(x))
        pk, qk = a * p1 + p0, a * q1 + q0
        if qk * q1 > budget:
            raise PrecisionExhausted(
                f"{prec_bits}-bit input cannot support depth {depth}")
        quots.append(a)
        p0, q0, p1, q1 = p1, q1, pk, qk
        frac = x - a
        if frac == 0:
            return quots, True
        x = 1 / frac
    return quots, False


def continued_fraction(alpha, depth: int) -> ContinuedFraction:
    """Partial quotients and exact-integer convergents to the given depth.

    Quadratic surds (Quad) and rationals expand exactly; floats carry a
    53-bit budget and mpmath values their own precision, raising
    PrecisionExhausted when the depth is out of reach.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    exact = True
    if isinstance(alpha, Quad):
        quots, terminated = _cf_exact(alpha, depth)
        alpha_f = float(alpha)
    elif isinstance(alpha, Rational):
        quots, terminated = _cf_exact(Quad(Fraction(alpha)), depth)
        alpha_f = float(alpha)
    elif isinstance(alpha, mpmath.mpf):
        quots, terminated = _cf_float(alpha, depth, mpmath.mp.prec)
        alpha_f, exact = float(alpha), False
    else:
        quots, terminated = _cf_float(float(alpha), depth, 53)
        alpha_f, exact = float(alpha), False
    convs = []
    p0, q0, p1, q1 = 0, 1, 1, 0
    for a in quots:
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        convs.append((p1, q1))
    return ContinuedFraction(alpha=alpha_f, partial_quotients=tuple(quots),
                             convergents=tuple(convs), exact=exact,
                             terminated=terminated)


# ---------------------------------------------------------------------------
# Three distances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapPartition:
    n: int
    points: tuple[float, ...]       # sorted in [0, 1)
    gaps: tuple[float, ...]         # circular gaps, sum = 1
    distinct_gaps: tuple[float, ...]  # merged within tolerance


def _orbit(alpha_inv: float, x0: float, n: int) -> np.ndarray:
    ks = np.arange(1, n + 1, dtype=float)
    return np.mod(x0 + ks * alpha_inv, 1.0)


def _merge_close(values: np.ndarray, tol: float) -> tuple[float, ...]:
    vals = np.sort(values)
    out = [vals[0]]
    for v in vals[1:]:
        if v - out[-1] > tol:
            out.append(v)
    return tuple(float(v) for v in out)


_GAP_MERGE_TOL = 1e-9   # gaps closer than this count as one distinct gap


def three_distance_partition(alpha_inv, x0: float = 0.0,
                             n: int = 1) -> GapPartition:
    """Points {x0 + k/alpha}, k = 1..N, their circular gaps and the distinct
    gap values, merged within _GAP_MERGE_TOL (at most three by the Three
    Distances Theorem)."""
    if n < 1:
        raise ValueError("N must be >= 1")
    pts = np.sort(_orbit(float(alpha_inv), float(x0), n))
    gaps = np.diff(pts, append=pts[0] + 1.0)
    return GapPartition(n=n, points=tuple(pts), gaps=tuple(gaps),
                        distinct_gaps=_merge_close(gaps, _GAP_MERGE_TOL))


def _max_gap_profile(alpha_inv: float, n_max: int) -> np.ndarray:
    """max circular gap of {k*alpha_inv}_{k<=N} for every N, by reverse deletion.

    Runs the insertion process backwards: start from the full sorted
    configuration and delete points N, N-1, ..., 2.  Deleting a point
    replaces its two neighbouring gaps g_a, g_i by g_a + g_i, which in
    floating point is >= each of them; rounding to 15 places is monotone,
    so the largest rounded gap after the deletion is the larger of the one
    before it and the rounded merged gap.  The profile is therefore a
    running maximum, taken from N = n_max down, of the merged gaps, with
    the full configuration's largest gap at N = n_max.  Entry N of the
    result is the value for N; entry 0 is unused.
    """
    pts = _orbit(alpha_inv, 0.0, n_max)
    order = np.argsort(pts)
    sorted_pts = pts[order]
    gap_after = np.diff(sorted_pts, append=sorted_pts[0] + 1.0)
    idx = np.arange(n_max)
    pos_of = np.empty(n_max, dtype=int)
    pos_of[order] = idx
    # merged[N - 1] is the gap made by deleting point N + 1; the last slot
    # holds the full configuration's largest gap
    merged = np.empty(n_max)
    merged[-1] = gap_after.max()
    # the loop reads and writes the arrays through memoryviews, whose items
    # are plain Python floats and ints, not numpy scalars
    gap, nxt, prv, pos, merge = (memoryview(v) for v in (
        gap_after, np.roll(idx, -1), np.roll(idx, 1), pos_of, merged))
    for k in range(n_max, 1, -1):
        i = pos[k - 1]              # delete the point added at time k
        a, b = prv[i], nxt[i]
        gap[a] = merge[k - 2] = gap[a] + gap[i]
        nxt[a], prv[b] = b, a
    out = np.empty(n_max + 1)
    out[1:] = np.maximum.accumulate(np.round(merged, 15)[::-1])[::-1]
    return out


def ubiquity_sequence(alpha_inv, n_max: int) -> list[int]:
    """All N <= Nmax whose maximal gap is <= 3/(N+1), strictly increasing.

    The maximal gaps come from `_max_gap_profile`, one reverse running
    maximum over the merged gaps of the deletion process, so every N is
    tested at once.
    """
    if n_max < 1:
        raise ValueError("Nmax must be >= 1")
    prof = _max_gap_profile(float(alpha_inv), n_max)
    ns = np.arange(1, n_max + 1)
    out = ns[prof[1:] <= 3.0 / (ns + 1)].tolist()
    if not out:
        raise EmptySequence("no admissible N found; the sequence is infinite")
    return out


def covering_check(alpha_inv, x0: float, n: int, radius: float) -> bool:
    """Exact check that intervals of the given radius around the first N
    orbit points cover the circle."""
    pts = np.sort(_orbit(float(alpha_inv), float(x0), n))
    gaps = np.diff(pts, append=pts[0] + 1.0)
    return bool(np.max(gaps) <= 2.0 * radius)


def generalized_ubiquity_lambda(system: "IntervalSystem",
                                ns: Sequence[int]) -> list[tuple[int, float]]:
    """lambda(N) = 3/(N_r+1) + max(w+_{N_r}, w-_{N_r}) per admissible N.

    The widened radius compensates for interval centres that are not the
    orbit points themselves; exposed as a computed value only, no measure
    statement is attached to it.
    """
    out = []
    for n in ns:
        if not 1 <= n <= len(system.n):
            raise ValueError("N outside the built range")
        w = max(float(system.w_plus[n - 1]), float(system.w_minus[n - 1]))
        out.append((int(n), 3.0 / (n + 1) + w))
    return out


# ---------------------------------------------------------------------------
# Interval system
# ---------------------------------------------------------------------------


@dataclass
class IntervalSystem:
    alpha: float
    theta: float
    y0: float
    x0: float
    epsilon: float
    K: float
    n: np.ndarray
    x_n: np.ndarray
    r_n: np.ndarray
    w_plus: np.ndarray
    w_minus: np.ndarray
    sigma_n: np.ndarray
    half_left: np.ndarray    # I_n extent left of x_n along H
    half_right: np.ndarray   # I_n extent right of x_n along H
    len_In: np.ndarray = field(init=False)
    len_Itilde: np.ndarray = field(init=False)

    def __post_init__(self):
        self.len_In = self.half_left + self.half_right
        self.len_Itilde = 2.0 * self.sigma_n

    def partial_sums(self, stages: Sequence[int]) -> list[tuple[int, float]]:
        csum = np.cumsum(self.len_Itilde)
        return [(int(s), float(csum[s - 1])) for s in stages]


def interval_system(f: Expr, line: HalfLine, epsilon: float, y0: float,
                    n_max: int) -> IntervalSystem:
    """Build (I_n, Itilde_n) for n = 1..Nmax along the horizontal line y = y0.

    The line must have irrational slope alpha > 1 (swap axes yourself for
    the other case).  I_n is the connected component of the horizontal cut
    of {F < eps} containing the n-th crossing; sigma_n = K min(w+, w-) with
    K halved from 1/2 until Itilde_n is contained in I_n for every n.
    """
    if line.rational:
        raise StarkitError("interval system needs an irrational slope")
    alpha = abs(line.slope_value)
    if alpha <= 1.0:
        raise StarkitError("interval system assumes slope alpha > 1")
    res = classify_significance(f, line, Rmax=1e6, epsilon=epsilon)
    if not res.significant:
        raise NotSignificant(
            f"width exponent {res.width_exponent:.3f} > 1: sum of |I_n| converges")
    theta = math.atan(alpha)
    cosec = 1.0 / math.sin(theta)
    x0 = (y0 / alpha) % 1.0
    ns = np.arange(1, n_max + 1)
    r_n = (y0 + ns) * cosec
    x_n = np.mod(x0 + ns / alpha, 1.0)
    w_plus, w_minus = width_profile(f, line, r_n, epsilon)

    # horizontal half-extents of the component of H ∩ {F < eps} at each crossing
    from .starbody import _bisect_crossing
    u = line.unit_direction()
    base = np.stack([r_n * u[0], r_n * u[1]], axis=-1)
    right = _bisect_crossing(f, base, np.array([1.0, 0.0]), epsilon)
    left = _bisect_crossing(f, base, np.array([-1.0, 0.0]), epsilon)

    k = 0.5
    for _ in range(60):
        sigma = k * np.minimum(w_plus, w_minus)
        if np.all((sigma <= left) & (sigma <= right)):
            break
        k *= 0.5
    else:
        raise StarkitError("could not inscribe Itilde in I by halving K")
    return IntervalSystem(alpha=alpha, theta=theta, y0=y0, x0=x0,
                          epsilon=epsilon, K=k, n=ns, x_n=x_n, r_n=r_n,
                          w_plus=w_plus, w_minus=w_minus, sigma_n=sigma,
                          half_left=left, half_right=right)


# ---------------------------------------------------------------------------
# Coverage experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageStage:
    n: int
    fraction_hit_once: float
    fraction_hit_k: float
    stderr: float
    union_bound: float      # S_N = sum_{n <= N} |Itilde_n|


def coverage_experiment(f: Expr, line: HalfLine, epsilon: float, y0: float,
                        stages: Sequence[int], samples: int = 10_000,
                        seed: int = 0, k_hits: int = 3) -> list[CoverageStage]:
    """Fraction of sampled x in H hit by at least one (and >= k) interval
    Itilde_n with n <= N, per stage N; fractions are non-decreasing in N.

    Each stage also carries the union bound S_N of its interval system,
    which no covered fraction can exceed."""
    stages = sorted(int(s) for s in stages)
    system = interval_system(f, line, epsilon, y0, stages[-1])
    sums = dict(system.partial_sums(stages))
    n_chunks = math.ceil(samples / CHUNK)
    xs = np.concatenate([uniform_chunk(seed, c, min(CHUNK, samples - c * CHUNK), 1)[:, 0]
                         for c in range(n_chunks)])
    order = np.argsort(xs)
    xs_sorted = xs[order]
    m = len(xs_sorted)
    counts = np.zeros(m, dtype=np.int32)
    out = []
    prev = 0
    centers, radii = system.x_n, system.sigma_n
    for stage in stages:
        lo = centers[prev:stage] - radii[prev:stage]
        hi = centers[prev:stage] + radii[prev:stage]
        segs_lo = np.concatenate([np.maximum(lo, 0.0), lo + 1.0, np.full_like(lo, 0.0)])
        segs_hi = np.concatenate([hi, np.full_like(hi, 1.0), hi - 1.0])
        keep = segs_lo < segs_hi
        ia = np.searchsorted(xs_sorted, segs_lo[keep], side="left")
        ib = np.searchsorted(xs_sorted, segs_hi[keep], side="right")
        bump = np.zeros(m + 1, dtype=np.int32)
        np.add.at(bump, ia, 1)
        np.add.at(bump, ib, -1)
        counts += np.cumsum(bump[:-1]).astype(np.int32)
        frac1 = float(np.count_nonzero(counts >= 1)) / m
        frack = float(np.count_nonzero(counts >= k_hits)) / m
        stderr = math.sqrt(frac1 * (1.0 - frac1) / m)
        out.append(CoverageStage(n=stage, fraction_hit_once=frac1,
                                 fraction_hit_k=frack, stderr=stderr,
                                 union_bound=sums[stage]))
        prev = stage
    return out
