"""Transference machinery: box parametrization of the multiplicative body,
matrix encodings, paired solution systems, and the verification harnesses
(multiplicative, union jack, height/inner-product).

System (i) asks for q in Z^n with |<q.x>| <= lambda and prod max(|q_i|,1)
<= mu^n; system (ii) for a single integer p with small geometric mean of
the <p x_i> and |p| <= n mu lambda^((1-n)/n).  The dual-lattice bound
|p~ A*| <= n |det A*|^(1/n) = n mu lambda^(1/n) makes the workable
system-(ii) acceptance threshold  GM <= n lambda^(1/n); the stricter
GM <= n*lambda variant is additionally recorded on every witness, never
asserted.

The three harnesses run one pipeline (``_transfer``) and differ only in
the region of candidate rows q, their size and exponent k, mu of a kept
row, and the quality of p (GM, union-jack F', or max norm):

  candidates q -> keep |<q.x>| <= size(q)^(-k-eps) (``_q_filter``)
  -> order by (mu, q), lambda = mu^(-k-eps)
  -> least p <= n mu lambda^((1-n)/n) with quality(p) <= n lambda^(1/n)
     (``_QualityBlocks.least_p`` over blocks of p).

Both sides are output-sensitive.  At every n the candidates come from a
window search over the last coordinate (``_window_rows``): each prefix
(q_1..q_{n-1}) of the region takes, from the sorted keys {q_n x_n}, the
rows that can pass the filter, and few others, so the work follows the
solutions and the prefixes rather than the whole region.  System (i)
keeps the whole region by prefix enumeration (``_enumerate_product_box``;
see ``solve_system_i``).  The quality of p is computed in blocks of
``_P_BLOCK`` values, only as far as some step scans, and each scan stops
at the first admissible p.

Each step also reports an admissible eps' = eps/2, which carries no
information about p (see ``_transfer``).

``solve_system_i`` uses the same q-filter and ``solve_system_ii`` the same
blocked least-p selector.  Both decide value <= threshold by one rule
(``_at_most``): in float64, except for a value within
``_BOUNDARY`` max(1, |threshold|) of its threshold, which is re-evaluated in
mpmath at ``_MP_PREC`` bits, with quadratic surds and fractions taken
exactly.  Every q-side threshold is at most 1, so its band is 1e-9.  The
window and the blocks change no decision: each is the same float or mpmath
expression on the same row or p.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import mpmath
import numpy as np

from .errors import DimensionMismatch, NoSolutions
from .exact import Quad
from .starbody import union_jack

_BOUNDARY = 1e-9
_MP_PREC = 160
_P_BLOCK = 2 ** 16      # p values per block of the quality grid
_ULP = 2.0 ** -53       # unit roundoff of float64

Coordinate = Union[float, Fraction, Quad]


# ---------------------------------------------------------------------------
# Elementary pieces
# ---------------------------------------------------------------------------


def nearest_signed_distance(x):
    """x minus its nearest integer, in [-1/2, 1/2); half-integers map to -1/2."""
    x = np.asarray(x, dtype=float)
    out = x - np.floor(x + 0.5)
    return float(out) if np.ndim(out) == 0 else out


def f_plus(q) -> float:
    """Geometric mean of max(1, |q_i|)."""
    q = np.asarray(q, dtype=float)
    return float(np.prod(np.maximum(1.0, np.abs(q))) ** (1.0 / q.size))


def _mp_value(v) -> mpmath.mpf:
    if isinstance(v, Quad):
        a, b = v.a, v.b
        return (mpmath.mpf(a.numerator) / a.denominator
                + mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(v.d))
    if isinstance(v, Fraction):
        return mpmath.mpf(v.numerator) / v.denominator
    return mpmath.mpf(v)


def _mp_signed(v: mpmath.mpf) -> mpmath.mpf:
    return v - mpmath.floor(v + mpmath.mpf(1) / 2)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NuVector:
    nu: tuple[float, ...]

    def __post_init__(self):
        if any(v <= 0 for v in self.nu):
            raise ValueError("nu components must be positive")
        prod = math.prod(self.nu)
        if abs(prod - 1.0) > 1e-9:
            raise ValueError(f"prod(nu) = {prod} != 1")


@dataclass(frozen=True)
class TransferParams:
    lam: float
    mu: float
    n: int

    def __post_init__(self):
        if not (0 < self.lam < math.inf and 0 < self.mu < math.inf
                and self.n >= 1):
            raise ValueError("lambda, mu must be positive and finite and "
                             "n >= 1")

    @property
    def p_bound(self) -> float:
        return self.n * self.mu * self.lam ** ((1 - self.n) / self.n)

    @property
    def p_max(self) -> int:
        """The largest p of system (ii), floor(p_bound)."""
        return int(math.floor(self.p_bound + 1e-12))

    @property
    def gm_bound(self) -> float:
        return self.n * self.lam ** (1.0 / self.n)


@dataclass(frozen=True)
class TransferWitness:
    q_vec: tuple[int, ...]
    p_int: int
    params: TransferParams
    nu: Optional[NuVector]
    checks: dict


# ---------------------------------------------------------------------------
# Box parametrization
# ---------------------------------------------------------------------------


def find_nu(x: Sequence[float], lam: float) -> Optional[NuVector]:
    """nu with prod(nu) = 1 and max nu_i |x_i| <= lam, iff (prod|x_i|)^(1/n) <= lam.

    Nonzero coordinates take nu_i = lam/|x_i| (the last one its forced
    reciprocal); zero coordinates share the value that restores prod = 1.
    Returns None exactly when the geometric mean exceeds lam.
    """
    if not 0 < lam < math.inf:
        raise ValueError("lambda must be positive and finite")
    xs = [abs(float(v)) for v in x]
    if not all(map(math.isfinite, xs)):
        raise ValueError("x must be finite")
    n = len(xs)
    gm = math.prod(xs) ** (1.0 / n)
    if gm > lam:
        return None
    # coordinates so small that lam/|x_i| overflows join the zero class;
    # their nu_i |x_i| is 0 to double precision either way
    nonzero = [i for i, v in enumerate(xs) if v > lam * 1e-150]
    nu = [0.0] * n
    if len(nonzero) == n:
        prod = 1.0
        for i in nonzero[:-1]:
            nu[i] = lam / xs[i]
            prod *= nu[i]
        nu[nonzero[-1]] = 1.0 / prod
    else:
        prod = 1.0
        for i in nonzero:
            nu[i] = lam / xs[i]
            prod *= nu[i]
        share = prod ** (-1.0 / (n - len(nonzero)))
        for i in range(n):
            if i not in nonzero:
                nu[i] = share
    return NuVector(tuple(nu))


# ---------------------------------------------------------------------------
# Matrix encodings
# ---------------------------------------------------------------------------

_HALF_SQRT2 = math.sqrt(2.0) / 2.0


@dataclass(frozen=True)
class MatrixEncoding:
    kind: str
    entries: np.ndarray


def build_matrices(kind: str, x: Sequence[float], params: TransferParams,
                   nu: NuVector, nu_prime: Optional[NuVector] = None) -> MatrixEncoding:
    """The (n+1)x(n+1) encodings; primed union-jack kinds need nu_prime.

    The union-jack kinds are planar: Atilde and AtildeTilde are A and Astar
    at n = 2."""
    xs = [float(v) for v in x]
    n = params.n
    lam, mu = params.lam, params.mu
    if len(xs) != n or len(nu.nu) != n:
        raise DimensionMismatch("x and nu must have length n")
    if kind not in ("A", "Astar") and n != 2:
        raise DimensionMismatch("union-jack encodings are planar (n = 2)")
    if kind in ("A", "Atilde"):
        m = np.zeros((n + 1, n + 1))
        for i in range(n):
            m[i, 0] = xs[i] / lam
            m[i, i + 1] = nu.nu[i] / mu
        m[n, 0] = 1.0 / lam
        return MatrixEncoding(kind, m)
    if kind in ("Astar", "AtildeTilde"):
        m = np.zeros((n + 1, n + 1))
        m[0, 0] = lam
        for i in range(n):
            m[0, i + 1] = -mu / nu.nu[i] * xs[i]
            m[i + 1, i + 1] = mu / nu.nu[i]
        return MatrixEncoding(kind, m)
    if nu_prime is None:
        raise DimensionMismatch("primed kinds need nu_prime")
    xx, yy = xs
    n2 = nu.nu[1]
    p1, p2 = nu_prime.nu
    c = _HALF_SQRT2
    if kind == "AtildePrime":
        # transcribed as displayed; row 2, column 3 carries nu_2 (not nu_2')
        m = np.array([[xx / lam, c * p1 / mu, -c * p2 / mu],
                      [-yy / lam, c * p1 / mu, c * n2 / mu],
                      [1.0 / lam, 0.0, 0.0]])
        return MatrixEncoding(kind, m)
    if kind == "AtildeTildePrime":
        m = np.array([[lam, -c * mu / p1 * (xx - yy), c * mu / p2 * (xx + yy)],
                      [0.0, c * mu / p1, c * mu / p2],
                      [0.0, -c * mu / p1, c * mu / p2]])
        return MatrixEncoding(kind, m)
    raise ValueError(f"unknown matrix kind {kind!r}")


def phi_form(a_til: Sequence[int], b_til: Sequence[int],
             a_mat: MatrixEncoding, a_star: MatrixEncoding) -> float:
    """(a~ A) . (b~ A*); equals a1 b2 + ... + a_n b_{n+1} + a_{n+1} b1."""
    av = np.asarray(a_til, dtype=float) @ a_mat.entries
    bv = np.asarray(b_til, dtype=float) @ a_star.entries
    return float(av @ bv)


def phi_target(a_til: Sequence[int], b_til: Sequence[int]) -> int:
    n1 = len(a_til)
    return sum(int(a_til[i]) * int(b_til[i + 1]) for i in range(n1 - 1)) \
        + int(a_til[-1]) * int(b_til[0])


# ---------------------------------------------------------------------------
# The two systems
# ---------------------------------------------------------------------------


def _dot(x: Sequence[Coordinate], q: np.ndarray) -> np.ndarray:
    """The float sums q_1 x_1 + ... + q_n x_n, added left to right."""
    total = np.zeros(len(q))
    for i, xi in enumerate(x):
        total = total + q[:, i] * float(xi)
    return total


def _mp_signed_dot(x, q_row):
    return abs(_mp_signed(mpmath.fsum(int(qi) * _mp_value(xi)
                                      for qi, xi in zip(q_row, x))))


def _entry_lim(cap: float, prod, q_bound: int) -> np.ndarray:
    """The |q_i| range of a product-box entry after a prefix whose
    prod max(|q_j|, 1) is prod."""
    return np.minimum(q_bound, np.floor(cap / prod + 1e-9)).astype(np.int64)


def _enumerate_product_box(n: int, cap: float, q_bound: int) -> np.ndarray:
    """All q != 0 (canonical) with prod max(|q_i|, 1) <= cap, |q_i| <= q_bound,
    in lexicographic order; none for n = 0.

    Extends the prefixes one coordinate at a time, each by the range its
    partial product allows.  Canonical rows have a positive first nonzero
    entry, so an all-zero prefix takes only entries >= 0 (>= 1 in the last
    coordinate).
    """
    q = np.zeros((min(n, 1), 0), dtype=np.int64)
    prod = np.ones(1)
    for i in range(n):
        lim = _entry_lim(cap, prod, q_bound)
        lo = np.where(q.any(axis=1), -lim, int(i == n - 1))
        counts = np.maximum(lim - lo + 1, 0)
        out = np.empty((counts.sum(), i + 1), dtype=np.int64)
        out[:, :i] = q.repeat(counts, axis=0)
        # the j-th row extending a prefix takes the entry lo + j
        out[:, i] = np.arange(len(out))
        out[:, i] += (lo - (counts.cumsum() - counts)).repeat(counts)
        if i < n - 1:
            prod = prod.repeat(counts) * np.maximum(np.abs(out[:, i]), 1)
        q = out
    return q


def _window_rows(x: Sequence[Coordinate], expo: float, prefix: np.ndarray,
                 lim: np.ndarray, size_floor) -> np.ndarray:
    """Canonical q = (q', q_n), q' a row of prefix and |q_n| <= its lim,
    that can pass ``_q_filter`` against size(q)^expo (expo < 0); a superset
    of them, few beyond.  The prefix rows are canonical or zero; a zero
    prefix takes only q_n > 0.

    The q_n fall into the shells {0, +-1} and 2^(j-1) < |q_n| <= 2^j.  In a
    shell whose rows have m <= |q_n| <= M, size(q) >= size_floor(i, m, M)
    for every row on prefix row i, so w = size_floor^expo (plus the margins
    below) bounds every threshold in the (prefix, shell) cell.  Let t be the
    float sum over the prefix that ``_dot`` forms before it adds q_n x_n
    (t = 0 for n = 1).  A row passes only if {t} + {q_n x_n} lies within w
    of an integer, so per shell the keys {q_n x_n} are sorted once and each
    prefix takes the keys within w of -{t} mod 1 by searchsorted (the whole
    shell when w >= 1/2).

    Margins, with u = 2^-53.  The row thresholds: sizes are integer
    products, exact, or carry at most three roundings (b2 of the union
    jack), and size_floor at most two, so every float size in the cell is
    >= size_floor (1 - 6u).  With pow and the products within 2u each,
    size^expo <= size_floor^expo (1 - 8u)^(-|expo| - 2).  ``_q_filter``
    keeps a row only if |<q.x>| <= threshold + _BOUNDARY + u.  The keys:
    with t_n = q_n x_n in float, ``_q_filter`` rounds fl(t + t_n) from the
    same float t, so |<q.x>| is the distance of fl(t + t_n) to Z, which lies
    within u M of t + t_n when |t| + |t_n| <= M, and t + t_n = {t} + {t_n}
    mod 1.  The two fractional parts, their shifts by one, the two sums
    forming w and that comparison of the filter round by at most u each,
    and each window end by 2u (it lies in [0, 2)): (M + 8) u in all, which
    delta = (M + 8) 2u with M = max|t| + top |x_n| covers twice over.
    """
    x_n = float(x[-1])
    t = _dot(x[:-1], prefix)
    top = int(lim.max())
    target = -t - np.floor(-t)
    target += target < 0.5          # the centre, in [0.5, 1.5)
    delta = (np.abs(t).max() + top * abs(x_n) + 8) * 2 * _ULP
    reach = _BOUNDARY + delta
    widen = (1 - 8 * _ULP) ** (expo - 2)
    nonzero = prefix.any(axis=1)
    found = []
    for j in range(max(top - 1, 0).bit_length() + 1):
        m, hi = (0, 1) if j == 0 else (2 ** (j - 1) + 1, 2 ** j)
        mags = np.arange(m, min(hi, top) + 1)
        q_n = np.concatenate([mags, -mags[mags > 0]])
        t_n = q_n * x_n
        key = t_n - np.floor(t_n)
        order = np.argsort(key)
        key, q_n = key[order], q_n[order]
        k = len(key)
        # both copies of the keys, so a window around the centre is a
        # single run of positions
        twice = np.concatenate([key, key + 1.0])
        live = np.flatnonzero(lim >= m)
        w = size_floor(live, m, min(hi, top)) ** expo * widen + reach
        start = np.searchsorted(twice, target[live] - w, side="left")
        stop = np.searchsorted(twice, target[live] + w, side="right")
        whole = w >= 0.5
        start[whole] = 0
        counts = np.where(whole, k, np.minimum(stop - start, k))
        # the i-th candidate of a cell takes the key at start + i (mod k)
        pos = np.arange(counts.sum())
        pos += (start - (counts.cumsum() - counts)).repeat(counts)
        cell, last = live.repeat(counts), q_n[pos % k]
        fits = (np.abs(last) <= lim[cell]) & (nonzero[cell] | (last > 0))
        found.append(np.column_stack([prefix[cell[fits]], last[fits]]))
    return np.concatenate(found)


def _box_prefixes(n: int, cap: float, q_bound: int):
    """The prefixes (q_1..q_{n-1}) of the product box prod max(|q_i|, 1) <=
    cap, |q_i| <= q_bound, for ``_window_rows``: the zero one and every
    canonical one, with their products and the last-entry range the box
    gives each."""
    prefix = np.concatenate([np.zeros((1, n - 1), np.int64),
                             _enumerate_product_box(n - 1, cap, q_bound)])
    prod = np.prod(np.maximum(np.abs(prefix), 1), axis=1)
    return prefix, prod, _entry_lim(cap, prod, q_bound)


def _at_most(vals: np.ndarray, thresh, mp_at_most) -> np.ndarray:
    """Mask of vals <= thresh (a scalar or one per value).

    The float comparison decides outside the band _BOUNDARY max(1, |thresh|)
    around the threshold; a value inside it is decided by mp_at_most(index)
    at ``_MP_PREC`` bits.
    """
    keep = vals <= thresh
    band = _BOUNDARY * np.maximum(1.0, np.abs(thresh))
    for i in np.flatnonzero(np.abs(vals - thresh) <= band):
        with mpmath.workprec(_MP_PREC):
            keep[i] = mp_at_most(i)
    return keep


def _q_filter(x: Sequence[Coordinate], q: np.ndarray, thresh,
              mp_thresh) -> np.ndarray:
    """Mask of the rows with |<q.x>| <= thresh (a scalar or one per row),
    by ``_at_most``; a row in the band is compared against mp_thresh(row
    index)."""
    vals = np.abs(nearest_signed_distance(_dot(x, q)))
    return _at_most(vals, thresh,
                    lambda i: _mp_signed_dot(x, q[i]) <= mp_thresh(i))


def solve_system_i(x: Sequence[Coordinate], params: TransferParams,
                   q_bound: int) -> list[tuple[int, ...]]:
    """Canonical q != 0 with |<q.x>| <= lambda and (prod max(|q_i|,1))^(1/n) <= mu.

    Exhaustive over |q_i| <= q_bound; boundary-tight inner products are
    re-evaluated at high precision.  The whole box is filtered, with no
    window search (``_window_rows``): lambda is one threshold for every
    row, and at prop5's lambda in [0.3, 0.5] a window keeps most of the
    box.  Over prop5's 150 instances (seed 2, Qbound 200) a window kept
    110,422 of the 137,426 box rows and took 0.11 s against 0.012 s for the
    box (2-vCPU VM).  Sorted by (F_plus, lexicographic):
    F_plus = P^(1/n) with the integer P = prod max(|q_i|,1) <= mu^n, and
    for P < P' the relative gap of the roots is at least 1/(nP), far above
    one ulp, so ordering by P orders by F_plus, ties included.
    """
    n = params.n
    if len(x) != n:
        raise DimensionMismatch("x must have length n")
    q = _enumerate_product_box(n, params.mu ** n, q_bound)
    sols = q[_q_filter(x, q, params.lam, lambda i: mpmath.mpf(params.lam))]
    prod = np.prod(np.maximum(np.abs(sols), 1), axis=1)
    # np.lexsort: the last key is the primary one
    order = np.lexsort((*sols.T[::-1], prod))
    return [tuple(row) for row in sols[order].tolist()]


def system_ii_values(x: Sequence[Coordinate], p: int) -> float:
    """Geometric mean of |<p x_i>|."""
    prod = 1.0
    for xi in x:
        prod *= abs(nearest_signed_distance(p * float(xi)))
    return prod ** (1.0 / len(x))


def _p_distances(x: Sequence[Coordinate], p_max: int, start: int = 1):
    """<p x_i> for p = start..p_max (index p-start), one array per
    coordinate; each value is the same float for every start.

    A generator, so that a caller folding the arrays holds one at a time.
    """
    ps = np.arange(start, p_max + 1, dtype=float)
    for xi in x:
        yield nearest_signed_distance(ps * float(xi))


def _mp_distances(x: Sequence[Coordinate], p: int) -> list[mpmath.mpf]:
    """<p x_i> at the working precision, one per coordinate."""
    return [_mp_signed(p * _mp_value(xi)) for xi in x]


def _gm_grid(x: Sequence[Coordinate], p_max: int,
             start: int = 1) -> np.ndarray:
    """GM(<p x_i>) for p = start..p_max (index p-start)."""
    prod = np.ones(p_max - start + 1)
    for d in _p_distances(x, p_max, start):
        prod *= np.abs(d)
    return prod ** (1.0 / len(x))


def _mp_gm(x: Sequence[Coordinate], p: int) -> mpmath.mpf:
    """GM(|<p x_i>|) at the working precision."""
    prod = mpmath.mpf(1)
    for d in _mp_distances(x, p):
        prod *= abs(d)
    return prod ** (mpmath.mpf(1) / len(x))


class _QualityBlocks:
    """quality(p) for p = 1..p_top, computed by grid(start, stop) in blocks
    of ``_P_BLOCK`` p values, each block once and only when a scan reaches
    it.  Every value equals that of one grid over 1..p_top."""

    def __init__(self, grid, p_top: int):
        self._grid, self._top, self._size = grid, p_top, _P_BLOCK
        self._blocks = []

    def least_p(self, p_max: int, bound: float, mp_quality):
        """(p, quality(p)) for the least p <= p_max with quality(p) <= bound,
        or (None, None).  Each block in turn is decided by ``_at_most``, a
        p in the band by mp_quality(p), up to the first block that holds
        such a p."""
        for b, start in enumerate(range(1, p_max + 1, self._size)):
            if b == len(self._blocks):
                self._blocks.append(self._grid(
                    start, min(start + self._size - 1, self._top)))
            block = self._blocks[b][:p_max - start + 1]
            passed = np.flatnonzero(_at_most(
                block, bound,
                lambda i: mp_quality(start + int(i)) <= mpmath.mpf(bound)))
            if passed.size:
                return start + int(passed[0]), float(block[passed[0]])
        return None, None


def solve_system_ii(x: Sequence[Coordinate], params: TransferParams
                    ) -> Optional[int]:
    """Smallest p with 0 < p <= n mu lambda^((1-n)/n) and GM(<p x_i>) <= n lambda^(1/n).

    The threshold is the one the dual-lattice bound delivers; whether the
    stricter GM <= n*lambda also holds is recorded by callers, not required.
    Returns None when no p in range qualifies.
    """
    if len(x) != params.n:
        raise DimensionMismatch("x must have length n")
    blocks = _QualityBlocks(lambda lo, hi: _gm_grid(x, hi, lo), params.p_max)
    return blocks.least_p(params.p_max, params.gm_bound,
                          lambda p: _mp_gm(x, p))[0]


# ---------------------------------------------------------------------------
# Prop-5 style equivalence report
# ---------------------------------------------------------------------------


@dataclass
class Prop5Report:
    params: TransferParams
    system_i_count: int
    system_ii_p: Optional[int]
    witness: Optional[TransferWitness]
    counterexamples: list = field(default_factory=list)
    forward: str = "vacuous"   # vacuous | witness | counterexample
    reverse: str = "vacuous"

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def verify_prop5(x: Sequence[Coordinate], params: TransferParams,
                 q_bound: int) -> Prop5Report:
    """Empirical check of both implications between systems (i) and (ii).

    A counterexample candidate signals an implementation or precision
    problem (or an insufficient q_bound), never a ground-truth refutation;
    the q-search is complete whenever q_bound >= mu^n.
    """
    sols = solve_system_i(x, params, q_bound)
    p = solve_system_ii(x, params)
    report = Prop5Report(params=params, system_i_count=len(sols),
                         system_ii_p=p, witness=None)
    if sols:
        if p is None:
            report.forward = "counterexample"
            report.counterexamples.append(
                {"direction": "i->ii", "q": sols[0], "p": None})
        else:
            q0 = sols[0]
            nu = find_nu([max(abs(v), 1.0) for v in q0], params.mu)
            gm = system_ii_values(x, p)
            report.forward = "witness"
            report.witness = TransferWitness(
                q_vec=q0, p_int=p, params=params, nu=nu,
                checks={
                    "inner_product": float(abs(nearest_signed_distance(
                        _dot(x, np.array([q0])))[0])),
                    "f_plus": f_plus(q0),
                    "gm": gm,
                    "gm_bound": params.gm_bound,
                    "gm_strict_bound": params.n * params.lam,
                    "gm_strict_ok": bool(gm <= params.n * params.lam),
                    "p_bound": params.p_bound,
                    "p_tight_bound": params.n * params.mu * params.lam ** (1.0 / params.n),
                    "p_tight_ok": bool(p <= params.n * params.mu
                                       * params.lam ** (1.0 / params.n)),
                })
    if p is not None:
        report.reverse = "witness" if sols else "counterexample"
        if not sols:
            report.counterexamples.append(
                {"direction": "ii->i", "p": p, "q": None,
                 "complete_search": bool(q_bound >= params.mu ** params.n)})
    return report


# ---------------------------------------------------------------------------
# Theorem harnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferStep:
    q_vec: tuple[int, ...]
    mu: float
    lam: float
    p: Optional[int]
    quality: Optional[float]       # GM (or F') value at p
    admissible_eps: Optional[float]
    branch: str = ""


@dataclass
class TransferReport:
    kind: str
    epsilon: float
    bound: float
    steps: list[TransferStep]

    @property
    def distinct_p(self) -> int:
        return len({s.p for s in self.steps if s.p is not None})

    def to_json(self):
        return {
            "kind": self.kind,
            "epsilon": self.epsilon,
            "bound": self.bound,
            "distinct_p": self.distinct_p,
            "witnesses": [
                {"q": list(s.q_vec), "mu": s.mu, "lambda": s.lam, "p": s.p,
                 "quality": s.quality, "admissible_eps_prime": s.admissible_eps,
                 "branch": s.branch}
                for s in self.steps],
        }


def _transfer(kind: str, x: Sequence[Coordinate], epsilon: float,
              bound: float, k: int, rows, mu_of, grid, mp_quality,
              branch=None) -> TransferReport:
    """The pipeline behind every harness.

    x needs at least one coordinate and epsilon must be positive.  A bound
    of 0 leaves an empty region (``NoSolutions``); a negative one is
    rejected, since the mult and union-jack regions square it, and so is
    an infinite one, whose region has no end.  rows(expo)
    gives the candidate rows q and their sizes, from a window search
    (``_window_rows``) over the harness's region at every n, which returns
    every row of the region that can pass the filter.  Keeps the rows with
    |<q.x>| <= size(q)^(-k-eps), orders them by (mu, q) with
    mu = mu_of(size), sets lambda = mu^(-k-eps), and transfers each to the
    least p <= n mu lambda^((1-n)/n) whose quality is at most
    n lambda^(1/n).  The quality is grid(start, stop) over blocks of
    ``_P_BLOCK`` p values (``_QualityBlocks``), computed as far as some
    step scans, and mp_quality(p) near the threshold.  branch(q) labels a
    step.

    admissible_eps is the largest eps' in the grid eps/2^k (k = 1..20) for
    which some p in range meets quality(p) <= p^(-(1+eps')/n).  That is
    always the first value, eps/2: p = 1 is in range whenever p_max >= 1,
    each |<x_i>| <= 1/2 bounds its GM, max and F' by 1/2, and 1^y = 1.
    """
    if len(x) == 0:
        raise ValueError("x must have at least one coordinate")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0 <= bound < math.inf:
        raise ValueError(
            f"bound must not be negative or infinite, got {bound}")
    n = len(x)
    expo = -float(k) - epsilon
    q, size = rows(expo)
    keep = _q_filter(x, q, size ** expo, lambda i: mpmath.mpf(
        float(size[i])) ** (mpmath.mpf(-k) - epsilon))
    if not keep.any():
        raise NoSolutions(f"no {kind} transference solutions below the "
                          "bound; raise the bound")
    witnesses = sorted((mu_of(size[i]), tuple(int(v) for v in q[i]))
                       for i in np.flatnonzero(keep))
    params = [TransferParams(lam=mu ** expo, mu=mu, n=n)
              for mu, _ in witnesses]
    quality = _QualityBlocks(grid, max(pr.p_max for pr in params))
    steps = []
    for (mu, q_vec), pr in zip(witnesses, params):
        p, value = quality.least_p(pr.p_max, pr.gm_bound, mp_quality)
        steps.append(TransferStep(
            q_vec, mu, pr.lam, p, value,
            epsilon / 2 if pr.p_max >= 1 else None,
            branch(q_vec) if branch else ""))
    return TransferReport(kind, epsilon, bound, steps)


def _mult_rows(x: Sequence[Coordinate], cap: float, expo: float):
    """Candidate rows of the multiplicative harness, prod max(|q_i|,1) <= cap,
    and their products."""
    prefix, prod, lim = _box_prefixes(len(x), cap, 10 ** 9)
    q = _window_rows(x, expo, prefix, lim,
                     lambda i, m, m_hi: prod[i] * max(m, 1.0))
    return q, np.prod(np.maximum(1.0, np.abs(q)), axis=1)


def verify_theorem_multitrans(x: Sequence[Coordinate], epsilon: float,
                              fplus_bound: float) -> TransferReport:
    """Multiplicative transference pipeline.

    Enumerates solutions q of |<q.x>| <= (prod max(|q_i|,1))^(-1-eps) with
    F_plus(q) <= bound, sets mu_j = F_plus(q_j), lambda_j = mu_j^(-1-eps),
    and transfers each to the least p of system (ii).
    """
    n = len(x)
    return _transfer("mult", x, epsilon, fplus_bound, 1,
                     functools.partial(_mult_rows, x, fplus_bound ** n),
                     mu_of=lambda s: float(s ** (1.0 / n)),
                     grid=lambda lo, hi: _gm_grid(x, hi, lo),
                     mp_quality=lambda p: _mp_gm(x, p))


def _union_jack_products(q: np.ndarray):
    b1 = np.maximum(1.0, np.abs(q[:, 0])) * np.maximum(1.0, np.abs(q[:, 1]))
    b2 = _HALF_SQRT2 * np.maximum(1.0, np.abs(q[:, 0] + q[:, 1])) \
        * np.maximum(1.0, np.abs(q[:, 0] - q[:, 1]))
    return b1, b2


def _mp_union_jack(x: Sequence[Coordinate], p: int) -> mpmath.mpf:
    """F'(<p x>, <p y>) = min(|uv|, |u^2 - v^2|/2)^(1/2)."""
    u, v = _mp_distances(x, p)
    return mpmath.sqrt(min(abs(u * v), abs(u * u - v * v) / 2))


def _union_jack_branch(q_vec) -> str:
    b1, b2 = _union_jack_products(np.array([q_vec]))
    return "axis" if b1[0] <= b2[0] else "rotated"


def _unionjack_rows(x: Sequence[Coordinate], cap: float, expo: float):
    """Candidate rows of the union-jack harness, min(b1, b2) <= cap, and
    min(b1, b2).

    s = max(|q1 + q2|, 1) max(|q1 - q2|, 1) is at least |q1| + |q2|, and
    at least (q1 + m) max(q1 - M, m - q1, 1) when m <= |q2| <= M.  The
    rotated product b2 = s/sqrt2 carries three roundings, so
    b2 <= cap + 1e-9 forces |q1| + |q2| <= sqrt2 (cap + 1e-9) (1 - u)^-3,
    which the float product ``rotated`` bounds from above.  rotated is
    also at least floor(cap + 1e-9), the q1 range of the axis branch.
    """
    rotated = math.floor(math.sqrt(2.0) * (cap + 1e-9) * (1 + 8 * _ULP))
    q1 = np.arange(rotated + 1)
    # prefix row i is the entry q1 = i, so size_floor reads q1 from i
    q = _window_rows(
        x, expo, q1[:, None],
        np.maximum(_entry_lim(cap, np.maximum(q1, 1), rotated), rotated - q1),
        lambda q1, m, m_hi: np.minimum(
            np.maximum(q1, 1) * max(m, 1.0),
            _HALF_SQRT2 * (np.maximum(q1 + m, 1)
                           * np.maximum(np.maximum(q1 - m_hi, m - q1), 1))))
    size = np.minimum(*_union_jack_products(q))
    region = size <= cap + 1e-9
    return q[region], size[region]


def verify_theorem_unionjack(x: Coordinate, y: Coordinate, epsilon: float,
                             bound: float) -> TransferReport:
    """Union-jack transference pipeline (axis and rotated branches).

    Condition (i) uses min of the two branch products to power -1-eps;
    the quality of p is F'(<p x>, <p y>) with F' the union-jack distance
    function.
    """
    fprime = union_jack()
    return _transfer("unionjack", (x, y), epsilon, bound, 1,
                     functools.partial(_unionjack_rows, (x, y), bound ** 2),
                     mu_of=math.sqrt,
                     grid=lambda lo, hi: fprime.eval_xy(
                         *_p_distances((x, y), hi, lo)),
                     mp_quality=lambda p: _mp_union_jack((x, y), p),
                     branch=_union_jack_branch)


def _height_rows(x: Sequence[Coordinate], bound: int, expo: float):
    """Candidate rows of the height harness, |q|_inf <= bound, and |q|_inf."""
    prefix, _, lim = _box_prefixes(len(x), float(bound) ** len(x), bound)
    height = np.abs(prefix).max(axis=1, initial=0)
    q = _window_rows(x, expo, prefix, lim,
                     lambda i, m, m_hi: np.maximum(height[i], max(m, 1.0)))
    return q, np.max(np.abs(q), axis=1).astype(float)


def _mp_height(x: Sequence[Coordinate], p: int) -> mpmath.mpf:
    """max_i |<p x_i>|."""
    return max(abs(d) for d in _mp_distances(x, p))


def verify_khintchine_transfer(x: Sequence[Coordinate], epsilon: float,
                               bound: int) -> TransferReport:
    """Height/inner-product transference harness.

    (i): |<q.x>| <= |q|_inf^(-n-eps) over |q|_inf <= bound; each solution
    transfers with mu_j = |q|_inf, lambda_j = mu_j^(-n-eps) to a p with
    max_i ||p x_i|| <= n lambda^(1/n).
    """
    n = len(x)
    return _transfer("height", x, epsilon, bound, n,
                     functools.partial(_height_rows, x, bound), mu_of=float,
                     grid=lambda lo, hi: functools.reduce(
                         np.maximum, map(np.abs, _p_distances(x, hi, lo))),
                     mp_quality=lambda p: _mp_height(x, p))
