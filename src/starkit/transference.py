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
the candidate rows q, their size and exponent k, mu of a kept row, and
the quality of p (GM, union-jack F', or max norm):

  enumerate q -> keep |<q.x>| <= size(q)^(-k-eps) (``_q_filter``)
  -> order by (mu, q), lambda = mu^(-k-eps)
  -> least p <= n mu lambda^((1-n)/n) with quality(p) <= n lambda^(1/n)
     (``_least_p``).

Each step also reports an admissible eps' = eps/2, which carries no
information about p (see ``_transfer``).

``solve_system_i`` uses the same q-filter and ``solve_system_ii`` the same
least-p selector.  Both comparisons run in float64; a value within 1e-9 of
its threshold is re-evaluated in mpmath at ``_MP_PREC`` bits, with
quadratic surds and fractions taken exactly.
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
        if self.lam <= 0 or self.mu <= 0 or self.n < 1:
            raise ValueError("lambda, mu must be positive and n >= 1")

    @property
    def p_bound(self) -> float:
        return self.n * self.mu * self.lam ** ((1 - self.n) / self.n)

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
    if lam <= 0:
        raise ValueError("lambda must be positive")
    xs = [abs(float(v)) for v in x]
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
    """The (n+1)x(n+1) encodings; primed union-jack kinds need nu_prime."""
    xs = [float(v) for v in x]
    n = params.n
    lam, mu = params.lam, params.mu
    if len(xs) != n or len(nu.nu) != n:
        raise DimensionMismatch("x and nu must have length n")
    if kind == "A":
        m = np.zeros((n + 1, n + 1))
        for i in range(n):
            m[i, 0] = xs[i] / lam
            m[i, i + 1] = nu.nu[i] / mu
        m[n, 0] = 1.0 / lam
        return MatrixEncoding(kind, m)
    if kind == "Astar":
        m = np.zeros((n + 1, n + 1))
        m[0, 0] = lam
        for i in range(n):
            m[0, i + 1] = -mu / nu.nu[i] * xs[i]
            m[i + 1, i + 1] = mu / nu.nu[i]
        return MatrixEncoding(kind, m)
    if n != 2:
        raise DimensionMismatch("union-jack encodings are planar (n = 2)")
    xx, yy = xs
    n1, n2 = nu.nu
    if kind == "Atilde":
        m = np.array([[xx / lam, n1 / mu, 0.0],
                      [yy / lam, 0.0, n2 / mu],
                      [1.0 / lam, 0.0, 0.0]])
        return MatrixEncoding(kind, m)
    if kind == "AtildeTilde":
        m = np.array([[lam, -mu / n1 * xx, -mu / n2 * yy],
                      [0.0, mu / n1, 0.0],
                      [0.0, 0.0, mu / n2]])
        return MatrixEncoding(kind, m)
    if nu_prime is None:
        raise DimensionMismatch("primed kinds need nu_prime")
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


def _signed_dot(x: Sequence[Coordinate], q: np.ndarray) -> np.ndarray:
    total = np.zeros(len(q))
    for i, xi in enumerate(x):
        total = total + q[:, i] * float(xi)
    return nearest_signed_distance(total)


def _mp_signed_dot(x, q_row):
    return abs(_mp_signed(mpmath.fsum(int(qi) * _mp_value(xi)
                                      for qi, xi in zip(q_row, x))))


def _canonical(q: np.ndarray) -> np.ndarray:
    """Keep one representative of each +-q pair: first nonzero entry > 0."""
    lead = np.zeros(len(q))
    undecided = np.ones(len(q), dtype=bool)
    for i in range(q.shape[1]):
        col = q[:, i]
        lead = np.where(undecided & (col != 0), col, lead)
        undecided &= col == 0
    return q[lead > 0]


def _enumerate_product_box(n: int, cap: float, q_bound: int) -> np.ndarray:
    """All q != 0 (canonical) with prod max(|q_i|, 1) <= cap, |q_i| <= q_bound,
    in lexicographic order.

    Extends the prefixes one coordinate at a time, each by the range its
    partial product allows.  Canonical rows have a positive first nonzero
    entry, so an all-zero prefix takes only entries >= 0 (>= 1 in the last
    coordinate).
    """
    q = np.zeros((1, 0), dtype=np.int64)
    prod = np.ones(1)
    for i in range(n):
        lim = np.minimum(q_bound, np.floor(cap / prod + 1e-9)).astype(np.int64)
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


def _q_filter(x: Sequence[Coordinate], q: np.ndarray, thresh,
              mp_thresh) -> np.ndarray:
    """Mask of the rows with |<q.x>| <= thresh (a scalar or one per row).

    A row within the boundary band of its threshold is decided at high
    precision against mp_thresh(row index).
    """
    vals = np.abs(_signed_dot(x, q))
    keep = vals <= thresh - _BOUNDARY
    for i in np.flatnonzero(np.abs(vals - thresh) <= _BOUNDARY):
        with mpmath.workprec(_MP_PREC):
            keep[i] = _mp_signed_dot(x, q[i]) <= mp_thresh(i)
    return keep


def solve_system_i(x: Sequence[Coordinate], params: TransferParams,
                   q_bound: int) -> list[tuple[int, ...]]:
    """Canonical q != 0 with |<q.x>| <= lambda and (prod max(|q_i|,1))^(1/n) <= mu.

    Exhaustive over |q_i| <= q_bound; boundary-tight inner products are
    re-evaluated at high precision.  Sorted by (F_plus, lexicographic):
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


def _p_distances(x: Sequence[Coordinate], p_max: int):
    """<p x_i> for p = 1..p_max (index p-1), one array per coordinate.

    A generator, so that a caller folding the arrays holds one at a time.
    """
    ps = np.arange(1, p_max + 1, dtype=float)
    for xi in x:
        yield nearest_signed_distance(ps * float(xi))


def _mp_distances(x: Sequence[Coordinate], p: int) -> list[mpmath.mpf]:
    """<p x_i> at the working precision, one per coordinate."""
    return [_mp_signed(p * _mp_value(xi)) for xi in x]


def _gm_grid(x: Sequence[Coordinate], p_max: int) -> np.ndarray:
    """GM(<p x_i>) for p = 1..p_max (index p-1)."""
    prod = np.ones(p_max)
    for d in _p_distances(x, p_max):
        prod *= np.abs(d)
    return prod ** (1.0 / len(x))


def _mp_gm(x: Sequence[Coordinate], p: int) -> mpmath.mpf:
    """GM(|<p x_i>|) at the working precision."""
    prod = mpmath.mpf(1)
    for d in _mp_distances(x, p):
        prod *= abs(d)
    return prod ** (mpmath.mpf(1) / len(x))


def _least_p(quality: np.ndarray, p_max: int, bound: float,
             mp_quality) -> Optional[int]:
    """Least p in 1..p_max with quality[p-1] <= bound, or None.

    A value within the boundary band of bound is decided by mp_quality(p)
    at high precision.
    """
    band = _BOUNDARY * max(1.0, abs(bound))
    for p in np.flatnonzero(quality[:p_max] <= bound + _BOUNDARY) + 1:
        if bound - quality[p - 1] > band:
            return int(p)
        with mpmath.workprec(_MP_PREC):
            if mp_quality(int(p)) <= mpmath.mpf(bound):
                return int(p)
    return None


def solve_system_ii(x: Sequence[Coordinate], params: TransferParams
                    ) -> Optional[int]:
    """Smallest p with 0 < p <= n mu lambda^((1-n)/n) and GM(<p x_i>) <= n lambda^(1/n).

    The threshold is the one the dual-lattice bound delivers; whether the
    stricter GM <= n*lambda also holds is recorded by callers, not required.
    Returns None when no p in range qualifies.
    """
    if len(x) != params.n:
        raise DimensionMismatch("x must have length n")
    p_max = int(math.floor(params.p_bound + 1e-12))
    if p_max < 1:
        return None
    return _least_p(_gm_grid(x, p_max), p_max, params.gm_bound,
                    lambda p: _mp_gm(x, p))


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
                    "inner_product": float(abs(_signed_dot(x, np.array([q0]))[0])),
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
              bound: float, q: np.ndarray, size: np.ndarray, k: int,
              mu_of, grid, mp_quality, branch=None) -> TransferReport:
    """The pipeline behind every harness.

    Keeps the candidate rows q with |<q.x>| <= size(q)^(-k-eps), orders
    them by (mu, q) with mu = mu_of(size), sets lambda = mu^(-k-eps), and
    transfers each to the least p <= n mu lambda^((1-n)/n) whose quality
    (grid(P)[p-1] for p <= P, mp_quality(p) near the threshold) is at most
    n lambda^(1/n).  branch(row index) labels a step.

    admissible_eps is the largest eps' in the grid eps/2^k (k = 1..20) for
    which some p in range meets quality(p) <= p^(-(1+eps')/n).  That is
    always the first value, eps/2: p = 1 is in range whenever p_max >= 1,
    each |<x_i>| <= 1/2 bounds its GM, max and F' by 1/2, and 1^y = 1.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    n = len(x)
    expo = -float(k) - epsilon
    keep = _q_filter(x, q, size ** expo, lambda i: mpmath.mpf(
        float(size[i])) ** (mpmath.mpf(-k) - epsilon))
    if not keep.any():
        raise NoSolutions(f"no {kind} transference solutions below the "
                          "bound; raise the bound")
    # mu only for the kept rows: they are few, the candidates millions
    witnesses = sorted((mu_of(size[i]), tuple(int(v) for v in q[i]), i)
                       for i in np.flatnonzero(keep))
    params = [TransferParams(lam=mu ** expo, mu=mu, n=n)
              for mu, _, _ in witnesses]
    p_maxes = [int(math.floor(pr.p_bound + 1e-12)) for pr in params]
    quality = grid(max(1, *p_maxes))
    steps = []
    for (mu, q_vec, i), pr, p_max in zip(witnesses, params, p_maxes):
        p = _least_p(quality, p_max, pr.gm_bound, mp_quality)
        steps.append(TransferStep(
            q_vec, mu, pr.lam, p, None if p is None else float(quality[p - 1]),
            epsilon / 2 if p_max >= 1 else None,
            branch(i) if branch else ""))
    return TransferReport(kind, epsilon, bound, steps)


def verify_theorem_multitrans(x: Sequence[Coordinate], epsilon: float,
                              fplus_bound: float) -> TransferReport:
    """Multiplicative transference pipeline.

    Enumerates solutions q of |<q.x>| <= (prod max(|q_i|,1))^(-1-eps) with
    F_plus(q) <= bound, sets mu_j = F_plus(q_j), lambda_j = mu_j^(-1-eps),
    and transfers each to the least p of system (ii).
    """
    n = len(x)
    q = _enumerate_product_box(n, fplus_bound ** n, q_bound=10 ** 9)
    return _transfer("mult", x, epsilon, fplus_bound, q,
                     np.prod(np.maximum(1.0, np.abs(q)), axis=1), 1,
                     mu_of=lambda s: float(s ** (1.0 / n)),
                     grid=lambda p_max: _gm_grid(x, p_max),
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


def verify_theorem_unionjack(x: Coordinate, y: Coordinate, epsilon: float,
                             bound: float) -> TransferReport:
    """Union-jack transference pipeline (axis and rotated branches).

    Condition (i) uses min of the two branch products to power -1-eps;
    the quality of p is F'(<p x>, <p y>) with F' the union-jack distance
    function.
    """
    cap = bound ** 2
    qa = _enumerate_product_box(2, cap, q_bound=10 ** 9)
    # rotated region via u = q1+q2, v = q1-q2 of equal parity
    uv = _enumerate_product_box(2, cap * math.sqrt(2.0), q_bound=10 ** 9)
    uv = np.concatenate([uv, -uv], axis=0)
    same_parity = (uv[:, 0] - uv[:, 1]) % 2 == 0
    qb = np.column_stack([(uv[:, 0] + uv[:, 1]) // 2,
                          (uv[:, 0] - uv[:, 1]) // 2])[same_parity]
    qb = _canonical(qb[np.any(qb != 0, axis=1)])
    q = np.unique(np.concatenate([qa, qb], axis=0), axis=0)
    b1, b2 = _union_jack_products(q)
    region = np.minimum(b1, b2) <= cap + 1e-9
    q, b1, b2 = q[region], b1[region], b2[region]
    fprime = union_jack()
    return _transfer("unionjack", (x, y), epsilon, bound, q,
                     np.minimum(b1, b2), 1, mu_of=math.sqrt,
                     grid=lambda p_max: fprime.eval_xy(
                         *_p_distances((x, y), p_max)),
                     mp_quality=lambda p: _mp_union_jack((x, y), p),
                     branch=lambda i: "axis" if b1[i] <= b2[i] else "rotated")


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
    q = _enumerate_product_box(n, float(bound) ** n, q_bound=bound)
    return _transfer("height", x, epsilon, bound, q,
                     np.max(np.abs(q), axis=1).astype(float), n, mu_of=float,
                     grid=lambda p_max: functools.reduce(
                         np.maximum, map(np.abs, _p_distances(x, p_max))),
                     mp_quality=lambda p: _mp_height(x, p))
