"""Khintchine series diagnostics and dichotomy experiments.

The zero-one law says |W(F; psi)| is null or full according to whether
sum_q D_F(q psi(q)) converges.  At desk scale we expose the partial sums
(with an integral-test verdict for the registered closed forms), and probe
the limsup set by the measure of dyadic tail blocks  U_{q in [N, 2N]} B_q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Callable, Sequence

import numpy as np

from . import measure, sampling
from .dsl import parse_number
from .measure import (_Kernel, _analytic_density,
                      analytic_density_info, density)
from .starbody import Expr

_MONOTONE_BLOCK = 200_000   # q per block of PsiFamily.check_monotone
_Q_BATCH = 16               # q values per membership call of tail_measure
# CPU of tail_measure's lattice path in units of one swept (sample, q)
# cell (5.6-8 ns): per sample for its basis and rows, and per enumerated
# cell.  Fitted over psi exponents 1.4, 1.6 and 2.0 (height body, 4096
# points, N = 1024, 2-vCPU Xeon VM), five runs gave 115-168 and 2.6-5.3
_LATTICE_SAMPLE_COST = 130.0
_LATTICE_CELL_COST = 5.0

# ---------------------------------------------------------------------------
# Approximation functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsiFamily:
    """psi(q) > 0 with q*psi(q) non-increasing.

    ``check_monotone`` tests the monotonicity.  The ``series`` and ``tail``
    commands are the only gate: they reject a psi that fails it from
    q_start up to the largest q they use.  The library functions take any
    psi, so that a test may probe a constant psi on purpose.

    kinds: 'power' q^-tau; 'powerlog' q^-tau (log q)^-sigma for q >= 2
    (domain starts at 2, log 1 = 0 is a removable nuisance); 'table' explicit
    values for q = 1..len(values).
    """

    kind: str
    tau: float = 0.0
    sigma: float = 0.0
    values: tuple = ()

    @staticmethod
    def power(tau: float) -> "PsiFamily":
        return PsiFamily("power", tau=tau)

    @staticmethod
    def powerlog(tau: float, sigma: float) -> "PsiFamily":
        return PsiFamily("powerlog", tau=tau, sigma=sigma)

    @staticmethod
    def table(values: Sequence[float]) -> "PsiFamily":
        vals = tuple(float(v) for v in values)
        if any(v <= 0 for v in vals):
            raise ValueError("table psi values must be positive")
        return PsiFamily("table", values=vals)

    @property
    def q_start(self) -> int:
        return 2 if self.kind == "powerlog" else 1

    def __call__(self, q):
        q = np.asarray(q, dtype=float)
        if self.kind == "power":
            out = q ** (-self.tau)
        elif self.kind == "powerlog":
            out = q ** (-self.tau) * np.log(q) ** (-self.sigma)
        elif self.kind == "table":
            qi = q.astype(int)
            if np.any(qi < 1) or np.any(qi > len(self.values)):
                raise ValueError("q outside the table domain")
            out = np.asarray(self.values, dtype=float)[qi - 1]
        else:
            raise ValueError(f"unknown psi kind {self.kind!r}")
        return float(out) if np.ndim(out) == 0 else out

    def check_monotone(self, q_max: int) -> bool:
        """True when q*psi(q) is non-increasing over [q_start, q_max].

        Checks blocks of _MONOTONE_BLOCK steps that share their end q, so
        memory stays bounded for any q_max."""
        for lo in range(self.q_start, q_max, _MONOTONE_BLOCK):
            qs = np.arange(lo, min(q_max, lo + _MONOTONE_BLOCK) + 1,
                           dtype=float)
            v = qs * self(qs)
            if not np.all(np.diff(v) <= 1e-12 * np.abs(v[:-1])):
                return False
        return True


def parse_psi(spec: str) -> PsiFamily:
    """CLI syntax: 'pow:<tau>' or 'powlog:<tau>,<sigma>', each parameter a
    DSL number (``dsl.parse_number``)."""
    head, _, rest = spec.partition(":")
    if head == "pow":
        return PsiFamily.power(float(parse_number(rest)))
    if head == "powlog":
        tau, sigma = (float(parse_number(t)) for t in rest.split(","))
        return PsiFamily.powerlog(tau, sigma)
    raise ValueError(f"unknown psi spec {spec!r}")


# ---------------------------------------------------------------------------
# Series partial sums and the analytic verdict
# ---------------------------------------------------------------------------


def _series_verdict(f: Expr, psi: PsiFamily) -> str:
    """Integral-test verdict for registered density shapes; else inconclusive.

    With D(eps) ~ eps^2 (box) or eps^2 log(1/eps) (hyperbola) the term at q
    behaves like q^a (log q)^b; the series converges iff a < -1, or a = -1
    and b < -1.
    """
    info = analytic_density_info(f)
    if info is None or psi.kind not in ("power", "powerlog"):
        return "inconclusive"
    kind, _ = info
    tau, sigma = psi.tau, (psi.sigma if psi.kind == "powerlog" else 0.0)
    a = 2.0 - 2.0 * tau
    b = -2.0 * sigma
    if kind == "hyperbola":
        if tau > 1.0:
            b += 1.0  # log(1/(q psi)) ~ (tau-1) log q
        elif tau <= 1.0:
            return "divergent"  # q*psi non-decreasing in q: terms don't vanish
    if a < -1.0 or (a == -1.0 and b < -1.0):
        return "convergent"
    if a > -1.0 or (a == -1.0 and b >= -1.0):
        return "divergent"
    return "inconclusive"


def series_partial_sums(f: Expr, psi: PsiFamily, q_max: int,
                        method: str = "auto"):
    """Partial sums S(Q) = sum_{q<=Q} D_F(q psi(q)) plus the analytic verdict.

    Returns (list of (Q, S(Q)) for every Q up to q_max, verdict).  psi is
    not checked for monotonicity here (see ``PsiFamily``).
    """
    if q_max < psi.q_start:
        raise ValueError(f"q_max {q_max} is below the first q {psi.q_start} "
                         "of psi: there is no partial sum")
    info = analytic_density_info(f)
    sums = []
    total = 0.0
    for q in range(psi.q_start, q_max + 1):
        eps = q * psi(q)
        if info is not None and method in ("auto", "analytic"):
            term = _analytic_density(info[0], info[1], eps)
        else:
            term = density(f, eps, method=method if method != "auto" else "quadrature").value
        total += term
        sums.append((q, total))
    return sums, _series_verdict(f, psi)


# ---------------------------------------------------------------------------
# Tail (dyadic block) measures
# ---------------------------------------------------------------------------


def tail_measure(f: Expr, psi: PsiFamily, n_block: int, samples: int = 100_000,
                 seed: int = 0) -> tuple[float, float]:
    """Monte Carlo measure of U_{q in [N, 2N]} B_q(F, psi(q)).

    The decisions are those of one q at a time: F(q*x - p) < q*psi(q)
    with psi(q) taken as ``float(psi(q))``.  Per chunk, one membership
    kernel first tests the samples against _Q_BATCH values of q at a
    time, and a sample leaves as soon as any q of a batch hits it.  After
    the first batch the chunk may switch paths.  On an unrestricted
    axis-monotone body with a bound F(z) >= B(z) ~ c*|z_k|
    (``measure._axis_bound``), a hit needs |wrap(q*x_k)| < delta, where
    delta comes from the largest q*psi(q) left
    (``measure._axis_radius``).  The q that pass are the points of a thin
    lattice box, about 2*delta*R per sample for the R values of q left
    (``measure._lattice_cells``), and only those cells are decided, by
    the kernel's own wrap-and-compare (``measure._wrap_below``): the same
    bits, at a cost that follows the candidates.  The switch is taken
    when its measured cost per sample, _LATTICE_SAMPLE_COST +
    2*delta*R*_LATTICE_CELL_COST in swept cells, is below min(R, 1/h),
    h being the share of the first batch's (sample, q) cells that hit:
    the sweep costs about min(R, 1/h) cells per sample, since a sample
    leaves at its first hit.  The sample stream depends only on (seed,
    index), so runs with the same seed are coupled across different psi.
    psi is not checked for monotonicity here (see ``PsiFamily``).
    """
    if n_block < 1:
        raise ValueError("N must be >= 1")
    qs = np.arange(max(n_block, psi.q_start), 2 * n_block + 1)
    eps = np.array([float(psi(int(q))) for q in qs])
    tau = qs * eps      # as ``_Kernel.hits`` forms it
    kern = _Kernel(f)
    rest = len(qs) - _Q_BATCH
    delta = cost = math.inf     # cost: of the lattice path, per sample
    if kern.axis_bound and rest > 0:
        delta = measure._axis_radius(kern.axis_bound, tau[_Q_BATCH:].max())
        cost = _LATTICE_SAMPLE_COST + _LATTICE_CELL_COST * 2.0 * delta * rest

    def hit(pts):
        alive = np.ones(len(pts), dtype=bool)
        for lo in range(0, len(qs), _Q_BATCH):
            idx = np.flatnonzero(alive)
            if idx.size == 0:
                break
            h = kern.hits(pts[idx], qs[lo:lo + _Q_BATCH],
                          eps[lo:lo + _Q_BATCH])
            alive[idx[h.any(axis=1)]] = False
            if lo == 0 and cost < rest and cost * h.mean() < 1:
                live = np.flatnonzero(alive)
                got = _lattice_hits(kern, pts[live], qs[_Q_BATCH],
                                    tau[_Q_BATCH:], delta)
                if got is not None:
                    alive[live[got]] = False
                    break
        return ~alive

    return sampling.indicator_estimate(hit, samples, seed)


def _lattice_hits(kern: _Kernel, xs, q0: int, tau, delta: float):
    """Whether some q = q0 .. q0 + len(tau) - 1 hits each point of xs,
    deciding only the cells of ``measure._lattice_cells`` on the kernel's
    bound axis (the other q cannot hit); None when it gives none."""
    cells = measure._lattice_cells(xs[:, kern.axis_bound[0]], q0,
                                   q0 + len(tau) - 1, delta)
    if cells is None:
        return None
    hit = np.zeros(len(xs), dtype=bool)
    x1, x2 = xs.T.copy()
    for i, q in cells:
        below = np.empty(len(i), dtype=bool)
        measure._wrap_below(kern.f, q, x1[i], x2[i],
                            tau[(q - q0).astype(np.intp)], below)
        hit[i[below]] = True
    return hit


@dataclass
class DichotomyReport:
    """Partial sums, analytic verdict and tail measures in one record."""

    series_partial_sums: list
    verdict: str
    tail_measures: list = field(default_factory=list)

    def to_json(self):
        return {
            "verdict": self.verdict,
            "series": [{"Q": q, "partial_sum": s}
                       for q, s in self.series_partial_sums],
            "tails": [{"N": n, "tail_measure": v, "stderr": e,
                       "samples": m, "seed": s}
                      for (n, v, e, m, s) in self.tail_measures],
        }


def dichotomy_report(f: Expr, psi: PsiFamily, q_max: int,
                     blocks: Sequence[int] = (), samples: int = 100_000,
                     seed: int = 0) -> DichotomyReport:
    sums, verdict = series_partial_sums(f, psi, q_max)
    report = DichotomyReport(series_partial_sums=sums, verdict=verdict)
    for n in blocks:
        v, e = tail_measure(f, psi, n, samples=samples, seed=seed)
        report.tail_measures.append((n, v, e, samples, seed))
    return report


# ---------------------------------------------------------------------------
# Euler-phi sum check
# ---------------------------------------------------------------------------


def totient_sieve(n: int) -> np.ndarray:
    """phi(1..n) by the linear sieve; phi[0] unused."""
    phi = np.arange(n + 1, dtype=np.int64)
    for p in range(2, n + 1):
        if phi[p] == p:  # p prime
            phi[p::p] -= phi[p::p] // p
    return phi


def euler_phi_sum_check(omega: Callable, n_max: int):
    """(lhs, rhs, ratio) with lhs = sum_{q<=N} (phi(q)/q)^2 w(q), rhs = sum_{q=2..N} w(q).

    Totients come from an exact sieve.  When omega returns Fractions/ints the
    sums are exact rationals, otherwise floats.
    """
    if n_max < 2:
        raise ValueError("N must be >= 2")
    phi = totient_sieve(n_max)
    w1 = omega(1)
    exact = isinstance(w1, Rational) and not isinstance(w1, float)
    if exact:
        lhs = Fraction(0)
        rhs = Fraction(0)
        for q in range(1, n_max + 1):
            wq = Fraction(omega(q))
            lhs += Fraction(int(phi[q]), q) ** 2 * wq
            if q >= 2:
                rhs += wq
        return lhs, rhs, lhs / rhs
    qs = np.arange(1, n_max + 1, dtype=float)
    ws = np.asarray([float(omega(int(q))) for q in range(1, n_max + 1)])
    ratios = (phi[1:].astype(float) / qs) ** 2
    lhs = float(np.sum(ratios * ws))
    rhs = float(np.sum(ws[1:]))
    return lhs, rhs, lhs / rhs


# ---------------------------------------------------------------------------
# Best approximations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BestApproximation:
    q: int
    p: tuple
    value: float  # F(x - p/q) = F(qx - p)/q
    record: bool


def best_approximations(f: Expr, x, q_max: int) -> list[BestApproximation]:
    """Per q <= Qmax the minimizing p, with record-breaking minima flagged.

    The q up to ``measure._EXHAUSTIVE_Q`` take the full window one at a
    time; all larger q go through one batched ``_Kernel.minimize``."""
    if q_max < 1:
        raise ValueError("Qmax must be >= 1")
    kern = _Kernel(f)
    # threshold irrelevant for pure minimization
    small = min(q_max, measure._EXHAUSTIVE_Q)
    found = [kern.minimize_exhaustive(x, q, 1.0) for q in range(1, small + 1)]
    if q_max > small:
        raws, ps = kern.minimize(x, np.arange(small + 1, q_max + 1), 1.0)
        found += [(raw, (int(p1), int(p2)))
                  for raw, (p1, p2) in zip(raws.tolist(), ps.tolist())]
    out = []
    best = math.inf
    for q, (raw, p) in enumerate(found, start=1):
        val = raw / q
        rec = val < best
        if rec:
            best = val
        out.append(BestApproximation(q=q, p=p, value=val, record=rec))
    return out
