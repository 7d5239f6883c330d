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

from . import sampling
from .dsl import parse_number
from .measure import (_Kernel, _analytic_density,
                      analytic_density_info, density)
from .starbody import Expr

_MONOTONE_BLOCK = 200_000   # q per block of PsiFamily.check_monotone

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
    with psi(q) taken as ``float(psi(q))``.  Per chunk of samples, one
    ``_Kernel.any_hit`` call decides whether some q of the block hits
    each sample; it schedules the q-batches and may decide the later q
    only where a lattice of q can pass the kernel's wrap test, with the
    same bits.  The sample stream depends only on (seed, index), so runs
    with the same seed are coupled across different psi.  psi is not
    checked for monotonicity here (see ``PsiFamily``).
    """
    if n_block < 1:
        raise ValueError("N must be >= 1")
    q0 = max(n_block, psi.q_start)
    eps = np.array([float(psi(q)) for q in range(q0, 2 * n_block + 1)])
    kern = _Kernel(f)
    return sampling.indicator_estimate(lambda pts: kern.any_hit(pts, q0, eps),
                                       samples, seed)


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

    One ``_Kernel.minimum`` call over q = 1 .. Qmax finds the minima of
    F(q*x - p); the value at q is F(x - p/q) = F(q*x - p)/q."""
    if q_max < 1:
        raise ValueError("Qmax must be >= 1")
    # threshold irrelevant for pure minimization
    raws, ps = _Kernel(f).minimum(x, np.arange(1, q_max + 1), 1.0)
    out = []
    best = math.inf
    for q, (raw, p) in enumerate(zip(raws.tolist(), ps.tolist()), start=1):
        val = raw / q
        rec = val < best
        if rec:
            best = val
        out.append(BestApproximation(q, (int(p[0]), int(p[1])), val, rec))
    return out
