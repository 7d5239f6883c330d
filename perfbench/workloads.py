"""The four benchmark workloads: CLI commands built from a seed.

A workload is a fixed list of ``starkit`` CLI commands.  One round runs
the whole list once, in order, in a fresh interpreter.  The seed only
feeds the commands' own ``--seed`` options, so every seed costs about the
same; ``quadrature`` is deterministic and ignores it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# Bodies, in the DSL of ``starkit.dsl``.
HEIGHT = "max(abs(1,0),abs(0,1))"
CUSP = "gm(abs(-sqrt2,1),abs(1,0))"
UNION_JACK = ("min(gm(abs(1,0),abs(0,1)),"
              "gm(abs(invsqrt2,invsqrt2),abs(invsqrt2,-invsqrt2)))")


# gm(|x1 - x2|, |x2|): the multiplicative body under the unimodular shear
# (x1, x2) -> (x1 - x2, x2), so its periodized density is the
# multiplicative closed form.
SHEARED = "gm(abs(1,-1),abs(0,1))"


# Sizes.  Each round of each workload takes a few seconds on one core.
QUAD_EPS = 0.375

TAIL_N = 1024
TAIL_SAMPLES = 50_000
TAIL_TAU_CONV = 1.6
TAIL_TAU_DIV = 1.4
MC_EPS = 0.1
MC_SAMPLES = 200_000

COV_EPS = 0.2
COV_Y0 = 0.5
COV_STAGES = (1_000, 100_000)
COV_SAMPLES = 10_000
COV_INTERVALS = 1_000
UBIQ_NMAX = 100_000

SEARCH_QMAX = 1_000
MULT_EPS, MULT_BOUND = 0.25, 200
UJ_EPS, UJ_BOUND = 0.25, 80
HEIGHT_EPS, HEIGHT_BOUND = 0.1, 1_000
PROP5_INSTANCES, PROP5_QBOUND = 150, 200


@dataclass(frozen=True)
class Command:
    name: str          # label, and the name of its --out directory
    argv: tuple        # CLI arguments after the global --out option


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int                          # used when no seed is given
    commands: Callable[[int], list[Command]]   # seed -> the round's commands


def _quadrature(seed: int) -> list[Command]:
    return [Command("density", ("density", "--f", SHEARED,
                                "--eps", repr(QUAD_EPS),
                                "--method", "quadrature"))]


def _montecarlo(seed: int) -> list[Command]:
    tail = ("tail", "--f", HEIGHT, "--N", str(TAIL_N),
            "--samples", str(TAIL_SAMPLES), "--seed", str(seed))
    return [
        Command("tail_conv", tail + ("--psi", f"pow:{TAIL_TAU_CONV}")),
        Command("tail_div", tail + ("--psi", f"pow:{TAIL_TAU_DIV}")),
        Command("density_mc", ("density", "--f", SHEARED,
                               "--eps", repr(MC_EPS), "--method", "montecarlo",
                               "--samples", str(MC_SAMPLES),
                               "--seed", str(seed))),
    ]


def _circle(seed: int) -> list[Command]:
    return [
        Command("coverage", ("coverage", "--f", CUSP, "--eps", repr(COV_EPS),
                             "--y0", repr(COV_Y0),
                             "--stages", ",".join(map(str, COV_STAGES)),
                             "--samples", str(COV_SAMPLES),
                             "--seed", str(seed),
                             "--intervals", str(COV_INTERVALS))),
        Command("ubiquity", ("ubiquity", "--alpha-inv", "sqrt2m1",
                             "--Nmax", str(UBIQ_NMAX))),
    ]


def _lattice(seed: int) -> list[Command]:
    x = ("--x", "sqrt2,sqrt3")
    return [
        Command("search", ("search", "--f", UNION_JACK) + x
                + ("--Qmax", str(SEARCH_QMAX))),
        Command("mult", ("transfer", "mult") + x
                + ("--eps", repr(MULT_EPS), "--bound", str(MULT_BOUND))),
        Command("unionjack", ("transfer", "unionjack") + x
                + ("--eps", repr(UJ_EPS), "--bound", str(UJ_BOUND))),
        Command("height", ("transfer", "height") + x
                + ("--eps", repr(HEIGHT_EPS), "--bound", str(HEIGHT_BOUND))),
        Command("prop5", ("prop5", "--instances", str(PROP5_INSTANCES),
                          "--Qbound", str(PROP5_QBOUND), "--seed", str(seed))),
    ]


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("quadrature", 0, _quadrature),
    Workload("montecarlo", 104, _montecarlo),
    Workload("circle", 107, _circle),
    Workload("lattice", 2, _lattice),
)}
