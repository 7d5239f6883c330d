import os
from pathlib import Path

import numpy as np
import pytest

import starkit as sk
from starkit.dsl import parse_number


@pytest.fixture
def cli_env():
    """Environment for a `python -m starkit.cli` child process.

    The child may run in another working directory, where a relative
    PYTHONPATH entry such as `src` no longer resolves.  Put the package
    root this process imported first, so the child runs the same source
    tree as the in-process tests; keep the existing entries after it,
    resolved against this process's working directory.
    """
    root = str(Path(sk.__file__).resolve().parent.parent)
    inherited = [os.path.abspath(p)
                 for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [root] + [p for p in inherited if p != root])
    return env


@pytest.fixture(scope="session")
def height():
    return sk.height()


@pytest.fixture(scope="session")
def multiplicative():
    return sk.multiplicative()


@pytest.fixture(scope="session")
def union_jack():
    return sk.union_jack()


@pytest.fixture(scope="session")
def irrational_cusp():
    return sk.irrational_cusp()


@pytest.fixture(scope="session")
def registered_bodies(height, multiplicative, union_jack, irrational_cusp):
    return {
        "height": height,
        "multiplicative": multiplicative,
        "union_jack": union_jack,
        "irrational_cusp": irrational_cusp,
    }


def brute_membership(f, x, q, eps, window=None, extra_reach=8):
    """Dumb reference oracle: enumerate every p in a wide window around
    round(q*x) and minimize F(qx - p) directly."""
    y = q * np.asarray(x, dtype=float)
    if window is None:
        window = int(np.ceil(q / 2)) + extra_reach
    p0 = np.round(y)
    span = np.arange(-window, window + 1)
    gx, gy = np.meshgrid(p0[0] + span, p0[1] + span, indexing="ij")
    ps = np.column_stack([gx.ravel(), gy.ravel()])
    z1, z2 = y[0] - ps[:, 0], y[1] - ps[:, 1]
    vals = f.eval_xy(z1, z2)
    # tie-break: nearest z, then lexicographic p (the documented rule)
    zinf = np.maximum(np.abs(z1), np.abs(z2))
    i = int(np.lexsort((ps[:, 1], ps[:, 0], zinf, vals))[0])
    best_val, best_p = float(vals[i]), (int(ps[i, 0]), int(ps[i, 1]))
    hit = best_val < q * eps
    return hit, best_val, best_p


def _random_number(rng, rational=False):
    # rational: integers and small fractions only, whose skeleton lines keep
    # small integer directions
    kind = rng.randrange(2 if rational else 4)
    if kind == 0:
        return str(rng.randrange(-20, 21)) or "1"
    if kind == 1:
        return f"{rng.randrange(-30, 30)}/{rng.randrange(1, 12)}"
    if kind == 2:
        token = rng.choice(["sqrt2", "sqrt3", "invsqrt2", "golden",
                            "invgolden", "sqrt2m1"])
        return rng.choice(["", "-"]) + token
    return repr(round(rng.uniform(-3, 3), 4))


def random_dsl(rng, depth=0, rational=False):
    """A random DSL body of depth at most 3 from the stream rng."""
    kind = rng.randrange(5) if depth < 3 else 0
    if kind == 0:
        a, b = _random_number(rng, rational), _random_number(rng, rational)
        if parse_number(a) == parse_number(b) == 0:
            a = "1"
        return f"abs({a},{b})"
    if kind == 4:
        c = rng.choice(["2", "1/3", "0.5", "7/2"])
        return f"scale({c},{random_dsl(rng, depth + 1, rational)})"
    head = ["min", "max", "gm"][kind - 1]
    children = ",".join(random_dsl(rng, depth + 1, rational)
                        for _ in range(rng.randrange(1, 4)))
    return f"{head}({children})"
