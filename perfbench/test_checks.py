"""The benchmark's checks pass on real outputs and fail on perturbed ones.

Run from the repository root:  python3 -m pytest -q perfbench

The fixture runs every workload's commands once through the CLI (about
25 s on one core), then each test perturbs one output and feeds it to
its check.
"""

import copy
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import workloads as W

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Output directory per workload, one round each at the recorded seed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), STARKIT_THREADS="1")
    dirs = {}
    for name, w in W.WORKLOADS.items():
        base = tmp_path_factory.mktemp(name)
        for c in w.commands(w.default_seed):
            subprocess.run([sys.executable, "-m", "starkit.cli",
                            "--out", str(base / c.name), *c.argv],
                           env=env, check=True, capture_output=True)
        dirs[name] = base
    return dirs


def _only_malformed(fails):
    return all(m.startswith(checks.MALFORMED) for m in fails)


def test_real_outputs_pass(outputs):
    for name, base in outputs.items():
        seed = W.WORKLOADS[name].default_seed
        for cmd, fails in checks.check_round(name, seed, base).items():
            assert _only_malformed(fails), (name, cmd, fails)


def test_quadrature_density_off_by_1e5(outputs):
    rows = checks.read_csv(outputs["quadrature"] / "density" / "density.csv")
    fails = checks.check_density_quadrature(rows, W.QUAD_EPS)
    assert _only_malformed(fails)
    want = checks.multiplicative_density(W.QUAD_EPS)
    for raw in (repr(want), repr(want + 1e-5)):
        bad = [dict(rows[0], value=raw)]
        fails = checks.check_density_quadrature(bad, W.QUAD_EPS)
        assert (fails == []) == (raw == repr(want)), fails
    bad = [dict(rows[0], value=f"np.float64({want + 1e-5!r})")]
    fails = checks.check_density_quadrature(bad, W.QUAD_EPS)
    assert not _only_malformed(fails)


def test_tail_count_off_by_one(outputs):
    seed = W.WORKLOADS["montecarlo"].default_seed
    rows = checks.read_csv(outputs["montecarlo"] / "tail_conv" / "tail.csv")
    hits = checks.tail_hit_count(seed, W.TAIL_SAMPLES, W.TAIL_N, W.TAIL_TAU_CONV)
    args = (seed, W.TAIL_SAMPLES, W.TAIL_N, W.TAIL_TAU_CONV, hits)
    assert checks.check_tail_convergent(rows, *args) == []
    for delta in (1, -1):
        p = (hits + delta) / W.TAIL_SAMPLES
        bad = [dict(rows[0], tail_measure=repr(p),
                    stderr=repr(math.sqrt(p * (1 - p) / W.TAIL_SAMPLES)))]
        fails = checks.check_tail_convergent(bad, *args)
        assert any("brute-force recount" in m for m in fails), fails


def test_interval_widths_scaled(outputs):
    path = outputs["circle"] / "coverage" / "intervals.csv"
    rows = checks.read_csv(path)
    args = (W.COV_EPS, W.COV_Y0, W.COV_INTERVALS)
    assert checks.check_intervals(rows, *args) == []
    bad = copy.deepcopy(rows)
    for r in bad:
        for k in ("sigma_n", "len_Itilde_n"):
            r[k] = repr(float(r[k]) * 1.01)
    fails = checks.check_intervals(bad, *args)
    assert any(m.startswith("sigma_n") for m in fails), fails
    assert any(m.startswith("len_Itilde_n") for m in fails), fails


@pytest.mark.parametrize("kind", ["mult", "unionjack", "height"])
def test_witness_dropped(outputs, kind):
    obj = checks.read_json(outputs["lattice"] / kind / f"transfer_{kind}.json")
    check = {"mult": lambda o: checks.check_transfer_mult(
                 o, W.MULT_EPS, W.MULT_BOUND),
             "unionjack": lambda o: checks.check_transfer_unionjack(
                 o, W.UJ_EPS, W.UJ_BOUND),
             "height": lambda o: checks.check_transfer_height(
                 o, W.HEIGHT_EPS, W.HEIGHT_BOUND)}[kind]
    assert check(obj) == []
    bad = copy.deepcopy(obj)
    dropped = bad["witnesses"].pop(len(bad["witnesses"]) // 2)
    fails = check(bad)
    assert any("independent enumeration" in m for m in fails), fails
    assert any(str(tuple(dropped["q"])) in m for m in fails), fails


def test_transfer_p_not_least(outputs):
    obj = checks.read_json(outputs["lattice"] / "mult" / "transfer_mult.json")
    bad = copy.deepcopy(obj)
    w = next(w for w in bad["witnesses"] if w["p"] and w["p"] > 1)
    w["p"] += 1
    fails = checks.check_transfer_mult(bad, W.MULT_EPS, W.MULT_BOUND)
    assert any("least admissible p" in m for m in fails), fails


def test_search_value_raised(outputs):
    seed = W.WORKLOADS["lattice"].default_seed
    rows = checks.read_csv(outputs["lattice"] / "search" / "search.csv")
    assert checks.check_search(rows, W.SEARCH_QMAX, seed) == []
    for q in (10, 500):
        bad = copy.deepcopy(rows)
        bad[q - 1]["value"] = repr(float(bad[q - 1]["value"]) * (1 + 1e-6))
        fails = checks.check_search(bad, W.SEARCH_QMAX, seed)
        assert any(f"first q={q}" in m for m in fails), fails


def test_prop5_count_changed(outputs):
    seed = W.WORKLOADS["lattice"].default_seed
    obj = checks.read_json(outputs["lattice"] / "prop5" / "prop5.json")
    args = (seed, W.PROP5_INSTANCES, W.PROP5_QBOUND)
    assert checks.check_prop5(obj, *args) == []
    bad = copy.deepcopy(obj)
    bad["results"][3]["system_i_count"] += 1
    assert any("#3" in m for m in checks.check_prop5(bad, *args))


def test_ubiquity_entry_removed(outputs):
    seed = W.WORKLOADS["circle"].default_seed
    obj = checks.read_json(outputs["circle"] / "ubiquity" / "ubiquity.json")
    assert checks.check_ubiquity(obj, W.UBIQ_NMAX, seed) == []
    bad = copy.deepcopy(obj)
    gone = bad["N_r"].pop(len(bad["N_r"]) // 2)
    fails = checks.check_ubiquity(bad, W.UBIQ_NMAX, seed)
    assert any(m.startswith(f"N={gone}:") for m in fails), fails


def test_coverage_fraction_outside_bounds(outputs):
    rows = checks.read_csv(outputs["circle"] / "coverage" / "coverage.csv")
    args = (W.COV_EPS, W.COV_Y0, W.COV_STAGES, W.COV_SAMPLES)
    assert checks.check_coverage(rows, *args) == []
    bad = copy.deepcopy(rows)
    bad[-1]["fraction_hit_once"] = repr(float(bad[-1]["fraction_hit_once"]) + 0.2)
    assert any("outside" in m for m in checks.check_coverage(bad, *args))
