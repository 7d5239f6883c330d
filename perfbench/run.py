"""starkit benchmark: four CLI workloads, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py                          # every workload
    python3 perfbench/run.py --workload circle --seed 107 --seconds 20
    python3 perfbench/run.py --workload lattice --trace 1

A run repeats whole rounds of its workload's commands, each round in a
fresh interpreter (``perfbench/child.py``) with ``STARKIT_THREADS=1`` and
BLAS threads pinned to 1, until ``--seconds`` have passed (at least two
rounds).  It then checks the outputs against independent computations
(``perfbench/checks.py``) and prints, as its last line, one JSON object:
``correct``, ``attempted`` and ``failed`` operations (one operation is
one CLI command), and the metrics.  With ``--trace 0`` these are the
end-to-end metrics, medians over the rounds: set-up seconds, wall and CPU
time in probe units (see ``perfbench/cpu.py``) and peak memory; with
``--trace 1`` untraced and traced rounds alternate and the metrics are
the per-layer figures of the traced rounds plus the tracing overhead.

Outputs go to ``.perfbench/`` in the repository root; a record of each
run, with machine information and every round's figures, is written to
``.perfbench/results/``.  The program is run from ``src/``; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_ROUNDS = 2        # rounds per run, whatever --seconds says
SETUP_SAMPLES = 5     # fresh-interpreter imports behind each setup_s median
DEADLINE_S = 150.0    # no round starts after this; a run ends within 180 s
CHILD_TIMEOUT_S = 160.0

PINNED_ENV = {
    "STARKIT_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(PINNED_ENV)   # before numpy loads, for the checks here

import checks          # noqa: E402  (after the thread pins)
import layers          # noqa: E402
import workloads as W  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_norm": "probe", "cpu_norm": "probe",
              "peak_rss_mb": "MB"}


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_ENV)
    return env


def run_child(spec: dict, folder: Path, timeout: float):
    """One fresh interpreter; its result dict, or None when it died."""
    folder.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, src=str(SRC), out=str(folder),
                result=str(folder / "result.json"),
                cpus=sorted(os.sched_getaffinity(0)))
    spec_path = folder / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"),
                               str(spec_path)], cwd=ROOT, env=child_env(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"round in {folder} timed out after {timeout:.0f} s",
              file=sys.stderr)
        return None
    if proc.stderr:
        sys.stderr.write(proc.stderr[-4000:])
    if proc.returncode != 0 or not (folder / "result.json").exists():
        print(f"round in {folder} exited with code {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads((folder / "result.json").read_text(encoding="utf-8"))


def _tree(folder: Path) -> dict:
    return {str(p.relative_to(folder)): p.read_bytes()
            for p in sorted(folder.rglob("*")) if p.is_file()}


def failures_per_round(name: str, seed: int, rounds: list) -> list[dict]:
    """Check failures per command for every round.

    The first complete round is checked in full.  A later round whose
    output for a command is byte-identical shares that verdict; any other
    output is checked in full again.
    """
    verdicts, ref = [], None
    for r in rounds:
        if r["result"] is None:
            verdicts.append(None)
            continue
        trees = {c: _tree(r["dir"] / c) for c in r["commands"]}
        if ref is None:
            ref = (trees, checks.check_round(name, seed, r["dir"]))
            verdicts.append(ref[1])
            continue
        if all(trees[c] == ref[0][c] for c in trees):
            verdicts.append(ref[1])
        else:
            fresh = checks.check_round(name, seed, r["dir"])
            verdicts.append({c: ref[1][c] if trees[c] == ref[0][c] else fresh[c]
                             for c in trees})
    return verdicts


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = W.WORKLOADS[name]
    commands = [[c.name, list(c.argv)] for c in workload.commands(seed)]
    base = WORK / name
    shutil.rmtree(base, ignore_errors=True)

    t_start = time.perf_counter()
    rounds = []
    while True:
        traced = trace and len(rounds) % 2 == 1
        t0 = time.perf_counter()
        folder = base / f"round-{len(rounds)}"
        result = run_child({"commands": commands, "trace": traced}, folder,
                           min(CHILD_TIMEOUT_S, 170.0 - (t0 - t_start)))
        rounds.append({"dir": folder, "traced": traced, "result": result,
                       "commands": [c for c, _ in commands]})
        elapsed = time.perf_counter() - t_start
        if result is None:
            break
        if len(rounds) >= MIN_ROUNDS and elapsed >= seconds:
            break
        if elapsed + 1.5 * (time.perf_counter() - t0) > DEADLINE_S:
            break

    setups = [r["result"]["setup_s"] for r in rounds
              if r["result"] is not None and not r["traced"]]
    while (not trace and 0 < len(setups) < SETUP_SAMPLES
           and time.perf_counter() - t_start < DEADLINE_S):
        extra = run_child({"commands": [], "trace": False},
                          base / f"setup-{len(setups)}", 20.0)
        if extra is None:
            break
        setups.append(extra["setup_s"])

    # an operation fails on a non-zero exit or on any check failure; the
    # run is incorrect when an output that exited 0 holds a wrong value
    # (a MALFORMED message alone reports a format fault, values were right)
    verdicts = failures_per_round(name, seed, rounds)
    attempted = failed = 0
    flagged = []
    for r, v in zip(rounds, verdicts):
        attempted += len(commands)
        if r["result"] is None:
            failed += len(commands)
            continue
        for c in r["result"]["commands"]:
            if c["rc"] != 0:
                failed += 1
            elif v[c["name"]]:
                failed += 1
                flagged.append((r["dir"].name, c["name"], v[c["name"]]))

    correct = all(m.startswith(checks.MALFORMED) for _, _, f in flagged for m in f)
    done = [r for r in rounds if r["result"] is not None]
    plain = [r["result"] for r in done if not r["traced"]]
    traced = [r["result"] for r in done if r["traced"]]
    metrics = {}
    if not trace and plain:
        med = {k: statistics.median(x[k] for x in plain)
               for k in ("wall_norm", "cpu_norm", "peak_rss_mb")}
        med["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": med[k], "unit": u} for k, u in END_TO_END.items()}
    elif trace and plain and traced:
        for k, unit in layers.METRICS.items():
            vals = [t["layers"][k] for t in traced]
            if unit == "s":
                value = statistics.median(vals)
            else:                   # deterministic: every traced round agrees
                value = vals[0]
                if len(set(vals)) > 1:
                    print(f"{k}: counts differ between traced rounds: {vals}",
                          file=sys.stderr)
            metrics[k] = {"value": value, "unit": unit}
        # in probe units, so a slow spell of the machine does not read as cost
        overhead = (statistics.median(t["wall_norm"] for t in traced)
                    / statistics.median(p["wall_norm"] for p in plain) - 1.0)
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}

    per_command = {}
    for r in plain or traced:
        for c in r["commands"]:
            per_command.setdefault(c["name"], []).append(c["wall_s"])
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_info(), "env": PINNED_ENV,
        "commands": commands, "setup_samples": setups,
        "rounds": [{"dir": r["dir"].name, "traced": r["traced"],
                    "result": r["result"]} for r in rounds],
        "check_failures": [{"round": d, "command": c, "failures": f}
                           for d, c, f in flagged],
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"== {name}: seed {seed}, {len(rounds)} rounds "
          f"({sum(r['traced'] for r in rounds)} traced), {attempted} operations, "
          f"{failed} failed")
    for c, ts in per_command.items():
        print(f"   command {c:<11} median {statistics.median(ts):9.4f} s")
    for k in ("wall_s", "cpu_s"):      # in seconds, for reading; not gated
        if plain:
            print(f"   {k + ' (seconds, not gated)':<32} "
                  f"{statistics.median(x[k] for x in plain):>14.6g} s")
    for k, m in metrics.items():
        print(f"   {k:<32} {m['value']:>14.6g} {m['unit']}")
    for d, c, f in flagged[:3]:
        print(f"   CHECK FAILED {d}/{c}: " + "; ".join(f[:3]))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all"] + list(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: each workload's recorded seed)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measured time per workload run")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "starkit" / "__init__.py").is_file():
        print(f"no starkit sources under {SRC}", file=sys.stderr)
        return 2
    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
    print("machine: " + json.dumps(machine_info()))
    out = {}
    for name in names:
        seed = W.WORKLOADS[name].default_seed if args.seed is None else args.seed
        out[name] = run_workload(name, seed, args.seconds, bool(args.trace))
        if not out[name]["metrics"]:
            print(f"{name}: no round completed", file=sys.stderr)
            return 1
        if len(names) > 1:
            print(json.dumps(out[name]))
    if len(names) == 1:
        final = out[names[0]]
    else:
        final = {
            "correct": all(o["correct"] for o in out.values()),
            "attempted": sum(o["attempted"] for o in out.values()),
            "failed": sum(o["failed"] for o in out.values()),
            "metrics": {f"{n}.{k}": m for n, o in out.items()
                        for k, m in o["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
