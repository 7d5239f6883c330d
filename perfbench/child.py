"""One benchmark round, run in a fresh interpreter.

Usage: python3 child.py SPEC.json

SPEC names the package source directory, the commands, the output
directory, the result file, whether to trace, and the CPUs it may use.
Before the import and before each command the round pins itself to the
fastest of those CPUs (``cpu.py``).  The round imports
``starkit`` (timed as set-up), optionally installs the layer tracer, runs
every command through ``starkit.cli.main`` in order, and writes one JSON
result: set-up time; wall and CPU time of the commands, in seconds and
in probe units (``cpu.timed``), summed over commands so the CPU choice
between them is not counted; peak resident memory; per-command exit
codes, figures and CPU choices; and the layer figures when traced.  With ``"commands": []`` it only measures set-up.

Only the standard library is imported before the timed import.
"""

import json
import os
import resource
import sys
import time
import traceback

import cpu


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    setup_pin = cpu.pin_fastest(spec["cpus"])
    src = os.path.realpath(spec["src"])
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import starkit  # noqa: F401  (the timed set-up)
    import starkit.cli as cli
    setup_s = time.perf_counter() - t0
    if not os.path.realpath(starkit.__file__).startswith(src + os.sep):
        print(f"starkit imported from {starkit.__file__}, not {src}",
              file=sys.stderr)
        return 1

    tracer = None
    if spec.get("trace"):
        import layers  # found beside this script
        tracer = layers.install()

    def run(argv):
        try:
            return cli.main(argv)
        except SystemExit as e:        # argparse rejected the arguments
            return e.code if isinstance(e.code, int) else 1
        except Exception:              # an uncaught fault counts as a failure
            traceback.print_exc()
            return 1

    commands = []
    for name, argv in spec["commands"]:
        out = os.path.join(spec["out"], name)
        pin, probe_s = cpu.pin_fastest(spec["cpus"])
        rc, fig = cpu.timed(lambda: run(["--out", out] + list(argv)))
        commands.append({"name": name, "rc": rc, **fig,
                         "cpu": pin, "probe_s": probe_s})

    result = {
        "setup_s": setup_s,
        **{k: sum(c[k] for c in commands)
           for k in ("wall_s", "cpu_s", "wall_norm", "cpu_norm")},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": commands,
        "setup_cpu": setup_pin[0], "setup_probe_s": setup_pin[1],
    }
    if tracer is not None:
        result["layers"] = tracer.figures()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
