import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from starkit import dsl, measure, starbody
from starkit.cli import _parse_float, main
from starkit.errors import StarkitError


def run_cli(args, tmp_path, cli_env, env_threads=None):
    env = dict(cli_env)
    if env_threads is not None:
        env["STARKIT_THREADS"] = str(env_threads)
    proc = subprocess.run([sys.executable, "-m", "starkit.cli"] + args,
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path)
    return proc


HEIGHT = "max(abs(1,0),abs(0,1))"
CUSP = "gm(abs(-sqrt2,1),abs(1,0))"
MULT = "gm(abs(1,0),abs(0,1))"
UNION_JACK = ("min(gm(abs(1,0),abs(0,1)),"
              "gm(abs(invsqrt2,invsqrt2),abs(invsqrt2,-invsqrt2)))")


def test_density_analytic_row(tmp_path):
    rc = main(["--out", str(tmp_path), "density", "--f", HEIGHT,
               "--eps", "0.25"])
    assert rc == 0
    lines = (tmp_path / "density.csv").read_text().splitlines()
    assert lines[0] == "epsilon,value,stderr,method"
    assert lines[1] == "0.25,0.25,0,analytic"


def test_density_quadrature_value_is_a_plain_number(tmp_path):
    # gm(|x1 - x2|, |x2|) is the multiplicative body under a unimodular
    # shear, so its periodized density is the hyperbola closed form
    eps = 0.375
    rc = main(["--out", str(tmp_path), "density", "--f",
               "gm(abs(1,-1),abs(0,1))", "--eps", repr(eps),
               "--method", "quadrature"])
    assert rc == 0
    line = (tmp_path / "density.csv").read_text().splitlines()[1]
    row = line.split(",")
    c = eps * eps
    assert float(row[1]) == pytest.approx(4 * c * (1 + math.log(1 / (4 * c))),
                                          abs=1e-7)
    assert row[3] == "quadrature"
    # the adaptive Simpson value of 65 sections, pinned to the last bit
    assert line == "0.375,0.8861423317263515,0,quadrature"


def test_density_file_input(tmp_path):
    df = tmp_path / "height.df"
    df.write_text(HEIGHT + "\n")
    rc = main(["--out", str(tmp_path), "density", "--f", str(df),
               "--eps", "0.1,0.2"])
    assert rc == 0
    lines = (tmp_path / "density.csv").read_text().splitlines()
    assert len(lines) == 3


def test_skeleton_json(tmp_path):
    rc = main(["--out", str(tmp_path), "skeleton", "--f",
               "gm(abs(1,0),abs(0,1))"])
    assert rc == 0
    payload = json.loads((tmp_path / "skeleton.json").read_text())
    assert len(payload["half_lines"]) == 4
    assert payload["fundamental_rectangle"] == {"s_hat": 1, "r_hat": 1}


def test_skeleton_classify_fits_each_line_once(tmp_path, monkeypatch):
    calls = []
    fit = starbody.classify_significance

    def counted(f, line, **kw):
        calls.append(line.direction)
        return fit(f, line, **kw)

    monkeypatch.setattr(starbody, "classify_significance", counted)
    rc = main(["--out", str(tmp_path), "skeleton", "--f", UNION_JACK,
               "--classify"])
    assert rc == 0
    halves = json.loads((tmp_path / "skeleton.json").read_text())["half_lines"]
    assert len(calls) == 4 and len(halves) == 8
    assert [h["slope"] for h in halves[::2]] == ["1/0", "-1/1", "0/1", "1/1"]
    keys = ("slope", "rational", "significant", "width_exponent",
            "width_monotone")
    for h, opposite in zip(halves[::2], halves[1::2]):
        assert [h[k] for k in keys] == [opposite[k] for k in keys]
        assert h["direction"] == [-c for c in opposite["direction"]]


def test_series_verdict(tmp_path):
    rc = main(["--out", str(tmp_path), "series", "--f", HEIGHT,
               "--psi", "pow:2", "--Qmax", "100"])
    assert rc == 0
    payload = json.loads((tmp_path / "series.json").read_text())
    assert payload["verdict"] == "convergent"
    rows = (tmp_path / "series.csv").read_text().splitlines()
    assert rows[0] == "Q,partial_sum"
    assert len(rows) == 101


def test_tail_requires_seed(tmp_path):
    rc = main(["--out", str(tmp_path), "tail", "--f", HEIGHT,
               "--psi", "pow:1.4", "--N", "16"])
    assert rc == 2


def test_tail_json(tmp_path):
    rc = main(["--out", str(tmp_path), "tail", "--f", HEIGHT,
               "--psi", "pow:1.4", "--N", "16", "--samples", "2000",
               "--seed", "7"])
    assert rc == 0
    payload = json.loads((tmp_path / "tail.json").read_text())
    assert payload["blocks"][0]["value"] >= 0.5


def test_search(tmp_path):
    rc = main(["--out", str(tmp_path), "search", "--f", HEIGHT,
               "--x", "1/3,2/3", "--Qmax", "5"])
    assert rc == 0
    rows = (tmp_path / "search.csv").read_text().splitlines()
    assert rows[0] == "q,p1,p2,value,record"
    assert rows[3].startswith("3,1,2,0,")


def test_threedist_and_ubiquity(tmp_path):
    assert main(["--out", str(tmp_path), "threedist", "--alpha-inv",
                 "invgolden", "--N", "3"]) == 0
    payload = json.loads((tmp_path / "threedist.json").read_text())
    assert len(payload["distinct_gaps"]) == 2
    assert main(["--out", str(tmp_path), "ubiquity", "--alpha-inv",
                 "sqrt2m1", "--Nmax", "100"]) == 0
    payload = json.loads((tmp_path / "ubiquity.json").read_text())
    assert payload["N_r"]


def test_coverage_and_intervals(tmp_path):
    rc = main(["--out", str(tmp_path), "coverage", "--f",
               "gm(abs(-sqrt2,1),abs(1,0))", "--eps", "0.2",
               "--stages", "10,100", "--samples", "500", "--seed", "3",
               "--intervals", "50"])
    assert rc == 0
    rows = (tmp_path / "coverage.csv").read_text().splitlines()
    assert rows[0] == "N,fraction_hit_once,fraction_hit_k,stderr"
    irows = (tmp_path / "intervals.csv").read_text().splitlines()
    assert irows[0] == "n,x_n,r_n,sigma_n,len_In,len_Itilde_n"
    assert len(irows) == 51


def test_coverage_intervals_are_the_rows_coverage_used(tmp_path, monkeypatch):
    from starkit import circle
    build, calls, built = circle.interval_system, [], []

    def recording(*args):
        calls.append(args)
        built.append(build(*args))
        return built[-1]
    monkeypatch.setattr(circle, "interval_system", recording)
    rc = main(["--out", str(tmp_path), "coverage", "--f",
               "gm(abs(-sqrt2,1),abs(1,0))", "--eps", "0.2",
               "--stages", "10,100", "--samples", "500", "--seed", "3",
               "--intervals", "50"])
    assert rc == 0
    assert len(built) == 1 and len(built[0].n) == 100

    def rows_of(system):
        return np.column_stack([system.n, system.x_n, system.r_n,
                                system.sigma_n, system.len_In,
                                system.len_Itilde]).tolist()
    rows = [[float(v) for v in line.split(",")] for line in
            (tmp_path / "intervals.csv").read_text().splitlines()[1:]]
    assert rows == rows_of(built[0])[:50]
    # a system built for the 50 dumped rows alone has the same K and rows
    prefix = build(*calls[0][:4], 50)
    assert prefix.K == built[0].K
    assert rows == rows_of(prefix)


def test_transfer_mult(tmp_path):
    rc = main(["--out", str(tmp_path), "transfer", "mult", "--x",
               "sqrt2,sqrt3", "--eps", "0.25", "--bound", "20", "--seed", "1"])
    assert rc == 0
    payload = json.loads((tmp_path / "transfer_mult.json").read_text())
    assert payload["witnesses"]
    assert payload["distinct_p"] >= 1


def test_prop5(tmp_path):
    rc = main(["--out", str(tmp_path), "prop5", "--instances", "5",
               "--Qbound", "50", "--seed", "2"])
    assert rc == 0
    payload = json.loads((tmp_path / "prop5.json").read_text())
    assert payload["counterexamples"] == 0


def test_prop5_accepts_a_negative_seed(tmp_path):
    from starkit.sampling import chunk_rng
    rc = main(["--out", str(tmp_path), "prop5", "--instances", "2",
               "--Qbound", "50", "--seed", "-1"])
    assert rc == 0
    payload = json.loads((tmp_path / "prop5.json").read_text())
    assert payload["seed"] == -1
    assert payload["results"][0]["x"] == (
        chunk_rng(-1, 0).random(2) * 0.98 + 0.01).tolist()


def test_philemma(tmp_path):
    rc = main(["--out", str(tmp_path), "philemma", "--omega", "one_over_q",
               "--N", "1000"])
    assert rc == 0
    payload = json.loads((tmp_path / "philemma.json").read_text())
    assert payload["ratio"] >= 0.3


def test_parse_error_exit_code(tmp_path):
    rc = main(["--out", str(tmp_path), "density", "--f", "gm(abs(1,0)",
               "--eps", "0.1"])
    assert rc == 2


def test_numeric_error_exit_code(tmp_path):
    rc = main(["--out", str(tmp_path), "transfer", "mult", "--x",
               "sqrt2,sqrt3", "--eps", "1.0", "--bound", "0.5", "--seed", "1"])
    assert rc == 3


@pytest.mark.parametrize("args,name", [
    (["series", "--f", HEIGHT, "--psi", "pow:2", "--Qmax", "20"],
     "series.svg"),
    (["density", "--f", HEIGHT, "--eps", "0.1,0.2"], "density.svg"),
    (["coverage", "--f", CUSP, "--eps", "0.2", "--stages", "10,100",
      "--samples", "500", "--seed", "3"], "coverage.svg")],
    ids=["series", "density", "coverage"])
def test_svg_emitted(tmp_path, args, name):
    rc = main(["--out", str(tmp_path), "--format", "svg"] + args)
    assert rc == 0
    svg = (tmp_path / name).read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_determinism_across_runs_and_threads(tmp_path, cli_env):
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    args = ["tail", "--f", HEIGHT, "--psi", "pow:1.5", "--N", "32",
            "--samples", "4000", "--seed", "11"]
    p1 = run_cli(["--out", str(out1)] + args, tmp_path, cli_env, env_threads=1)
    p2 = run_cli(["--out", str(out2)] + args, tmp_path, cli_env, env_threads=1)
    p3 = run_cli(["--out", str(out3)] + args, tmp_path, cli_env, env_threads=4)
    assert p1.returncode == p2.returncode == p3.returncode == 0, \
        "\n".join(f"run {i} (rc {p.returncode}): {p.stderr}"
                  for i, p in enumerate((p1, p2, p3), 1))
    b1 = (out1 / "tail.csv").read_bytes()
    assert b1 == (out2 / "tail.csv").read_bytes()
    assert b1 == (out3 / "tail.csv").read_bytes()
    j1 = (out1 / "tail.json").read_bytes()
    assert j1 == (out2 / "tail.json").read_bytes()
    assert j1 == (out3 / "tail.json").read_bytes()


@pytest.mark.parametrize("threads", ["abc", "0", "-2"])
def test_malformed_thread_count_is_a_validation_error(tmp_path, cli_env,
                                                      threads):
    p = run_cli(["--out", str(tmp_path), "tail", "--f", HEIGHT, "--psi",
                 "pow:1.5", "--N", "4", "--samples", "100", "--seed", "1"],
                tmp_path, cli_env, env_threads=threads)
    assert p.returncode == 2, p.stderr
    rec = json.loads(p.stderr.strip().splitlines()[-1])
    assert rec["error"] == "ValueError"
    assert "STARKIT_THREADS" in rec["message"]
    assert list(tmp_path.iterdir()) == []


def test_machine_readable_error_record(tmp_path, cli_env):
    p = run_cli(["--out", str(tmp_path), "density", "--f", "min()",
                 "--eps", "0.1"], tmp_path, cli_env)
    assert p.returncode == 2
    rec = json.loads(p.stderr.strip().splitlines()[-1])
    assert "error" in rec and "message" in rec


def test_format_json_is_not_a_choice(tmp_path, cli_env):
    # artifacts are CSV or SVG; JSON files are written whatever the format
    p = run_cli(["--out", str(tmp_path), "--format", "json", "density",
                 "--f", HEIGHT, "--eps", "0.25"], tmp_path, cli_env)
    assert p.returncode == 2
    assert "invalid choice: 'json'" in p.stderr
    assert not (tmp_path / "density.csv").exists()


def test_density_resonant_record(tmp_path):
    rc = main(["--out", str(tmp_path), "density", "--f", HEIGHT,
               "--eps", "0.02", "--q", "5", "--samples", "20000",
               "--seed", "3"])
    assert rc == 0
    records = json.loads((tmp_path / "resonant.json").read_text())
    rec = records[0]
    assert rec["spec"] == {"q": 5, "epsilon": 0.02, "restricted": False}
    assert abs(rec["value"] - 0.04) <= 3 * max(rec["stderr"], 1e-4)


def test_precision_is_not_an_option(tmp_path, cli_env):
    # the boundary rechecks always run at transference._MP_PREC bits
    p = run_cli(["--out", str(tmp_path), "--precision", "200", "density",
                 "--f", HEIGHT, "--eps", "0.25"], tmp_path, cli_env)
    assert p.returncode == 2
    assert not (tmp_path / "density.csv").exists()
    from starkit.cli import build_parser
    assert "--precision" not in build_parser().format_help()


@pytest.mark.parametrize("args", [
    ["series", "--f", HEIGHT, "--psi", "pow:0.5", "--Qmax", "100"],
    ["tail", "--f", HEIGHT, "--psi", "pow:0.5", "--N", "16",
     "--samples", "2000", "--seed", "7"],
])
def test_non_monotone_psi_is_rejected(tmp_path, cli_env, args):
    # q*psi(q) = q^0.5 increases
    p = run_cli(["--out", str(tmp_path)] + args, tmp_path, cli_env)
    assert p.returncode == 2
    rec = json.loads(p.stderr.strip().splitlines()[-1])
    assert rec["error"] == "ValidationError"
    assert "pow:0.5" in rec["message"]
    assert list(tmp_path.iterdir()) == []


def test_psi_checked_past_q_200000(tmp_path, cli_env):
    # q*psi(q) increases from q = 268,428 on
    p = run_cli(["--out", str(tmp_path), "series", "--f", HEIGHT, "--psi",
                 "powlog:0.99,0.125", "--Qmax", "300000"], tmp_path, cli_env)
    assert p.returncode == 2
    rec = json.loads(p.stderr.strip().splitlines()[-1])
    assert rec["error"] == "ValidationError"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_tail_rejects_a_sample_count_below_one(tmp_path, cli_env, samples):
    p = run_cli(["--out", str(tmp_path), "tail", "--f", HEIGHT, "--psi",
                 "pow:1.6", "--N", "4", "--samples", samples, "--seed", "1"],
                tmp_path, cli_env)
    assert p.returncode == 2
    rec = json.loads(p.stderr.strip().splitlines()[-1])
    assert rec["error"] == "ValueError"
    assert "samples" in rec["message"]
    assert list(tmp_path.iterdir()) == []


def test_transfer_ignores_seed(tmp_path):
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        rc = main(["--out", str(out), "transfer", "height", "--x",
                   "sqrt2,sqrt3", "--eps", "0.3", "--bound", "40",
                   "--seed", seed])
        assert rc == 0
        outs.append([(out / f).read_bytes()
                     for f in ("transfer_height.json", "transfer_height.csv")])
    assert outs[0] == outs[1]


@pytest.mark.parametrize("stages", ["-5,100", "0,-1"])
def test_coverage_rejects_a_negative_stage(tmp_path, cli_env, stages):
    p = run_cli(["--out", str(tmp_path), "coverage", "--f",
                 "gm(abs(-sqrt2,1),abs(1,0))", "--eps", "0.2",
                 "--stages=" + stages, "--samples", "500", "--seed", "3",
                 "--intervals", "50"], tmp_path, cli_env)
    assert p.returncode == 2
    rec = json.loads(p.stderr.strip().splitlines()[-1])
    assert rec["error"] == "ValueError"
    assert "stage" in rec["message"]
    assert list(tmp_path.iterdir()) == []


def test_coverage_stage_zero_covers_nothing(tmp_path):
    rc = main(["--out", str(tmp_path), "coverage", "--f",
               "gm(abs(-sqrt2,1),abs(1,0))", "--eps", "0.2",
               "--stages=0", "--samples", "500", "--seed", "3"])
    assert rc == 0
    assert (tmp_path / "coverage.csv").read_text().splitlines() == [
        "N,fraction_hit_once,fraction_hit_k,stderr", "0,0,0,0"]


@pytest.mark.parametrize("tok,value", [
    ("sqrt2", math.sqrt(2)), ("-1/3", -1 / 3), ("0.37", 0.37), ("3", 3.0),
    ("invgolden", -0.5 + 0.5 * math.sqrt(5)),
    ("-golden", -(0.5 + 0.5 * math.sqrt(5))),
    ("sqrt2m1", math.sqrt(2) - 1)])
def test_coordinates_parse_to_their_floats(tok, value):
    assert float(dsl.parse_number(tok)) == value


@pytest.mark.parametrize("args", [
    ["search", "--f", HEIGHT, "--x", "nan,0.5", "--Qmax", "5"],
    ["transfer", "mult", "--x", "inf,0.5", "--eps", "0.3", "--bound", "20"],
    ["threedist", "--alpha-inv", "1e400", "--N", "5"],
    ["ubiquity", "--alpha-inv=-inf", "--Nmax", "50"],
    ["search", "--f", HEIGHT, "--x", "1" + "0" * 400 + ",0.5", "--Qmax", "5"],
    ["density", "--f", "max(abs(1" + "0" * 400 + ",1),abs(0,1))", "--eps",
     "0.1"]])
def test_non_finite_coordinates_are_parse_errors(tmp_path, cli_env, args):
    p = run_cli(["--out", str(tmp_path)] + args, tmp_path, cli_env)
    assert p.returncode == 2
    rec = json.loads(p.stderr.strip().splitlines()[-1])
    assert rec["error"] == "ParseError"
    assert "Warning" not in p.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("extra,word", [(["--samples", "0"], "samples"),
                                        (["--samples", "-5"], "samples"),
                                        (["--k", "0"], "k_hits")])
def test_coverage_rejects_a_count_below_one(tmp_path, cli_env, extra, word):
    p = run_cli(["--out", str(tmp_path), "coverage", "--f",
                 "gm(abs(-sqrt2,1),abs(1,0))", "--eps", "0.2", "--stages",
                 "10", "--seed", "1", "--intervals", "5"] + extra,
                tmp_path, cli_env)
    assert p.returncode == 2
    rec = json.loads(p.stderr.strip().splitlines()[-1])
    assert rec["error"] == "ValueError"
    assert word in rec["message"]
    assert list(tmp_path.iterdir()) == []


def test_perfbench_layer_hooks_install(tmp_path, cli_env):
    # the benchmark's tracer wraps starkit names; a refactor that drops one
    # it reads fails the call, and one it assigns shows up as a module or
    # class attribute that did not exist before install()
    layers = Path(__file__).resolve().parent.parent / "perfbench"
    script = f"""
import sys, inspect
sys.path.insert(0, {str(layers)!r})
import layers, starkit
from starkit import (circle, cli, dsl, khintchine, measure, sampling,
                     starbody, transference)
mods = [circle, cli, dsl, khintchine, measure, sampling, starbody,
        transference]
owners = {{m.__name__: m for m in mods}}
owners.update({{f"{{m.__name__}}.{{n}}": c for m in mods
               for n, c in vars(m).items()
               if inspect.isclass(c) and c.__module__ == m.__name__}})
before = {{k: set(vars(o)) for k, o in owners.items()}}
layers.install()
for k, o in owners.items():
    for name in sorted(set(vars(o)) - before[k]):
        print(f"{{k}}.{{name}}")
"""
    p = subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True, env=cli_env, cwd=tmp_path)
    assert p.returncode == 0, p.stderr
    # two stale hooks, both harmless: coverage and the tail measure draw
    # through sampling, whose uniform_chunk the tracer also counts
    assert p.stdout.split() == ["starkit.circle.uniform_chunk",
                                "starkit.khintchine.uniform_chunk"]


def _error_record(err):
    return json.loads(err.strip().splitlines()[-1])


DECIMAL_SLOPE = "gm(abs(0.1,-1),abs(0,1))"


def test_a_tube_past_one_block_is_a_numeric_error(tmp_path, cli_env):
    # the decimal 0.1 is the double 3602879701896397/2^55, so the integer
    # direction of the line is about 3.6e16 long
    p = run_cli(["--out", str(tmp_path), "density", "--f", DECIMAL_SLOPE,
                 "--eps", "0.01", "--q", "7", "--samples", "100", "--seed",
                 "1"], tmp_path, cli_env)
    assert p.returncode == 3, p.stderr
    rec = _error_record(p.stderr)
    assert rec["error"] == "StarkitError"
    assert "slope 3602879701896397/36028797018963968" in rec["message"]
    assert "Traceback" not in p.stderr
    assert list(tmp_path.iterdir()) == []


def test_search_stops_at_a_tube_past_one_block(tmp_path, capsys,
                                               monkeypatch):
    # --Qmax 70 reaches the tube at q = 65 after 64 full-window minima of
    # about 0.6 s each; with the window off, q = 1 reaches it at once
    monkeypatch.setattr(measure, "_EXHAUSTIVE_Q", 0)
    assert main(["--out", str(tmp_path), "search", "--f", DECIMAL_SLOPE,
                 "--x", "0.3,0.7", "--Qmax", "70"]) == 3
    rec = _error_record(capsys.readouterr().err)
    assert rec["error"] == "StarkitError"
    assert "slope 3602879701896397/36028797018963968" in rec["message"]
    assert list(tmp_path.iterdir()) == []


def test_a_batched_search_names_the_first_q_past_one_block(tmp_path, capsys,
                                                          monkeypatch):
    # the tube of slope 1/40000 meets 80,002 lattice lines at q = 1 already.
    # Each q of a batch takes its own range of lines, so the batch raises
    # as the loop over q does, with that count, not with the count of the
    # union of the ranges of q = 1..128
    monkeypatch.setattr(measure, "_EXHAUSTIVE_Q", 0)
    body = "gm(abs(1,-40000),abs(0,1))"
    assert main(["--out", str(tmp_path), "search", "--f", body, "--x",
                 "0.3,0.7", "--Qmax", "200"]) == 3
    rec = _error_record(capsys.readouterr().err)
    assert rec["error"] == "StarkitError"
    assert "slope 1/40000 meets 80002 lattice lines" in rec["message"]
    kern = measure._Kernel(dsl.parse_distance_function(body))
    with pytest.raises(StarkitError) as loop:
        for q in range(1, 201):
            kern.minimum((0.3, 0.7), q, 1.0)
    assert rec["message"] == str(loop.value)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args,word", [
    (["series", "--f", HEIGHT, "--psi", "pow:2", "--Qmax", "0"], "q_max"),
    (["series", "--f", HEIGHT, "--psi", "powlog:1.5,1.2", "--Qmax", "1"],
     "q_max"),
    (["transfer", "mult", "--x", "sqrt2,sqrt3", "--eps", "-0.5", "--bound",
      "50"], "epsilon"),
    (["transfer", "unionjack", "--x", "sqrt2,sqrt3", "--eps", "0", "--bound",
      "20"], "epsilon"),
    (["transfer", "height", "--x", "sqrt2,sqrt3", "--eps", "-1", "--bound",
      "10"], "epsilon"),
    (["prop5", "--instances", "0", "--seed", "2"], "--instances"),
    (["prop5", "--instances", "-2", "--seed", "2"], "--instances"),
    (["prop5", "--instances", "3", "--Qbound", "3", "--seed", "2"],
     "--Qbound"),
    (["coverage", "--f", CUSP, "--eps", "0.2", "--stages", "10", "--seed",
      "1", "--intervals", "-1"], "--intervals"),
    (["transfer", "mult", "--x", "", "--eps", "0.25", "--bound", "20"],
     "at least one coordinate"),
    (["transfer", "height", "--x", "", "--eps", "0.1", "--bound", "20"],
     "at least one coordinate"),
    (["transfer", "mult", "--x", "sqrt2,sqrt3", "--eps", "0.25",
      "--bound=-200"], "bound"),
    (["transfer", "unionjack", "--x", "sqrt2,sqrt3", "--eps", "0.25",
      "--bound=-40"], "bound"),
    (["transfer", "height", "--x", "sqrt2,sqrt3", "--eps", "0.1",
      "--bound=-40"], "bound"),
    (["skeleton", "--f", MULT, "--classify", "--Rmax", "1"], "Rmax"),
    (["skeleton", "--f", MULT, "--classify", "--Rmax", "0.5"], "Rmax"),
    (["skeleton", "--f", MULT, "--classify", "--Rmax=-5"], "Rmax"),
    (["skeleton", "--f", MULT, "--classify", "--eps0=-1"], "epsilon"),
    (["coverage", "--f", CUSP, "--eps=-0.2", "--stages", "10", "--seed",
      "1"], "epsilon"),
    (["transfer", "height", "--x", "sqrt2,sqrt3", "--eps", "0.1",
      "--bound=-0.5"], "bound must not be negative"),
    (["density", "--f", HEIGHT, "--eps", "0.1", "--restricted"], "--q"),
    (["density", "--f", HEIGHT, "--eps", "0.1", "--q", "3", "--method",
      "analytic", "--samples", "1000", "--seed", "1"], "--method analytic"),
    (["density", "--f", HEIGHT, "--eps", "0.1", "--q", "3", "--method",
      "quadrature", "--samples", "1000", "--seed", "1"],
     "--method quadrature")],
    ids=["series_qmax0", "series_below_q_start", "mult_eps", "unionjack_eps",
         "height_eps", "prop5_instances0", "prop5_instances_negative",
         "prop5_qbound3", "coverage_intervals_negative", "mult_no_x",
         "height_no_x", "mult_bound", "unionjack_bound", "height_bound",
         "skeleton_Rmax1", "skeleton_Rmax_below_one",
         "skeleton_Rmax_negative", "skeleton_eps0_negative",
         "coverage_eps_negative", "height_bound_fraction",
         "density_restricted_without_q", "density_q_analytic",
         "density_q_quadrature"])
def test_inputs_without_a_result_are_rejected(tmp_path, capsys, args, word):
    assert main(["--out", str(tmp_path)] + args) == 2
    rec = _error_record(capsys.readouterr().err)
    assert rec["error"] == "ValueError"
    assert word in rec["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args,word", [
    (["search", "--f", HEIGHT, "--x", "sqrt2", "--Qmax", "5"],
     "two coordinates"),
    (["transfer", "unionjack", "--x", "sqrt2,sqrt3,golden", "--eps", "0.25",
      "--bound", "20"], "two coordinates"),
    (["philemma", "--omega", "nope", "--N", "10"], "unknown omega"),
    # its one irrational line has slope 1/sqrt2
    (["coverage", "--f", "gm(abs(-invsqrt2,1),abs(1,0))", "--eps", "0.2",
      "--stages", "10", "--seed", "1"], "slope > 1")],
    ids=["search_one_coordinate", "unionjack_three_coordinates",
         "philemma_omega", "coverage_no_steep_irrational_line"])
def test_inputs_a_command_cannot_use_are_validation_errors(tmp_path, capsys,
                                                           args, word):
    assert main(["--out", str(tmp_path)] + args) == 2
    rec = _error_record(capsys.readouterr().err)
    assert rec["error"] == "ValidationError"
    assert word in rec["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["density", "--f", HEIGHT, "--eps={}"],
    ["density", "--f", HEIGHT, "--eps=0.1,{}", "--method", "quadrature"],
    ["coverage", "--f", CUSP, "--eps={}", "--stages", "10", "--seed", "1"],
    ["coverage", "--f", CUSP, "--eps", "0.2", "--y0={}", "--stages", "10",
     "--seed", "1"],
    ["transfer", "mult", "--x", "sqrt2,sqrt3", "--eps={}", "--bound", "20"],
    ["transfer", "height", "--x", "sqrt2,sqrt3", "--eps", "0.3",
     "--bound={}"],
    ["threedist", "--alpha-inv", "invgolden", "--x0={}", "--N", "5"],
    ["skeleton", "--f", CUSP, "--classify", "--Rmax={}"],
    ["skeleton", "--f", CUSP, "--classify", "--eps0={}"],
    ["tail", "--f", HEIGHT, "--psi", "pow:{}", "--N", "4", "--samples",
     "100", "--seed", "1"],
    ["series", "--f", HEIGHT, "--psi", "powlog:1.5,{}", "--Qmax", "5"]],
    ids=["density_eps", "density_eps_list", "coverage_eps", "coverage_y0",
         "transfer_eps", "transfer_bound", "threedist_x0", "skeleton_Rmax",
         "skeleton_eps0", "tail_psi", "series_psi"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_numeric_options_are_parse_errors(tmp_path, capsys, args,
                                                     value):
    argv = [a.format(value) for a in args]
    assert main(["--out", str(tmp_path)] + argv) == 2
    assert _error_record(capsys.readouterr().err)["error"] == "ParseError"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["density", "--f", "abs(1_0,--1)", "--eps", "0.1"],
    ["threedist", "--alpha-inv", "+1", "--N", "5"],
    ["threedist", "--alpha-inv", "\u0661\u0662", "--N", "5"],
    ["series", "--f", MULT, "--psi", "pow:inf", "--Qmax", "5"],
    ["series", "--f", MULT, "--psi", "pow:nan", "--Qmax", "5"]],
    ids=["underscore_and_double_minus", "plus", "non_ascii_digits",
         "psi_inf", "psi_nan"])
def test_numbers_outside_the_grammar_are_parse_errors(tmp_path, capsys, args):
    assert main(["--out", str(tmp_path)] + args) == 2
    assert _error_record(capsys.readouterr().err)["error"] == "ParseError"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tok", ["0.1", "0.375", "1e6", "1E-3", "-0.5", "3",
                                 "0", "2.5e-300", "12345678901234567890"])
def test_numeric_options_keep_their_doubles(tok):
    assert _parse_float(tok) == float(tok)
