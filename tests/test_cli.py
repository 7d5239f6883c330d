import json
import math
import subprocess
import sys

import pytest

from starkit.cli import main


def run_cli(args, tmp_path, cli_env, env_threads=None):
    env = dict(cli_env)
    if env_threads is not None:
        env["STARKIT_THREADS"] = str(env_threads)
    proc = subprocess.run([sys.executable, "-m", "starkit.cli"] + args,
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path)
    return proc


HEIGHT = "max(abs(1,0),abs(0,1))"


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
    row = (tmp_path / "density.csv").read_text().splitlines()[1].split(",")
    c = eps * eps
    assert float(row[1]) == pytest.approx(4 * c * (1 + math.log(1 / (4 * c))),
                                          abs=1e-7)
    assert row[3] == "quadrature"


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


def test_svg_emitted(tmp_path):
    rc = main(["--out", str(tmp_path), "--format", "svg", "series", "--f",
               HEIGHT, "--psi", "pow:2", "--Qmax", "20"])
    assert rc == 0
    svg = (tmp_path / "series.svg").read_text()
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
