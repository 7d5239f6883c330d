"""Command-line front end.

Subcommands dispatch to the library modules and write CSV/JSON (and simple
SVG) artifacts.  Every stochastic command requires --seed, and identical
configurations produce byte-identical artifacts regardless of
STARKIT_THREADS.  Exit codes: 0 success, 2 validation error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction

import numpy as np

from . import circle, dsl, khintchine, measure, transference
from .errors import ArityError, ParseError, StarkitError
from .exact import GOLDEN, INV_SQRT2, SQRT2, SQRT3, Quad
from .starbody import classify_significance, extract_skeleton, fundamental_rectangle

_COORD_TOKENS = {
    "sqrt2": SQRT2,
    "sqrt3": SQRT3,
    "invsqrt2": INV_SQRT2,
    "golden": GOLDEN,
    "invgolden": Quad(Fraction(-1, 2), Fraction(1, 2), 5),
    "sqrt2m1": SQRT2 - 1,
}


class ValidationError(Exception):
    pass


def _parse_coord(tok: str):
    tok = tok.strip()
    neg = tok.startswith("-")
    body = tok[1:] if neg else tok
    if body in _COORD_TOKENS:
        v = _COORD_TOKENS[body]
        return -v if neg else v
    try:
        if "/" in body:
            v = Quad(Fraction(body))
            return -v if neg else v
        return -float(body) if neg else float(body)
    except ValueError as e:
        raise ValidationError(f"bad coordinate {tok!r}") from e


def _parse_coords(text: str):
    return [_parse_coord(t) for t in text.split(",") if t.strip()]


def _load_f(arg: str):
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = arg
    return dsl.load_distance_function(text)


# ---------------------------------------------------------------------------
# Artifact writers (atomic, deterministic formatting)
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, float):
        # float() first: numpy scalars are floats whose repr is np.float64(...)
        return str(int(v)) if v == int(v) and abs(v) < 1e15 else repr(float(v))
    return str(v)


def _atomic_write(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: list[str], rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_json(path: str, obj):
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _svg_polyline(path: str, xs, ys, title: str):
    w, h, pad = 640, 400, 40
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    sx = (w - 2 * pad) / (x1 - x0 if x1 > x0 else 1.0)
    sy = (h - 2 * pad) / (y1 - y0 if y1 > y0 else 1.0)
    pts = " ".join(f"{pad + (x - x0) * sx:.2f},{h - pad - (y - y0) * sy:.2f}"
                   for x, y in zip(xs, ys))
    svg = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">'
           f'<rect width="{w}" height="{h}" fill="white"/>'
           f'<text x="{pad}" y="20" font-size="14">{title}</text>'
           f'<polyline points="{pts}" fill="none" stroke="black" stroke-width="1"/>'
           "</svg>\n")
    _atomic_write(path, svg)


def _out(args, name: str) -> str:
    return os.path.join(args.out, name)


def _require_seed(args):
    if args.seed is None:
        raise ValidationError("--seed is mandatory for stochastic commands")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_skeleton(args):
    f = _load_f(args.f)
    rep = extract_skeleton(f)
    lines = []
    for hl in rep.lines:
        entry = {
            "direction": [float(hl.direction[0]), float(hl.direction[1])],
            "rational": hl.rational,
        }
        if hl.rational:
            entry["slope"] = f"{hl.slope_num}/{hl.slope_den}"
        else:
            entry["slope"] = hl.slope_value
        if args.classify:
            res = classify_significance(f, hl, Rmax=args.Rmax, epsilon=args.eps0)
            entry["significant"] = res.significant
            entry["width_exponent"] = res.width_exponent
            entry["width_monotone"] = res.monotone
        lines.append(entry)
    payload = {"expr": dsl.print_distance_function(f), "half_lines": lines}
    if rep.rational_only:
        rect = fundamental_rectangle(rep)
        payload["fundamental_rectangle"] = {"s_hat": rect.s_hat, "r_hat": rect.r_hat}
    _write_json(_out(args, "skeleton.json"), payload)
    print(f"skeleton: {len(lines)} half-lines -> {_out(args, 'skeleton.json')}")
    return 0


def cmd_density(args):
    f = _load_f(args.f)
    eps_list = [float(t) for t in args.eps.split(",")]
    if args.q is not None:
        # resonant-neighborhood measure records |B_q| (or |B*_q|)
        _require_seed(args)
        records = [measure.resonant_record(
            f, measure.ResonantSpec(q=args.q, epsilon=eps,
                                    restricted=args.restricted),
            samples=args.samples, seed=args.seed) for eps in eps_list]
        _write_json(_out(args, "resonant.json"), records)
        print(f"resonant: q={args.q}, {len(records)} records -> "
              f"{_out(args, 'resonant.json')}")
        return 0
    if args.method == "montecarlo":
        _require_seed(args)
    rows = []
    for eps in eps_list:
        res = measure.density(f, eps, method=args.method,
                              samples=args.samples, seed=args.seed or 0)
        rows.append((res.epsilon, res.value, res.stderr, res.method))
    _write_csv(_out(args, "density.csv"),
               ["epsilon", "value", "stderr", "method"], rows)
    if args.format == "svg" and len(rows) > 1:
        _svg_polyline(_out(args, "density.svg"),
                      [r[0] for r in rows], [r[1] for r in rows], "D_F(eps)")
    print(f"density: {len(rows)} rows -> {_out(args, 'density.csv')}")
    return 0


def _parse_monotone_psi(spec: str, q_max: int) -> khintchine.PsiFamily:
    """psi from its CLI spec, with q*psi(q) non-increasing up to q_max."""
    psi = khintchine.parse_psi(spec)
    if not psi.check_monotone(q_max):
        raise ValidationError(f"q*psi(q) is not non-increasing for {spec!r} "
                              f"over q in [{psi.q_start}, {q_max}]")
    return psi


def cmd_series(args):
    f = _load_f(args.f)
    psi = _parse_monotone_psi(args.psi, args.Qmax)
    sums, verdict = khintchine.series_partial_sums(f, psi, args.Qmax)
    _write_csv(_out(args, "series.csv"), ["Q", "partial_sum"], sums)
    _write_json(_out(args, "series.json"),
                {"psi": args.psi, "Qmax": args.Qmax, "verdict": verdict,
                 "final_partial_sum": sums[-1][1]})
    if args.format == "svg":
        _svg_polyline(_out(args, "series.svg"),
                      [q for q, _ in sums], [s for _, s in sums],
                      "partial sums of D_F(q psi(q))")
    print(f"series: verdict {verdict} -> {_out(args, 'series.csv')}")
    return 0


def cmd_tail(args):
    f = _load_f(args.f)
    _require_seed(args)
    blocks = [int(t) for t in args.N.split(",")]
    psi = _parse_monotone_psi(args.psi, 2 * max(blocks))
    rows = []
    for n in blocks:
        v, e = khintchine.tail_measure(f, psi, n, samples=args.samples,
                                       seed=args.seed)
        rows.append((n, v, e, args.samples, args.seed))
    _write_csv(_out(args, "tail.csv"),
               ["N", "tail_measure", "stderr", "samples", "seed"], rows)
    _write_json(_out(args, "tail.json"),
                {"psi": args.psi,
                 "blocks": [{"N": n, "value": v, "stderr": e}
                            for n, v, e, _, _ in rows],
                 "samples": args.samples, "seed": args.seed})
    print(f"tail: {len(rows)} blocks -> {_out(args, 'tail.json')}")
    return 0


def cmd_search(args):
    f = _load_f(args.f)
    coords = _parse_coords(args.x)
    if len(coords) != 2:
        raise ValidationError("--x must give two coordinates")
    x = (float(coords[0]) % 1.0, float(coords[1]) % 1.0)
    records = khintchine.best_approximations(f, x, args.Qmax)
    rows = [(r.q, r.p[0], r.p[1], r.value, int(r.record)) for r in records]
    _write_csv(_out(args, "search.csv"),
               ["q", "p1", "p2", "value", "record"], rows)
    print(f"search: {sum(r.record for r in records)} records -> "
          f"{_out(args, 'search.csv')}")
    return 0


def cmd_threedist(args):
    part = circle.three_distance_partition(_coord_float(args.alpha_inv),
                                           args.x0, args.N)
    _write_json(_out(args, "threedist.json"),
                {"N": part.n, "points": list(part.points),
                 "gaps": list(part.gaps),
                 "distinct_gaps": list(part.distinct_gaps)})
    print(f"threedist: {len(part.distinct_gaps)} distinct gaps -> "
          f"{_out(args, 'threedist.json')}")
    return 0


def cmd_ubiquity(args):
    ns = circle.ubiquity_sequence(_coord_float(args.alpha_inv), args.Nmax)
    _write_json(_out(args, "ubiquity.json"),
                {"Nmax": args.Nmax, "N_r": ns})
    print(f"ubiquity: {len(ns)} admissible N -> {_out(args, 'ubiquity.json')}")
    return 0


def _coord_float(text: str) -> float:
    return float(_parse_coord(text))


def cmd_coverage(args):
    f = _load_f(args.f)
    _require_seed(args)
    rep = extract_skeleton(f)
    irr = [h for h in rep.lines if not h.rational and h.slope_value > 1.0]
    if not irr:
        raise ValidationError("no irrational line with slope > 1 in the skeleton")
    line = irr[0]
    stages = [int(t) for t in args.stages.split(",")]
    out = circle.coverage_experiment(f, line, args.eps, args.y0, stages,
                                     samples=args.samples, seed=args.seed,
                                     k_hits=args.k)
    rows = [(s.n, s.fraction_hit_once, s.fraction_hit_k, s.stderr) for s in out]
    _write_csv(_out(args, "coverage.csv"),
               ["N", "fraction_hit_once", "fraction_hit_k", "stderr"], rows)
    if args.intervals:
        system = circle.interval_system(f, line, args.eps, args.y0,
                                        min(max(stages), args.intervals))
        irows = list(zip(system.n.tolist(), system.x_n.tolist(),
                         system.r_n.tolist(), system.sigma_n.tolist(),
                         system.len_In.tolist(), system.len_Itilde.tolist()))
        _write_csv(_out(args, "intervals.csv"),
                   ["n", "x_n", "r_n", "sigma_n", "len_In", "len_Itilde_n"],
                   irows)
    if args.format == "svg":
        _svg_polyline(_out(args, "coverage.svg"),
                      [r[0] for r in rows], [r[1] for r in rows],
                      "fraction hit at least once")
    print(f"coverage: final fraction {rows[-1][1]:.4f} -> "
          f"{_out(args, 'coverage.csv')}")
    return 0


def cmd_transfer(args):
    coords = _parse_coords(args.x)
    if args.flavor == "mult":
        rep = transference.verify_theorem_multitrans(coords, args.eps, args.bound)
    elif args.flavor == "unionjack":
        if len(coords) != 2:
            raise ValidationError("union jack needs two coordinates")
        rep = transference.verify_theorem_unionjack(coords[0], coords[1],
                                                    args.eps, args.bound)
    else:
        rep = transference.verify_khintchine_transfer(coords, args.eps,
                                                      int(args.bound))
    _write_json(_out(args, f"transfer_{args.flavor}.json"), rep.to_json())
    rows = [(("(" + " ".join(str(v) for v in s.q_vec) + ")"), s.mu, s.lam,
             s.p if s.p is not None else "",
             s.quality if s.quality is not None else "",
             s.admissible_eps if s.admissible_eps is not None else "",
             s.branch)
            for s in rep.steps]
    _write_csv(_out(args, f"transfer_{args.flavor}.csv"),
               ["q", "mu", "lambda", "p", "quality", "admissible_eps", "branch"],
               rows)
    print(f"transfer {args.flavor}: {len(rep.steps)} witnesses, "
          f"{rep.distinct_p} distinct p -> "
          f"{_out(args, 'transfer_' + args.flavor + '.json')}")
    return 0


def cmd_prop5(args):
    _require_seed(args)
    rng = np.random.Generator(np.random.Philox(key=np.array(
        [np.uint64(args.seed), np.uint64(0)], dtype=np.uint64)))
    results = []
    bad = 0
    for _ in range(args.instances):
        x = tuple(rng.random(2) * 0.98 + 0.01)
        lam = float(rng.uniform(0.3, 0.5))
        mu = float(rng.uniform(2.0, min(14.0, args.Qbound ** 0.5)))
        params = transference.TransferParams(lam=lam, mu=mu, n=2)
        rep = transference.verify_prop5(x, params, args.Qbound)
        bad += len(rep.counterexamples)
        results.append({"x": list(x), "lambda": lam, "mu": mu,
                        "forward": rep.forward, "reverse": rep.reverse,
                        "system_i_count": rep.system_i_count,
                        "p": rep.system_ii_p,
                        "counterexamples": rep.counterexamples})
    _write_json(_out(args, "prop5.json"),
                {"instances": args.instances, "Qbound": args.Qbound,
                 "seed": args.seed, "counterexamples": bad,
                 "results": results})
    print(f"prop5: {args.instances} instances, {bad} counterexamples -> "
          f"{_out(args, 'prop5.json')}")
    return 0


_OMEGAS = {
    "const": lambda q: 1.0,
    "one_over_q": lambda q: 1.0 / q,
    "one_over_qlog2": lambda q: 1.0 / (q * max(np.log(q), 1.0) ** 2),
}


def cmd_philemma(args):
    if args.omega not in _OMEGAS:
        raise ValidationError(f"unknown omega {args.omega!r}")
    lhs, rhs, ratio = khintchine.euler_phi_sum_check(_OMEGAS[args.omega], args.N)
    _write_json(_out(args, "philemma.json"),
                {"omega": args.omega, "N": args.N, "lhs": float(lhs),
                 "rhs": float(rhs), "ratio": float(ratio)})
    print(f"philemma: ratio {float(ratio):.4f} -> {_out(args, 'philemma.json')}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="starkit")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--format", default="csv", choices=["csv", "svg"])
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--f", required=True,
                       help="distance function: file path or inline DSL/JSON")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=100_000)

    p = sub.add_parser("skeleton")
    p.add_argument("--f", required=True)
    p.add_argument("--classify", action="store_true")
    p.add_argument("--Rmax", type=float, default=1e6)
    p.add_argument("--eps0", type=float, default=0.1)
    p.set_defaults(func=cmd_skeleton)

    p = sub.add_parser("density")
    common(p)
    p.add_argument("--eps", required=True, help="epsilon (comma list allowed)")
    p.add_argument("--method", default="auto",
                   choices=["auto", "analytic", "quadrature", "montecarlo"])
    p.add_argument("--q", type=int, default=None,
                   help="estimate the resonant measure |B_q| instead of D_F")
    p.add_argument("--restricted", action="store_true",
                   help="apply the B*_q coprimality restriction")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("series")
    p.add_argument("--f", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--Qmax", type=int, required=True)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("tail")
    common(p)
    p.add_argument("--psi", required=True)
    p.add_argument("--N", required=True, help="block start N (comma list)")
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser("search")
    p.add_argument("--f", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--Qmax", type=int, required=True)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("threedist")
    p.add_argument("--alpha-inv", dest="alpha_inv", required=True)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=cmd_threedist)

    p = sub.add_parser("ubiquity")
    p.add_argument("--alpha-inv", dest="alpha_inv", required=True)
    p.add_argument("--Nmax", type=int, required=True)
    p.set_defaults(func=cmd_ubiquity)

    p = sub.add_parser("coverage")
    common(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--y0", type=float, default=0.5)
    p.add_argument("--stages", required=True, help="comma list of N stages")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--intervals", type=int, default=0,
                   help="also dump intervals.csv up to this n")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("transfer")
    p.add_argument("flavor", choices=["mult", "unionjack", "height"])
    p.add_argument("--x", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--bound", type=float, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="ignored: transfer is deterministic")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("prop5")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--Qbound", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_prop5)

    p = sub.add_parser("philemma")
    p.add_argument("--omega", default="one_over_q")
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=cmd_philemma)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ValueError, ParseError, ArityError,
            FileNotFoundError) as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return 2
    except (StarkitError, ArithmeticError) as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
