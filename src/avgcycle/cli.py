"""Batch front end: problem files in, reports and CSV/SVG artefacts out.

Subcommands mirror the pipeline stages::

    avgcycle avg      --problem sys.prob [--out dir] [--format csv]
    avgcycle reduce   ...
    avgcycle solve    ...
    avgcycle verify   ...
    avgcycle degree   ...
    avgcycle pipeline ...        # every stage the problem file requests

Stages close over their dependencies (solve implies avg + reduce).  Exit
codes: 0 all stages passed, 2 problem-file validation error, 3 a stage
failed (the report still carries the partial results and the error text).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .flow import IntegrationError, IntegratorConfig
from .lyapschmidt import (AveragedGSeries, bifurcation_functions, delta_alpha,
                          gamma_functions, reduce_chart)
from .problems import STAGES, Problem, ProblemError, load_problem, _eps_grid
from .solver import (BranchError, _surrogate, check_hypotheses, expand_branch,
                     find_branch, nested_reduction)
from .verify import RefinementError, eig_coefficient_fit, jacobian_series, refine_periodic

_STAGE_DEPS = {
    "avg": (),
    "reduce": ("avg",),
    "solve": ("avg", "reduce"),
    "verify": ("avg", "reduce", "solve"),
    "degree": ("avg", "reduce", "solve"),
}


def _close_stages(requested):
    wanted = set()
    for s in requested:
        wanted.add(s)
        wanted.update(_STAGE_DEPS[s])
    return tuple(s for s in STAGES if s in wanted)


# ---------------------------------------------------------------------------
# report

class RunReport:
    """Nested plain-data results document with JSON round-trip."""

    def __init__(self, data=None):
        self.data = data or {}

    def to_json(self, indent=2):
        return json.dumps(self.data, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls(json.loads(text))

    def __eq__(self, other):
        return isinstance(other, RunReport) and self.data == other.data

    def get(self, *keys, default=None):
        node = self.data
        for k in keys:
            if not isinstance(node, dict) or k not in node:
                return default
            node = node[k]
        return node


def _listify(arr):
    return [float(v) for v in np.atleast_1d(np.asarray(arr, dtype=float)).ravel()]


# ---------------------------------------------------------------------------
# pipeline

def run_pipeline(problem, stages=None, report_wall_time=True):
    """Execute the requested stages in dependency order.

    Returns (RunReport, exit_code).  A stage failure embeds the error in the
    report, keeps earlier results, and yields exit code 3.
    """
    t_start = time.perf_counter()
    run = problem.run
    stages = _close_stages(stages or run.stages)
    report = RunReport({
        "meta": {
            "tool": "avgcycle",
            "version": __version__,
            "problem": problem.name,
            "order": run.order,
            "tol": run.tol,
            "seed": run.seed,
            "stages": list(stages),
            "eps_grid": _listify(run.eps),
        },
        "errors": {},
    })
    state = {}
    code = 0
    for stage in stages:
        try:
            _STAGE_FNS[stage](problem, state, report)
        except Exception as exc:   # report and stop downstream stages
            report.data["errors"][stage] = f"{type(exc).__name__}: {exc}"
            code = 3
            break
    if report_wall_time:
        report.data["meta"]["wall_time_s"] = round(time.perf_counter() - t_start, 3)
    return report, code


def _sample_alphas(run, chart):
    """The run's ``alpha_samples``, or every (N // 5)-th of the reduction's N grid nodes."""
    if run.alpha_samples.size:
        return run.alpha_samples.reshape(-1, chart.m)
    grid = chart.chebyshev_grid(run.r_grid)
    return grid[::max(1, len(grid) // 5)]


def _stage_avg(problem, state, report):
    run = problem.run
    series = problem.series()
    config = IntegratorConfig(rtol=run.tol, atol=run.tol)
    avg_config = IntegratorConfig(rtol=min(run.tol, 1e-12), atol=min(run.tol, 1e-12))
    chart = problem.chart() if problem.manifold else None
    # the run's one averaged series: each row is the cut the reduction reads
    # at its point, so an avg-only run integrates a jet where a plain cut
    # would do, and a run that reduces integrates the point once
    base = AveragedGSeries(series, run.order, avg_config)
    state.update(series=series, chart=chart, avg_config=avg_config, base_gs=base)
    nb = 0
    rows = []
    if chart is not None:
        nb = series.dim - chart.m
        if problem.nested_order is None:
            chart.validate_periodicity(series, config)
        alphas = _sample_alphas(run, chart)
        points = [chart.embed(a) for a in alphas]
        labels = [_listify(a) for a in alphas]
    else:
        points = [np.zeros(series.dim)]
        labels = [[]]
    base.prefetch(points, nb=nb, order=0)
    for label, z in zip(labels, points):
        avg = base.series_at(z, nb)
        rows.append({
            "alpha": label,
            "z": _listify(z),
            "g": [_listify(avg.g[i]) for i in range(run.order + 1)],
            "tolerance_bound": avg.tolerance_bound,
        })
    report.data["averaged"] = {"points": rows, "order": run.order}


def _stage_reduce(problem, state, report):
    run = problem.run
    chart = state["chart"]
    if chart is None:
        raise ProblemError("manifold", "-", "reduce stage needs a manifold section")
    base = state["base_gs"]
    r_shift = problem.nested_order
    if r_shift:
        k_red = run.order - r_shift
        if k_red < 1:
            raise ProblemError("manifold", "nested_order",
                               "nested order leaves no series terms")
        gs = nested_reduction(base, r_shift, chart)
    else:
        gs = base
        k_red = run.order
    reduction = reduce_chart(gs, chart, k_red, grid=run.r_grid,
                             validate=r_shift is None)
    state.update(gs=gs, reduction=reduction, k_red=k_red)
    samples = []
    for alpha in _sample_alphas(run, chart):
        fs, gam = bifurcation_functions(reduction.gs, chart, np.atleast_1d(alpha),
                                        reduction.k)
        samples.append({
            "alpha": _listify(alpha),
            "f": [_listify(f) for f in fs],
            "gamma": [_listify(g) for g in gam],
        })
    report.data["reduction"] = {
        "nested_order": r_shift or 0,
        "order": k_red,
        "first_nonzero_order": reduction.r,
        "min_abs_det_delta": reduction.min_abs_det(),
        "f_scales": _listify(reduction.f_scales),
        "samples": samples,
        "grid_size": len(reduction.alphas),
    }


def _stage_solve(problem, state, report):
    run = problem.run
    reduction = state["reduction"]
    branch = find_branch(reduction, run.eps, seed=run.seed)
    state.update(branch=branch)
    table = []
    for eps, alpha, res in zip(branch.eps, branch.a_eps, branch.residual):
        _, det = delta_alpha(reduction.gs, reduction.chart, alpha)
        table.append({"eps": float(eps), "a_eps": _listify(alpha),
                      "residual": float(res), "det_delta": float(det)})
    report.data["branch"] = {
        "table": table,
        "failed": [{"eps": e, "reason": r} for e, r in branch.failed],
    }
    try:
        z0, z1, alpha0, alpha1 = expand_branch(reduction, branch)
        state.update(z0=z0, z1=z1)
        report.data["expansion"] = {
            "z0": _listify(z0), "z1": _listify(z1),
            "alpha0": _listify(alpha0), "alpha1": _listify(alpha1),
        }
    except BranchError as exc:
        report.data["expansion"] = {"unavailable": str(exc)}
    # the table and the expansion, which does not use l, are in the report
    # before the fit, so a refused fit keeps them
    hypo = check_hypotheses(reduction, branch)
    state.update(hypotheses=hypo)
    for row in table:
        row["l_fit"] = hypo.l_fit
    report.data["hypotheses"] = asdict(hypo)


def _stage_verify(problem, state, report):
    series = state["series"]
    chart = state["chart"]
    branch = state["branch"]
    reduction = state["reduction"]
    config = state["avg_config"]
    rows, failures = [], []
    for eps, alpha in zip(branch.eps, branch.a_eps):
        z_pred = chart.embed(alpha)
        try:
            try:
                orbit = refine_periodic(series, z_pred, eps, config)
            except (RefinementError, IntegrationError):
                # retry from the first-order-corrected prediction
                gam1 = gamma_functions(reduction.gs, chart, alpha, 1)[0]
                z_corr = z_pred.copy()
                z_corr[chart.m:] += eps * gam1
                orbit = refine_periodic(series, z_corr, eps, config)
        except (RefinementError, IntegrationError) as exc:
            failures.append({"eps": float(eps), "reason": str(exc)})
            continue
        rows.append({
            "eps": float(eps),
            "z_pred": _listify(z_pred),
            "z": _listify(orbit.z),
            "residual": orbit.residual,
            "eigenvalues_re": _listify(np.real(orbit.dh_eigenvalues)),
            "eigenvalues_im": _listify(np.imag(orbit.dh_eigenvalues)),
            "classification": orbit.classification,
            "iterations": orbit.iterations,
            "integrations": orbit.integrations,
        })
    verify_block = {"orbits": rows, "failed": failures}
    if rows:
        eps_arr = np.array([row["eps"] for row in rows])
        eig_arr = np.array([np.array(row["eigenvalues_re"])
                            + 1j * np.array(row["eigenvalues_im"]) for row in rows])
        if eig_arr.shape[1] >= 2 and len(rows) >= 3:
            c_small, c_large = eig_coefficient_fit(eps_arr, eig_arr)
            verify_block["eig_coefficients"] = {
                "slow_eps2": c_small, "fast_eps1": c_large}
    if "z0" in state and state.get("base_gs") is not None \
            and state["base_gs"].k >= 2:
        try:
            A1, A2, _ = jacobian_series(state["base_gs"], state["z0"], state["z1"])
            verify_block["jacobian_series"] = {
                "A1": [_listify(r) for r in A1],
                "A2": [_listify(r) for r in A2],
            }
        except Exception as exc:
            verify_block["jacobian_series"] = {"unavailable": str(exc)}
    report.data["verify"] = verify_block


def _stage_degree(problem, state, report):
    reduction = state["reduction"]
    branch = state["branch"]
    hypo = state["hypotheses"]
    chart = reduction.chart
    k = reduction.k
    r = reduction.r
    rows = []
    exponent = k + 1 - hypo.l
    # the certificate of the chopped Chebyshev surrogate refuses unless the
    # tail the chop discarded is below its boundary margin, so the chopped
    # series and the interpolant through the grid share the degree; the
    # error of the interpolant itself is not measured
    for eps, alpha in zip(branch.eps, branch.a_eps):
        radius = abs(eps) ** exponent
        lo = np.maximum(alpha - radius, chart.box[:, 0])
        hi = np.minimum(alpha + radius, chart.box[:, 1])
        if np.any(lo >= hi):
            continue
        box = np.stack([lo, hi], axis=1)
        try:
            cert = _surrogate(reduction).degree(eps, box, r, seed=problem.run.seed)
        except ValueError as exc:
            rows.append({"eps": float(eps), "error": str(exc)})
            continue
        margin = cert.boundary_margin
        rows.append({
            "eps": float(eps),
            "box": [_listify(b) for b in box],
            "degree": cert.degree,
            "signs": [int(s) for s in cert.signs],
            "boundary_margin": margin,
            "chop_tail": cert.chop_tail,
            "max_admissible_remainder": margin / abs(eps) ** (k - r + 1),
        })
    report.data["degree"] = {"certificates": rows, "shrink_exponent": exponent}


_STAGE_FNS = {
    "avg": _stage_avg,
    "reduce": _stage_reduce,
    "solve": _stage_solve,
    "verify": _stage_verify,
    "degree": _stage_degree,
}


# ---------------------------------------------------------------------------
# emission

def _fmt(x):
    return format(float(x), ".17g")


def emit_csv(report, out_dir):
    """Write one CSV per populated table; deterministic bytes for fixed input."""
    import os
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def write(name, header, rows):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        written.append(path)

    avg = report.get("averaged", "points")
    if avg is not None:
        order = report.get("averaged", "order")
        header = (["alpha", "z"] + [f"g{i}" for i in range(order + 1)]
                  + ["tolerance_bound"])
        rows = []
        for pt in avg:
            rows.append([";".join(_fmt(v) for v in pt["alpha"]),
                         ";".join(_fmt(v) for v in pt["z"])]
                        + [";".join(_fmt(v) for v in g) for g in pt["g"]]
                        + [_fmt(pt["tolerance_bound"])])
        write("averaged.csv", header, rows)

    table = report.get("branch", "table")
    if report.get("branch") is not None:
        rows = []
        for row in table or []:
            a = row["a_eps"]
            rows.append([_fmt(row["eps"]),
                         _fmt(a[0]) if len(a) == 1 else ";".join(_fmt(v) for v in a),
                         _fmt(row["residual"]), _fmt(row["det_delta"]),
                         "" if row.get("l_fit") is None else _fmt(row["l_fit"])])
        write("branch.csv", ["eps", "a_eps", "residual", "det_delta", "l_fit"], rows)

    orbits = report.get("verify", "orbits")
    if report.get("verify") is not None:
        rows = []
        for row in orbits or []:
            rows.append([_fmt(row["eps"]),
                         ";".join(_fmt(v) for v in row["z"]),
                         _fmt(row["residual"]),
                         ";".join(_fmt(v) for v in row["eigenvalues_re"]),
                         ";".join(_fmt(v) for v in row["eigenvalues_im"]),
                         row["classification"]])
        write("orbits.csv",
              ["eps", "z", "residual", "eig_re", "eig_im", "classification"],
              rows)

    certs = report.get("degree", "certificates")
    if report.get("degree") is not None:
        rows = []
        for row in certs or []:
            if "error" in row:
                rows.append([_fmt(row["eps"]), "", "", row["error"]])
            else:
                rows.append([_fmt(row["eps"]), str(row["degree"]),
                             _fmt(row["boundary_margin"]), ""])
        write("degree.csv", ["eps", "degree", "boundary_margin", "error"], rows)
    return written


# minimal hand-rolled SVG polyline plots (deterministic output)

def _svg_plot(path, curves, title, xlabel, ylabel, logx=False, logy=False,
              scatter=()):
    W, H, PAD = 640, 420, 60

    def tx(values):
        values = np.asarray(values, dtype=float)
        return np.log10(values) if logx else values

    def ty(values):
        values = np.asarray(values, dtype=float)
        return np.log10(np.abs(values) + 1e-300) if logy else values

    all_x = np.concatenate([tx(c[0]) for c in curves] or [np.array([0, 1])])
    all_y = np.concatenate([ty(c[1]) for c in curves] or [np.array([0, 1])])
    for xs, ys, _ in scatter:
        all_x = np.concatenate([all_x, tx(xs)])
        all_y = np.concatenate([all_y, ty(ys)])
    x0, x1 = float(np.min(all_x)), float(np.max(all_x))
    y0, y1 = float(np.min(all_y)), float(np.max(all_y))
    x1 = x1 if x1 > x0 else x0 + 1.0
    y1 = y1 if y1 > y0 else y0 + 1.0

    def px(x):
        return PAD + (x - x0) / (x1 - x0) * (W - 2 * PAD)

    def py(y):
        return H - PAD - (y - y0) / (y1 - y0) * (H - 2 * PAD)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
             f'<rect width="{W}" height="{H}" fill="white"/>',
             f'<text x="{W/2:.1f}" y="24" text-anchor="middle" '
             f'font-size="15">{title}</text>',
             f'<line x1="{PAD}" y1="{H-PAD}" x2="{W-PAD}" y2="{H-PAD}" stroke="black"/>',
             f'<line x1="{PAD}" y1="{PAD}" x2="{PAD}" y2="{H-PAD}" stroke="black"/>',
             f'<text x="{W/2:.1f}" y="{H-16}" text-anchor="middle" '
             f'font-size="12">{xlabel}</text>',
             f'<text x="18" y="{H/2:.1f}" text-anchor="middle" font-size="12" '
             f'transform="rotate(-90 18 {H/2:.1f})">{ylabel}</text>']
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    for ci, (xs, ys, label) in enumerate(curves):
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}"
                       for x, y in zip(tx(xs), ty(ys)))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{colors[ci % len(colors)]}" stroke-width="1.5"/>')
        parts.append(f'<text x="{W-PAD}" y="{PAD + 16*ci}" text-anchor="end" '
                     f'font-size="11" fill="{colors[ci % len(colors)]}">{label}</text>')
    for ci, (xs, ys, label) in enumerate(scatter):
        for x, y in zip(tx(xs), ty(ys)):
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" '
                         f'fill="{colors[(ci + len(curves)) % len(colors)]}"/>')
        parts.append(f'<text x="{W-PAD}" y="{PAD + 16*(ci+len(curves))}" '
                     f'text-anchor="end" font-size="11">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
    return path


def emit_svg(report, out_dir, problem=None):
    import os
    os.makedirs(out_dir, exist_ok=True)
    written = []
    table = report.get("branch", "table") or []
    orbits = report.get("verify", "orbits") or []
    if table:
        eps = [row["eps"] for row in table]
        a = [row["a_eps"][0] for row in table]
        curves = [(eps, a, "predicted a_eps")]
        if orbits:
            eo = [row["eps"] for row in orbits]
            ro = [row["z"][0] for row in orbits]
            curves.append((eo, ro, "refined orbit amplitude"))
        written.append(_svg_plot(os.path.join(out_dir, "branch.svg"), curves,
                                 "amplitude against eps", "log10 eps",
                                 "amplitude", logx=True))
    if orbits and problem is not None:
        row = orbits[-1]
        eps = row["eps"]
        series = problem.series()
        from .flow import integrate_full, sample_orbit
        z_star = np.array(row["z"])
        spiral = []
        z = z_star + 0.2 * np.ones(series.dim)
        for _ in range(40):
            spiral.append(z.copy())
            try:
                z = integrate_full(series, z, eps).xT
            except IntegrationError:
                # an iterate that leaves the domain ends the spiral
                break
        spiral = np.array(spiral)
        ts = np.linspace(0.0, series.period, 400)
        xs = sample_orbit(series, z_star, eps, ts)
        axes = ("z1", "z2", "z1", "z2")
        if series.dim == 1:
            # the return map as (z_j, z_j+1), and the orbit against t
            spiral = np.column_stack([spiral[:-1, 0], spiral[1:, 0]])
            z_star = np.repeat(z_star, 2)
            xs = np.column_stack([ts, xs[:, 0]])
            axes = ("z_j", "z_j+1", "t", "x")
        written.append(_svg_plot(
            os.path.join(out_dir, "section.svg"),
            [], "return-map iterates against the fixed point",
            *axes[:2],
            scatter=[(spiral[:, 0], spiral[:, 1], "iterates"),
                     ([z_star[0]], [z_star[1]], "fixed point")]))
        written.append(_svg_plot(
            os.path.join(out_dir, "trajectory.svg"),
            [(xs[:, 0], xs[:, 1], "periodic orbit")],
            "orbit projection over one period", *axes[2:]))
    return written


def emit_text(report, stream=None):
    stream = stream or sys.stdout
    d = report.data
    w = stream.write
    meta = d.get("meta", {})
    w(f"avgcycle {meta.get('version', '?')} - problem '{meta.get('problem')}'\n")
    w(f"stages: {', '.join(meta.get('stages', []))}  "
      f"order: {meta.get('order')}  tol: {meta.get('tol')}\n")
    if "reduction" in d:
        red = d["reduction"]
        w(f"reduction: first nonzero order r = {red['first_nonzero_order']}, "
          f"min |det Delta| = {red['min_abs_det_delta']:.6g}\n")
    if "branch" in d:
        rows = d["branch"]["table"]
        w(f"branch: {len(rows)} roots")
        if rows:
            eps = [r["eps"] for r in rows]
            w(f"; eps in [{min(eps):.3g}, {max(eps):.3g}], "
              f"worst residual {max(r['residual'] for r in rows):.3e}")
        w("\n")
    if "hypotheses" in d:
        h = d["hypotheses"]
        fit = "none" if h["l_fit"] is None else f"{h['l_fit']:.3f}"
        w(f"hypotheses: r = {h['r']}, l = {h['l']} (fit {fit}), "
          f"P0 = {h['P0']:.4g}, bound (k+r+1)/2 = {h['l_bound']:.1f}, "
          f"within: {h['l_within_bound']}\n")
    if "verify" in d:
        rows = d["verify"]["orbits"]
        w(f"verified orbits: {len(rows)}")
        if rows:
            cls = {r["classification"] for r in rows}
            w(f"; residual <= {max(r['residual'] for r in rows):.3e}; "
              f"classification: {', '.join(sorted(cls))}")
        w("\n")
        if "eig_coefficients" in d["verify"]:
            ec = d["verify"]["eig_coefficients"]
            w(f"eigenvalue fits: fast ~ {ec['fast_eps1']:.6g} eps, "
              f"slow ~ {ec['slow_eps2']:.6g} eps^2\n")
    if "degree" in d:
        certs = d["degree"]["certificates"]
        w(f"degree certificates: {len(certs)}\n")
    if d.get("errors"):
        for stage, msg in d["errors"].items():
            w(f"ERROR in {stage}: {msg}\n")
    return stream


# ---------------------------------------------------------------------------
# entry point

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="avgcycle",
        description="higher-order averaging and reduction for periodic orbits")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("pipeline",) + STAGES:
        p = sub.add_parser(name)
        p.add_argument("--problem", required=True)
        p.add_argument("--eps", default=None,
                       help="comma list or logrange(lo, hi, n)")
        p.add_argument("--order", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", default="text",
                       choices=("csv", "svg", "text"))
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        problem = load_problem(args.problem)
        if args.eps:
            problem.run.eps = _eps_grid(args.eps)
        for key in ("order", "tol", "seed"):
            if getattr(args, key) is not None:
                setattr(problem.run, key, getattr(args, key))
        problem.run.check(problem.series().order, problem.manifold)
    except ProblemError as exc:
        print(f"problem validation failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read problem file: {exc}", file=sys.stderr)
        return 2

    stages = None if args.command == "pipeline" else (args.command,)
    report, code = run_pipeline(problem, stages)

    if args.out:
        import os
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(report.to_json())
        if args.format == "csv":
            emit_csv(report, args.out)
        elif args.format == "svg":
            emit_svg(report, args.out, problem)
    if args.format == "text" or not args.out:
        emit_text(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
