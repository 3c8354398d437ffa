"""Report digests and in-process fixture times of one source checkout.

    python3 bench/digest.py --label baseline

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  Writes ``BENCH_<label>.json`` at the root of the
checkout with

* ``digests``: for each problem, the sha256 (first 16 hex digits) of its
  ``run_pipeline`` report with ``report_wall_time=False``, every float
  written by ``float.hex`` and the JSON keys sorted.  Equal digests mean
  bit-identical reports.  The problems are the two shipped fixtures, the
  m = 2 problem of ``tests/test_cli.py`` and the seed-11 problems of the
  ``cyl3d-pipeline`` and ``mb-reduce`` benchmark workloads;
* ``fixtures``: for each shipped fixture, the median over ``--runs`` runs of
  ``run_pipeline`` (each on a freshly loaded fixture, so every run builds its
  own plans) of the total and of each stage's seconds, with the range of the
  totals, and of the seconds spent building right-hand side plans
  (``flow._Plan.__init__``, compiling included);
* ``counts``: for each shipped fixture and stage, what its integrations did,
  counted at ``flow._run_solver`` on one run: ``integrations`` (one per
  point, a stacked call counting each member), ``rhs_evals`` (their
  ``nfev``), ``chebyshev`` and ``chebyshev_passes`` (the integrations that
  ended on Chebyshev quadrature, and the passes that accepted their
  levels), ``dop853`` and ``dop853_steps`` (the integrations stepped by
  DOP853, fallbacks included, and their accepted steps), ``solver_calls``
  and ``failed_calls``.  These are deterministic, so two files compare
  exactly.

With ``--end-to-end`` (about 90 s more on a 2-core host) it also writes

* ``tier1``: the wall seconds of one Tier-1 run (``python -m pytest -q
  --continue-on-collection-errors`` with ``src`` on ``PYTHONPATH``), its
  summary line and exit code;
* ``workloads``: for each workload of ``BENCHMARK.json``, each end-to-end
  metric (``wall_s``, ``setup_s``, ``peak_rss_mb``) of three runs of
  ``perfbench/run.py --seed 11 --seconds 3``, one run of every workload in
  turn, read from its ``.perfbench_out/`` JSON: the median, the quartiles
  and the runs' values.  Each run starts from a small launcher process: on
  Linux a process's ``ru_maxrss`` starts at the resident size of the
  process that spawned it, here one that has run every pipeline.

One BLAS thread, as the benchmark runs; wall times are the host's, so only
files written on one host compare.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ast  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from avgcycle import cli, flow  # noqa: E402
from avgcycle.problems import load_fixture, parse_problem_text  # noqa: E402

FIXTURES = ("cyl3d", "maxwell_bloch")
COUNTS = ("integrations", "rhs_evals", "chebyshev", "chebyshev_passes", "dop853",
          "dop853_steps", "solver_calls", "failed_calls")
WORKLOAD_SEED = 11
WORKLOAD_RUNS, WORKLOAD_SECONDS = 3, 3
LAUNCH = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"


def _hexed(node):
    if isinstance(node, float):
        return node.hex()
    if isinstance(node, dict):
        return {key: _hexed(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_hexed(value) for value in node]
    return node


def digest(problem):
    """The first 16 hex digits of the sha256 of the report's sorted JSON,
    floats by ``float.hex``."""
    report, _ = cli.run_pipeline(problem, report_wall_time=False)
    text = json.dumps(_hexed(report.data), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _m2_problem():
    """The text of ``M2_PROBLEM`` in ``tests/test_cli.py``, read without
    importing the tests."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "M2_PROBLEM" for target in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("tests/test_cli.py defines no M2_PROBLEM")


def problems():
    """Name -> parsed problem, for every digest."""
    from workloads import WORKLOADS

    out = {name: load_fixture(name) for name in FIXTURES}
    out["m2"] = parse_problem_text(_m2_problem())
    for name in ("cyl3d-pipeline", "mb-reduce"):
        workload = WORKLOADS[name](WORKLOAD_SEED)
        workload.load()
        out[f"{name}@{WORKLOAD_SEED}"] = workload.problem
    return out


def fixture_times(name, runs):
    """Median total, per-stage and plan-build seconds of ``runs`` pipeline
    runs, each on a freshly loaded fixture, and the first run's counts per
    stage."""
    spent, plans, counts, at = {}, [0.0], {}, [None]

    def timed(stage, fn):
        def wrapper(*args):
            at[0] = stage
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[stage] = time.perf_counter() - t0
                at[0] = None
        return wrapper

    def build(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return init(self, *args, **kwargs)
        finally:
            plans[0] += time.perf_counter() - t0

    def counting(*args, **kwargs):
        tally = counts.setdefault(at[0] or "other", dict.fromkeys(COUNTS, 0))
        tally["solver_calls"] += 1
        try:
            out = run_solver(*args, **kwargs)
        except Exception:
            tally["failed_calls"] += 1
            raise
        for sol in out if isinstance(out, list) else [out]:
            tally["integrations"] += 1
            tally["rhs_evals"] += sol.nfev
            if getattr(sol, "passes", None) is None:
                tally["dop853"] += 1
                tally["dop853_steps"] += len(sol.t) - 1
            else:
                tally["chebyshev"] += 1
                tally["chebyshev_passes"] += sol.passes
        return out

    stages, init, run_solver = dict(cli._STAGE_FNS), flow._Plan.__init__, flow._run_solver
    totals, builds, per_stage = [], [], {stage: [] for stage in stages}
    try:
        for stage, fn in stages.items():
            cli._STAGE_FNS[stage] = timed(stage, fn)
        flow._Plan.__init__ = build
        for run in range(runs):
            problem = load_fixture(name)
            spent.clear()
            plans[0] = 0.0
            flow._run_solver = counting if run == 0 else run_solver
            t0 = time.perf_counter()
            _, code = cli.run_pipeline(problem, report_wall_time=False)
            totals.append(time.perf_counter() - t0)
            builds.append(plans[0])
            if code:
                raise RuntimeError(f"{name}: the pipeline exited with code {code}")
            for stage in stages:
                if stage in spent:
                    per_stage[stage].append(spent[stage])
    finally:
        cli._STAGE_FNS.update(stages)
        flow._Plan.__init__, flow._run_solver = init, run_solver
    return {"total_s": statistics.median(totals),
            "total_range_s": [min(totals), max(totals)],
            "plan_build_s": statistics.median(builds),
            "stages_s": {stage: statistics.median(values)
                         for stage, values in per_stage.items() if values}}, counts


def tier1():
    """Wall seconds, summary line and exit code of one Tier-1 run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "--continue-on-collection-errors"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "summary": done.stdout.strip().splitlines()[-1],
            "exit_code": done.returncode}


def workloads():
    """Median, quartiles and values of each end-to-end metric over
    ``WORKLOAD_RUNS`` benchmark runs per workload, one of each in turn."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [metric["name"] for metric in spec["end_to_end"]]
    values = {workload["name"]: {name: [] for name in metrics}
              for workload in spec["workloads"]}
    for _ in range(WORKLOAD_RUNS):
        for workload, per_metric in values.items():
            subprocess.run([sys.executable, "-c", LAUNCH, sys.executable,
                            str(ROOT / "perfbench" / "run.py"),
                            "--workload", workload, "--seed", str(WORKLOAD_SEED),
                            "--seconds", str(WORKLOAD_SECONDS), "--trace", "0"],
                           cwd=ROOT, capture_output=True, check=True)
            out = ROOT / ".perfbench_out" / f"{workload}-seed{WORKLOAD_SEED}-trace0.json"
            result = json.loads(out.read_text(encoding="utf-8"))["metrics"]
            for name in metrics:
                per_metric[name].append(result[name]["value"])
    return {workload: {name: {"median": statistics.median(runs),
                              "quartiles": statistics.quantiles(runs, method="inclusive")[::2],
                              "runs": runs}
                       for name, runs in per_metric.items()}
            for workload, per_metric in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--end-to-end", action="store_true",
                        help="also time Tier-1 and the benchmark workloads")
    args = parser.parse_args(argv)
    out = {
        "label": args.label,
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "cpus": os.cpu_count()},
        "digests": {name: digest(problem) for name, problem in problems().items()},
    }
    timed = {name: fixture_times(name, args.runs) for name in FIXTURES}
    out["fixtures"] = {name: times for name, (times, _) in timed.items()}
    out["counts"] = {name: counts for name, (_, counts) in timed.items()}
    if args.end_to_end:
        out["tier1"], out["workloads"] = tier1(), workloads()
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(out["digests"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
