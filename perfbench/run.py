"""avgcycle benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cyl3d-pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  With ``--trace 0`` the run measures set-up time in fresh
processes, then repeats the workload's operation until ``--seconds`` are
spent and reports the end-to-end metrics.  With ``--trace 1`` it runs the
operation once untraced, installs the per-layer wrappers, runs it twice more
traced, checks that the deterministic counts repeat, and reports the
per-layer metrics.  Every output is checked; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Details (failures, per-stage table, span self times, spans) go
to ``.perfbench_out/`` in the checkout.  Exit code 0 means every check
passed; 1 a check failed; 2 the checkout holds no avgcycle sources.
"""

import os

# one thread everywhere: set before numpy is imported, inherited by children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedSampler  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
TAIL_PERCENTILE = 90


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(problem_text):
    """(raw, normalised) set-up seconds from SETUP_SAMPLES fresh processes,
    after one uncounted warm-up process."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            input=problem_text, capture_output=True, text=True, timeout=120,
            check=True)
        if i:
            raw, norm = map(float, done.stdout.split())
            samples.append((raw, norm))
    return samples


def run_ops(workload, seconds, tally):
    """Repeat the operation until the next one would end past ``seconds``
    (and at least ``min_ops`` times).  Returns per-op (raw, normalised,
    speed) and the per-call milliseconds, normalised by their op's speed."""
    ops, call_ms = [], []
    start = time.perf_counter()
    while True:
        with SpeedSampler() as sampler:
            t0 = time.perf_counter()
            calls = workload.operate(len(ops), tally)
            raw = time.perf_counter() - t0
        ops.append((raw, sampler.normalise(raw), sampler.speed()))
        call_ms += [ms * sampler.speed() for ms in calls]
        elapsed = time.perf_counter() - start
        if (len(ops) >= workload.min_ops
                and elapsed + statistics.median(op[0] for op in ops) > seconds):
            return ops, call_ms


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[int(rank) - 1]


def untraced_run(workload, seconds, tally):
    setup = measure_setup(workload.problem_text)
    workload.load()
    ops, call_ms = run_ops(workload, seconds, tally)
    metrics = {
        "setup_s": statistics.median(norm for _, norm in setup),
        "wall_s": statistics.median(norm for _, norm, _ in ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"ops": len(ops),
            "raw_setup_s": statistics.median(raw for raw, _ in setup),
            "raw_wall_s": statistics.median(raw for raw, _, _ in ops),
            "host_speed": statistics.median(speed for _, _, speed in ops),
            "setup_samples": setup, "op_samples": ops}
    if call_ms:
        tail = percentile(call_ms, TAIL_PERCENTILE)
        info.update({
            "orbits": len(call_ms),
            "orbit_ms_p50": statistics.median(call_ms),
            f"orbit_ms_tail (p{TAIL_PERCENTILE})": tail,
            "orbits_beyond_tail": sum(1 for v in call_ms if v > tail),
        })
    return metrics, info


def traced_run(workload, name, seed, tally, units):
    from tracing import DETERMINISTIC, LAYER_EFFECTS, Tracer

    def measured_op():
        with SpeedSampler() as sampler:
            t0 = time.perf_counter()
            workload.operate(0, tally)
            raw = time.perf_counter() - t0
        return sampler.normalise(raw), sampler.speed()

    workload.load()
    untraced, _ = measured_op()
    tracer = Tracer(run_id=f"{name}-seed{seed}-pid{os.getpid()}")
    tracer.install()
    passes = []
    for _ in range(2):
        tracer.reset()
        wall, speed = measured_op()
        values = tracer.layer_metrics()
        # times are rescaled to nominal host speed like the end-to-end ones
        for key in values:
            if units[key] in ("s", "us"):
                values[key] *= speed
        stages = tracer.stage_table()
        for row in stages.values():
            row["wall_s"] *= speed
        passes.append({"wall_s": wall, "metrics": values,
                       "stages": stages, "spans": tracer.span_totals(),
                       "host_speed": speed})
    first, second = (p["metrics"] for p in passes)
    for key in DETERMINISTIC:
        tally.record(f"deterministic {key}", first[key] == second[key],
                     f"{first[key]} then {second[key]}")
    metrics = {key: statistics.mean([first[key], second[key]]) for key in first}
    metrics["trace.overhead_ratio"] = (
        statistics.mean(p["wall_s"] for p in passes) / untraced)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}-seed{seed}-spans.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.dump_spans(), fh)
    info = {"untraced_wall_s": untraced,
            "traced_wall_s": [p["wall_s"] for p in passes],
            "host_speed": [p["host_speed"] for p in passes],
            "stage_table": passes[0]["stages"],
            "span_totals": passes[0]["spans"],
            "layer_effects": LAYER_EFFECTS}
    return metrics, info


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "avgcycle" / "__init__.py").is_file():
        print(f"perfbench: no avgcycle sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    import avgcycle
    if Path(avgcycle.__file__).resolve().parent != SRC / "avgcycle":
        print(f"perfbench: avgcycle imported from {avgcycle.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    if args.trace:
        wanted = spec["per_layer"]
        values, info = traced_run(workload, args.workload, args.seed, tally,
                                  {m["name"]: m["unit"] for m in wanted})
    else:
        values, info = untraced_run(workload, args.seconds, tally)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    meta = {"workload": args.workload, "why": workload.why, "seed": args.seed,
            "trace": args.trace, "seconds": args.seconds,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}
    fail_ratio = tally.failed / tally.attempted
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"meta": meta, "metrics": metrics, "info": info,
                   "attempted": tally.attempted, "failures": tally.failures},
                  fh, indent=1, default=float)

    print(" ".join(f"{k}={v}" for k, v in meta.items() if k != "why"))
    print(f"why: {workload.why}")
    for key, value in info.items():
        if not isinstance(value, (dict, list)):
            print(f"{key}: {value}")
    for key, entry in metrics.items():
        print(f"{key}: {entry['value']:.6g} {entry['unit']}")
    print(f"fail_ratio: {fail_ratio:.6g} ({tally.failed}/{tally.attempted})")
    for failure in tally.failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": not tally.failures, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if not tally.failures else 1


if __name__ == "__main__":
    sys.exit(main())
