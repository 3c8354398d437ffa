"""Per-layer tracing of avgcycle from outside the library.

``Tracer.install()`` wraps the public functions of each avgcycle module (and
the few private hooks named below) in the running process.  Coarse calls
become spans (name, start, end, parent span, shared run id) kept in memory;
hot calls (stack evaluations, tensor contractions, right-hand sides) only
bump counters and accumulate time, so a traced run does not allocate one
object per RHS call.  The benchmark installs the wrappers only in its traced
process, after the untraced reference operation of that process has run, so
timed runs never carry them.

Every binding of a wrapped name is replaced, because several modules bind
library functions by ``from``-import (``cli`` binds ``reduce_chart`` and
``refine_periodic``, ``averaging`` binds ``flow._run_solver``).  Integrations
are counted at ``avgcycle.flow.solve_ivp``, which every integration looks up
at call time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# which end-to-end metric each per-layer metric should move, on which workload
LAYER_EFFECTS = {
    "cli.<stage>_s": "locates which stage a wall_s change on cyl3d-pipeline / "
                     "mb-reduce came from",
    "expr.compile_s, expr.stacks_compiled": "wall_s on mb-reduce (largest trees); "
                                            "setup_s if compilation moves to load time",
    "expr.eval_calls, expr.eval_us": "wall_s on mb-reduce most, on cyl3d-pipeline a "
                                     "little, orbit_ms_* a little",
    "tensor.apply_calls, tensor.apply_s, tensor.to_dense_calls":
        "orbit_ms_* on orbit-refine (to_dense per RHS call); wall_s on the reduce "
        "workloads (gamma/f recurrences)",
    "flow.*": "augmented: wall_s on cyl3d-pipeline and mb-reduce, none on "
              "orbit-refine; full_var: orbit_ms_* on orbit-refine",
    "averaging.*": "wall_s and peak_rss_mb on cyl3d-pipeline and mb-reduce",
    "lyapschmidt.*": "wall_s on mb-reduce and cyl3d-pipeline; fk_evals -> "
                     "cli.solve_s on cyl3d-pipeline",
    "solver.*": "wall_s on cyl3d-pipeline; nested_s -> wall_s on mb-reduce",
    "verify.*": "orbit_ms_* on orbit-refine; cli.verify_s on cyl3d-pipeline",
    "trace.overhead_ratio": "none; the cost of the traced run",
}

FLOW_CALLERS = ("augmented", "unperturbed", "fundamental", "full", "full_var")

# counts that must repeat exactly between two traced passes of one input
DETERMINISTIC = ("flow.integrations", "flow.rhs_evals", "flow.steps",
                 "averaging.points")


def _rebind(original, replacement):
    """Point every avgcycle module-level binding of ``original`` at
    ``replacement``."""
    for modname, mod in list(sys.modules.items()):
        if modname != "avgcycle" and not modname.startswith("avgcycle."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


class Tracer:
    """Spans and counters of one traced pass; ``reset`` starts the next."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.reset()

    def reset(self):
        self.spans = []            # [span_id, name, start, end, parent_id]
        self._open = []
        self.counts = Counter()
        self.busy = Counter()      # seconds spent in hot (span-less) calls
        self.stage = None
        self.per_stage = defaultdict(Counter)
        self._callers = []
        self._lookup_depth = 0

    # -- recording -----------------------------------------------------------

    def _spanned(self, name, fn, after=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._open[-1] if tracer._open else None
            record = [len(tracer.spans), name, time.perf_counter(), None, parent]
            tracer.spans.append(record)
            tracer._open.append(record[0])
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".errors"] += 1
                if on_error is not None:
                    on_error(args, kwargs)
                raise
            finally:
                tracer._open.pop()
                record[3] = time.perf_counter()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _timed(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.busy[name] += time.perf_counter() - t0
                tracer.counts[name] += 1

        return wrapper

    def _tagged(self, name, fn, tag):
        """Span that also tells ``solve_ivp`` which flow builder called it."""
        tracer = self
        spanned = self._spanned(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._callers.append(tag(args, kwargs))
            try:
                return spanned(*args, **kwargs)
            finally:
                tracer._callers.pop()

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap the layer boundaries of the imported avgcycle package (once
        per process)."""
        from avgcycle import averaging, cli, expr, flow, lyapschmidt, solver, tensor, verify

        def patch(module, attr, wrapper_of):
            original = getattr(module, attr)
            _rebind(original, wrapper_of(original))

        # cli: stage spans, and the stage that integrations are charged to
        for stage, fn in list(cli._STAGE_FNS.items()):
            cli._STAGE_FNS[stage] = self._stage_wrapper(stage, fn)

        # expr: tensor_stack cache misses are compilations
        original_stack = expr.VectorFieldSeries.tensor_stack
        tracer = self

        @functools.wraps(original_stack)
        def tensor_stack(series, *args, **kwargs):
            before = len(series._stacks)
            t0 = time.perf_counter()
            stack = original_stack(series, *args, **kwargs)
            if len(series._stacks) > before:
                tracer.busy["expr.compile"] += time.perf_counter() - t0
                tracer.counts["expr.compile"] += 1
            return stack

        expr.VectorFieldSeries.tensor_stack = tensor_stack
        expr._TensorStack.eval_all = self._timed("expr.eval_all",
                                                 expr._TensorStack.eval_all)

        # tensor
        tensor.SymTensor.apply = self._timed("tensor.apply", tensor.SymTensor.apply)
        tensor.SymTensor.to_dense = self._timed("tensor.to_dense",
                                                tensor.SymTensor.to_dense)

        # flow: every integration passes through flow.solve_ivp
        patch(flow, "solve_ivp", self._solve_ivp_wrapper)
        patch(averaging, "y_functions",
              lambda fn: self._tagged("averaging.y_functions", fn,
                                      lambda a, k: "augmented"))
        patch(flow, "integrate_unperturbed",
              lambda fn: self._tagged("flow.integrate_unperturbed", fn,
                                      lambda a, k: "unperturbed"))
        patch(flow, "fundamental_matrix",
              lambda fn: self._tagged("flow.fundamental_matrix", fn,
                                      lambda a, k: "fundamental"))

        def full_tag(args, kwargs):
            variational = kwargs.get("variational", args[4] if len(args) > 4 else False)
            return "full_var" if variational else "full"

        patch(flow, "integrate_full",
              lambda fn: self._tagged("flow.integrate_full", fn, full_tag))

        # averaging: points computed, and g-cache lookups that computed one
        def count_point(args, kwargs, result):
            self.counts["averaging.points"] += 1
            if self._lookup_depth:
                self.counts["averaging.lookup_points"] += 1

        patch(averaging, "averaged_functions",
              lambda fn: self._spanned("averaging.averaged_functions", fn,
                                       after=count_point))
        for method in ("value", "g0_jacobian"):
            setattr(lyapschmidt.AveragedGSeries, method,
                    self._lookup_wrapper(getattr(lyapschmidt.AveragedGSeries, method)))

        # lyapschmidt
        def count_nodes(args, kwargs, result):
            self.counts["lyapschmidt.nodes"] += len(result.alphas)

        patch(lyapschmidt, "reduce_chart",
              lambda fn: self._reduce_wrapper(fn, count_nodes))
        lyapschmidt.AveragedGSeries.b_tensor = self._spanned(
            "lyapschmidt.b_tensor", lyapschmidt.AveragedGSeries.b_tensor)
        lyapschmidt.ReductionResult.Fk = self._timed("lyapschmidt.Fk",
                                                     lyapschmidt.ReductionResult.Fk)

        # solver
        def count_branch(args, kwargs, result):
            self.counts["solver.branch_eps"] += len(result.eps) + len(result.failed)
            self.counts["solver.branch_failed"] += len(result.failed)

        def count_branch_error(args, kwargs):
            eps = np.atleast_1d(kwargs.get("eps_grid", args[1] if len(args) > 1 else []))
            self.counts["solver.branch_eps"] += eps.size
            self.counts["solver.branch_failed"] += eps.size

        patch(solver, "find_branch",
              lambda fn: self._spanned("solver.find_branch", fn, after=count_branch,
                                       on_error=count_branch_error))
        for attr in ("check_hypotheses", "expand_branch", "brouwer_degree",
                     "degree_preservation_check", "nested_reduction"):
            patch(solver, attr, lambda fn, attr=attr: self._spanned(f"solver.{attr}", fn))

        # verify
        def count_iterations(args, kwargs, result):
            self.counts["verify.newton_iters"] += result.iterations

        patch(verify, "refine_periodic",
              lambda fn: self._spanned("verify.refine_periodic", fn,
                                       after=count_iterations))
        for attr in ("displacement", "jacobian_series"):
            patch(verify, attr, lambda fn, attr=attr: self._spanned(f"verify.{attr}", fn))

    def _stage_wrapper(self, stage, fn):
        spanned = self._spanned(f"cli.{stage}", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer, tracer.stage = tracer.stage, stage
            try:
                return spanned(*args, **kwargs)
            finally:
                tracer.stage = outer

        return wrapper

    def _lookup_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts["averaging.lookups"] += 1
            tracer._lookup_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._lookup_depth -= 1

        return wrapper

    def _reduce_wrapper(self, fn, after):
        """Span around reduce_chart that also counts the points it averaged."""
        spanned = self._spanned("lyapschmidt.reduce_chart", fn, after=after)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = tracer.counts["averaging.points"]
            try:
                return spanned(*args, **kwargs)
            finally:
                tracer.counts["lyapschmidt.points"] += (
                    tracer.counts["averaging.points"] - before)

        return wrapper

    def _solve_ivp_wrapper(self, solve_ivp):
        tracer = self
        spanned = self._spanned("flow.solve_ivp", solve_ivp)

        @functools.wraps(solve_ivp)
        def wrapper(fun, *args, **kwargs):
            calls = [0, 0.0]

            def rhs(t, y):
                t0 = time.perf_counter()
                try:
                    return fun(t, y)
                finally:
                    calls[0] += 1
                    calls[1] += time.perf_counter() - t0

            caller = tracer._callers[-1] if tracer._callers else "other"
            try:
                sol = spanned(rhs, *args, **kwargs)
            except Exception:
                tracer._count_integration(caller, calls, None)
                raise
            tracer._count_integration(caller, calls, sol)
            return sol

        return wrapper

    def _count_integration(self, caller, calls, sol):
        """Charge one integration (``sol`` is None when solve_ivp raised)."""
        counts = self.counts
        counts["flow.rhs_calls"] += calls[0]
        self.busy["flow.rhs"] += calls[1]
        if sol is None:
            failed, nfev, steps = True, calls[0], 0
        else:
            failed = not sol.success or not np.all(np.isfinite(sol.y[:, -1]))
            nfev, steps = sol.nfev, max(sol.t.size - 1, 0)
        counts["flow.failures"] += failed
        counts["flow.steps"] += steps
        for scope in ("flow", f"flow.{caller}"):
            counts[scope + ".integrations"] += 1
            counts[scope + ".rhs_evals"] += nfev
        if self.stage is not None:
            stage = self.per_stage[self.stage]
            stage["integrations"] += 1
            stage["rhs_evals"] += nfev

    # -- summaries -----------------------------------------------------------

    def span_totals(self):
        """Per span name: calls, inclusive seconds and self seconds (the
        span's time minus the time of its child spans)."""
        child_time = Counter()
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span_id, name, start, end, _ in self.spans:
            entry = totals[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
        return dict(totals)

    def stage_table(self):
        totals = self.span_totals()
        table = {}
        for stage in ("avg", "reduce", "solve", "verify", "degree"):
            entry = totals.get(f"cli.{stage}")
            if entry is None:
                continue
            counts = self.per_stage[stage]
            table[stage] = {"wall_s": entry["total_s"],
                            "integrations": counts["integrations"],
                            "rhs_evals": counts["rhs_evals"]}
        return table

    def layer_metrics(self):
        """Per-layer metric values of this pass, keyed by metric name."""
        totals = self.span_totals()
        counts, busy = self.counts, self.busy

        def total(name):
            return totals.get(name, {}).get("total_s", 0.0)

        def calls(name):
            return totals.get(name, {}).get("calls", 0)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {f"cli.{stage}_s": total(f"cli.{stage}")
               for stage in ("avg", "reduce", "solve", "verify", "degree")}
        out.update({
            "expr.compile_s": busy["expr.compile"],
            "expr.stacks_compiled": counts["expr.compile"],
            "expr.eval_calls": counts["expr.eval_all"],
            "expr.eval_us": 1e6 * ratio(busy["expr.eval_all"], counts["expr.eval_all"]),
            "tensor.apply_calls": counts["tensor.apply"],
            "tensor.apply_s": busy["tensor.apply"],
            "tensor.to_dense_calls": counts["tensor.to_dense"],
            "flow.integrations": counts["flow.integrations"],
            "flow.rhs_evals": counts["flow.rhs_evals"],
            "flow.steps": counts["flow.steps"],
            "flow.integrate_s": total("flow.solve_ivp"),
            "flow.rhs_us": 1e6 * ratio(busy["flow.rhs"], counts["flow.rhs_calls"]),
            "flow.failures": counts["flow.failures"],
        })
        for caller in FLOW_CALLERS:
            for what in ("integrations", "rhs_evals"):
                out[f"flow.{caller}.{what}"] = counts[f"flow.{caller}.{what}"]
        out.update({
            "averaging.points": counts["averaging.points"],
            "averaging.s": total("averaging.averaged_functions"),
            "averaging.lookups": counts["averaging.lookups"],
            "averaging.cache_hit_ratio": 1.0 - ratio(counts["averaging.lookup_points"],
                                                     counts["averaging.lookups"])
                                         if counts["averaging.lookups"] else 0.0,
            "lyapschmidt.reduce_s": total("lyapschmidt.reduce_chart"),
            "lyapschmidt.b_tensor_calls": calls("lyapschmidt.b_tensor"),
            "lyapschmidt.b_tensor_s": total("lyapschmidt.b_tensor"),
            "lyapschmidt.points_per_node": ratio(counts["lyapschmidt.points"],
                                                 counts["lyapschmidt.nodes"]),
            "lyapschmidt.fk_evals": counts["lyapschmidt.Fk"],
            "solver.find_branch_s": total("solver.find_branch"),
            "solver.hypotheses_s": total("solver.check_hypotheses"),
            "solver.expand_s": total("solver.expand_branch"),
            "solver.degree_s": total("solver.brouwer_degree")
                               + total("solver.degree_preservation_check"),
            "solver.nested_s": total("solver.nested_reduction"),
            "solver.branch_fail_ratio": ratio(counts["solver.branch_failed"],
                                              counts["solver.branch_eps"]),
            "verify.refine_calls": calls("verify.refine_periodic"),
            "verify.refine_s": total("verify.refine_periodic"),
            "verify.newton_iters": counts["verify.newton_iters"],
            "verify.displacement_calls": calls("verify.displacement"),
            "verify.refine_fail_ratio": ratio(counts["verify.refine_periodic.errors"],
                                              calls("verify.refine_periodic")),
            "verify.jacobian_series_s": total("verify.jacobian_series"),
        })
        return out

    def dump_spans(self):
        return {"run_id": self.run_id,
                "fields": ["span_id", "name", "start", "end", "parent_id"],
                "spans": [list(s) for s in self.spans]}
