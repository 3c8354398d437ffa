"""The avgcycle benchmark workloads.

Each workload draws its inputs from the seed, hands the library only the
generated problem text (and, for ``orbit-refine``, the initial points), runs
one operation at a time and checks the outputs against closed forms that the
acceptance tests verify, at those tests' tolerances.  The strict-xfail
reference values are never used.
"""

from __future__ import annotations

import math
import re
import time

import numpy as np

# library calls go through module attributes, so the traced run's wrappers
# (which rebind those attributes) see them
from avgcycle import cli, verify
from avgcycle.flow import IntegrationError
from avgcycle.problems import fixture_path, parse_problem_text

TWO_PI = 2.0 * math.pi
STAGE_BLOCKS = {"avg": "averaged", "reduce": "reduction", "solve": "branch",
                "verify": "verify", "degree": "degree"}


def cyl3d_branch(eps):
    """Verified zero branch of eps f1 + eps^2 f2 for the cyl3d fixture."""
    return (3 * eps + math.sqrt(9 * eps ** 2 + 16 * eps)) / 2


def _fixture_without_run(name):
    with open(fixture_path(name), encoding="utf-8") as fh:
        text = fh.read()
    return text.split("\n[run]")[0].rstrip() + "\n"


def stratified(rng, lo, hi, count, log=False):
    """One uniform draw in each of ``count`` equal bins of [lo, hi] (of
    log10 [lo, hi] with ``log``): the marginal stays uniform, while the total
    work of a draw varies less from seed to seed."""
    if log:
        return 10.0 ** stratified(rng, math.log10(lo), math.log10(hi), count)
    edges = np.linspace(lo, hi, count + 1)
    return rng.uniform(edges[:-1], edges[1:])


def _numbers(values):
    return ", ".join(repr(float(v)) for v in values)


class Tally:
    """Operations attempted and failed; each failure keeps a short reason."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)
        return ok

    def close(self, what, value, want, tol, relative=False):
        err = abs(value - want)
        if relative:
            err /= abs(want)
        return self.record(what, err <= tol, f"got {value!r}, want {want!r}, "
                                             f"err {err:.3e} > {tol:g}")

    @property
    def failed(self):
        return len(self.failures)


class Workload:
    """One named workload: seeded inputs, set-up, and a repeatable operation."""

    name = ""
    why = ""
    min_ops = 1

    def __init__(self, seed):
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.problem_text = self.generate()

    def generate(self):
        raise NotImplementedError

    def load(self):
        """The set-up a user pays once: parse and validate the problem."""
        self.problem = parse_problem_text(self.problem_text, name=self.name)

    def operate(self, index, tally):
        """Run operation ``index``; returns per-call times in ms (may be empty)."""
        raise NotImplementedError

    def _pipeline(self, stages, tally):
        report, _ = cli.run_pipeline(self.problem, stages, report_wall_time=False)
        data = report.data
        for stage in data["meta"]["stages"]:
            error = data["errors"].get(stage, "not reached")
            tally.record(f"stage {stage}", STAGE_BLOCKS[stage] in data
                         and stage not in data["errors"], error)
        return data


class Cyl3dPipeline(Workload):
    name = "cyl3d-pipeline"
    why = ("all five stages on cyl3d: cheap field with a live variational "
           "block, so reduce and solve dominate and expr is a small share")
    grid = 6
    n_eps = 5
    n_alpha = 2

    def generate(self):
        self.eps = stratified(self.rng, 1e-3, 1e-1, self.n_eps, log=True)
        # inside the chart box [0.05, 3.5], over the range the acceptance
        # tests check the closed forms on
        self.alphas = stratified(self.rng, 0.5, 3.0, self.n_alpha)
        return (_fixture_without_run("cyl3d") + "\n[run]\n"
                f"eps = {_numbers(self.eps)}\n"
                "order = 2\ntol = 1e-10\n"
                "stages = avg, reduce, solve, verify, degree\n"
                f"seed = {self.seed % 2 ** 31}\n"
                f"alpha_samples = {_numbers(self.alphas)}\n"
                f"r_grid = {self.grid}\n")

    def operate(self, index, tally):
        data = self._pipeline(None, tally)
        for sample in data.get("reduction", {}).get("samples", []):
            a = sample["alpha"][0]
            tally.close(f"f1({a:.4f})", sample["f"][0][0], math.pi * a ** 3 / 2,
                        1e-6, relative=True)
            tally.close(f"f2({a:.4f})", sample["f"][1][0],
                        -math.pi * a * (3 * a + 4) / 2, 1e-6, relative=True)
        branch = {row["eps"]: row for row in data.get("branch", {}).get("table", [])}
        orbits = {row["eps"]: row for row in data.get("verify", {}).get("orbits", [])}
        for eps in self.eps:
            row = branch.get(eps)
            if tally.record(f"solve eps={eps:.4g}", row is not None, "no branch point"):
                tally.close(f"a_eps({eps:.4g})", row["a_eps"][0], cyl3d_branch(eps), 1e-8)
                tally.close(f"det_delta({eps:.4g})", row["det_delta"],
                            1 - math.exp(-TWO_PI), 1e-9)
            orbit = orbits.get(eps)
            if tally.record(f"verify eps={eps:.4g}", orbit is not None, "no orbit"):
                tally.record(f"residual({eps:.4g})", orbit["residual"] <= 1e-9,
                             f"{orbit['residual']:.3e} > 1e-9")
        for cert in data.get("degree", {}).get("certificates", []):
            tally.record(f"degree({cert['eps']:.4g})", cert.get("degree") == 1,
                         str(cert.get("error", cert.get("degree"))))
        return []


class MaxwellBlochReduce(Workload):
    name = "mb-reduce"
    why = ("avg + nested reduce of Maxwell-Bloch at k=3: heavy expressions and "
           "F0 = 0, so expr and the finite-difference b-partials dominate")
    grid = 2

    def generate(self):
        # the signs of the fixture's values are kept, so the root
        # alpha_0 = omega sqrt(2 (a2 + b2) / a0) stays inside the box [0.5, 6]
        a2 = self.rng.uniform(-2.5, -1.5)
        b2 = self.rng.uniform(-2.5, -1.5)
        c1 = self.rng.uniform(1.5, 2.5)
        text = _fixture_without_run("maxwell_bloch")
        for key, value in (("a2", a2), ("b2", b2), ("c1", c1)):
            text, hits = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value!r}", text)
            if hits != 1:
                raise ValueError(f"maxwell_bloch fixture has no single '{key} =' line")
        self.params = dict(a0=-1.0, a2=a2, b2=b2, c1=c1, omega=1.0)
        # the nested chart samples the range the acceptance test checks f1 on
        self.alpha = self.rng.uniform(1.0, 3.2)
        return (text + "\n[run]\n"
                "order = 3\ntol = 1e-10\nstages = avg, reduce\n"
                f"seed = {self.seed % 2 ** 31}\n"
                f"alpha_samples = {self.alpha!r}\n"
                f"r_grid = {self.grid}\n")

    def operate(self, index, tally):
        data = self._pipeline(("reduce",), tally)
        p = self.params
        a0, c1, om = p["a0"], p["c1"], p["omega"]
        B = p["a2"] + p["b2"]
        for point in data.get("averaged", {}).get("points", []):
            r, w = point["z"]
            want = (0.0, -TWO_PI * (2 * a0 * r ** 2 + c1 * w) / om)
            for comp in range(2):
                tally.close(f"g1[{comp}]({r:.4f})", point["g"][1][comp], want[comp], 1e-8)
        red = data.get("reduction")
        if red is None:
            return []
        tally.record("first nonzero order", red["first_nonzero_order"] == 1,
                     str(red["first_nonzero_order"]))
        for sample in red["samples"]:
            a = sample["alpha"][0]
            want = math.pi * a * (a0 * a ** 2 - 2 * B * om ** 2) / (2 * om ** 3)
            err = abs(sample["f"][0][0] - want) / max(abs(want), 1.0)
            tally.record(f"nested f1({a:.4f})", err <= 1e-7, f"rel err {err:.3e} > 1e-7")
        # Delta = -2 pi c1 / omega on every node; the report keeps min |det|
        tally.close("|Delta|", red["min_abs_det_delta"], TWO_PI * c1 / om, 1e-9)
        return []


class OrbitRefine(Workload):
    name = "orbit-refine"
    why = ("closed loop of refine_periodic on cyl3d: variational full-field "
           "integrations and Newton only; never touches averaging or reduce")
    batch = 25
    min_ops = 4          # >= 100 orbits, so the p90 tail has >= 10 beyond it
    pool = 400

    def generate(self):
        eps = np.concatenate([stratified(self.rng, 1e-3, 1e-1, self.batch, log=True)
                              for _ in range(self.pool // self.batch)])
        offset = self.rng.uniform(-0.02, 0.02, self.pool)
        w0 = self.rng.uniform(-1e-3, 1e-3, self.pool)
        self.starts = [(e, np.array([cyl3d_branch(e) * (1 + o), w]))
                       for e, o, w in zip(eps, offset, w0)]
        return _fixture_without_run("cyl3d")

    def load(self):
        super().load()
        self.series = self.problem.series()
        # compile the field stacks once, as a user refining many orbits would
        verify.refine_periodic(self.series, self.starts[0][1], self.starts[0][0])

    def operate(self, index, tally):
        first = (index * self.batch) % self.pool
        times, eps_ok, amp_err = [], [], []
        for eps, z0 in self.starts[first:first + self.batch]:
            t0 = time.perf_counter()
            try:
                orbit = verify.refine_periodic(self.series, z0, eps)
            except (verify.RefinementError, IntegrationError) as exc:
                times.append(1e3 * (time.perf_counter() - t0))
                tally.record(f"refine eps={eps:.4g}", False, str(exc))
                continue
            times.append(1e3 * (time.perf_counter() - t0))
            tally.record(f"refine eps={eps:.4g}", True)
            tally.record(f"residual({eps:.4g})", orbit.residual <= 1e-9,
                         f"{orbit.residual:.3e} > 1e-9")
            eps_ok.append(eps)
            amp_err.append(abs(orbit.z[0] - cyl3d_branch(eps)))
        # the O(eps) amplitude law around the verified branch, as the
        # acceptance test states it: log-log slope >= 0.7
        if len(eps_ok) >= 3 and min(amp_err) > 0.0:
            slope = np.polyfit(np.log(eps_ok), np.log(amp_err), 1)[0]
            tally.record("amplitude law", slope >= 0.7, f"slope {slope:.3f} < 0.7")
        else:
            tally.record("amplitude law", False, "too few refined orbits")
        return times


WORKLOADS = {cls.name: cls for cls in (Cyl3dPipeline, MaxwellBlochReduce, OrbitRefine)}
