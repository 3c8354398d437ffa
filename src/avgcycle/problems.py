"""Problem files: plain sectioned text describing a system, chart and run.

The format is deliberately small so it can be audited by eye::

    # a '#' starts a comment, here or after a value or a section header
    [system]
    dim = 2
    period = 2*pi
    order = 2
    state = r, w
    time = t
    coordinate_order = r, w        # optional permutation; chart coords first

    [params]                       # optional
    a0 = -1

    [fields]                       # component expressions, comma separated;
    F0 = 0, w                      # indented lines continue the previous value
    F1 = ..., ...

    [manifold]                     # optional
    m = 1
    alpha = r
    beta = 0                       # n-m expressions over the alpha variables
    box = 0.05, 4.0                # per chart dimension: lo, hi; dims split by ';'
    nested_order = 1               # optional: re-reduce after dividing by eps^r

    [run]                          # optional
    eps = logrange(1e-3, 1e-1, 17) # or an explicit comma list
    order = 2
    tol = 1e-10
    stages = avg, reduce, solve, verify
    seed = 0
    alpha_samples = 0.5, 1.0

Numeric values are parsed with the expression grammar (so ``2*pi`` works).
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import expr as ex
from .lyapschmidt import ManifoldChart

__all__ = ["Problem", "ProblemError", "parse_problem_text", "load_problem",
           "fixture_path", "load_fixture"]

STAGES = ("avg", "reduce", "solve", "verify", "degree")   # in pipeline order
# the keys each section may hold; None: any ([fields] checks its own)
_SECTIONS = {
    "system": ("dim", "period", "order", "state", "time", "coordinate_order"),
    "params": None, "fields": None,
    "manifold": ("m", "alpha", "beta", "box", "nested_order"),
    "run": ("eps", "order", "tol", "stages", "seed", "alpha_samples", "r_grid"),
}


class ProblemError(ValueError):
    """Validation failure; carries the section and key it happened in."""

    def __init__(self, section, key, message):
        super().__init__(f"[{section}] {key}: {message}")
        self.section = section
        self.key = key


def _parse_sections(text):
    sections = {}
    current = None
    last_key = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # a comment runs to the end of its line; no expression contains '#'
        line = raw.partition("#")[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip().lower()
            if current in sections:
                raise ProblemError(current, "-", f"duplicate section (line {lineno})")
            sections[current] = {}
            last_key = None
            continue
        if current is None:
            raise ProblemError("-", "-", f"content before any section (line {lineno})")
        if line[0] in " \t" and last_key is not None:
            sections[current][last_key] += " " + stripped
            continue
        if "=" not in stripped:
            raise ProblemError(current, "-", f"expected 'key = value' (line {lineno})")
        key, _, value = stripped.partition("=")
        key = key.strip().lower()
        if key in sections[current]:
            raise ProblemError(current, key, f"duplicate key (line {lineno})")
        sections[current][key] = value.strip()
        last_key = key
    return sections


def _evaluate(text, section, key):
    try:
        return ex.evaluate(ex.parse(text, ex.Declarations(state=("_",))), 0.0, [0.0], {})
    except Exception as exc:
        raise ProblemError(section, key, f"not a number: {exc}")


def _number(text, section, key):
    value = _evaluate(text, section, key)
    if not np.isfinite(value):
        raise ProblemError(section, key, f"not a finite number: {value!r}")
    return value


def _integer(text, section, key):
    value = _evaluate(text, section, key)
    if not float(value).is_integer():
        raise ProblemError(section, key, f"not an integer: {value!r}")
    return int(value)


def _name_list(text):
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _split_exprs(text):
    """Split a comma-separated expression list, respecting parentheses."""
    parts, depth, buf = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(buf).strip())
            buf = []
        else:
            buf.append(ch)
    tail = "".join(buf).strip()
    if tail:
        parts.append(tail)
    return parts


def _eps_grid(text, section="run", key="eps"):
    text = text.strip()
    if text.startswith("logrange"):
        inner = text[len("logrange"):].strip()
        if not (inner.startswith("(") and inner.endswith(")")):
            raise ProblemError(section, key, "logrange needs (lo, hi, count)")
        parts = _split_exprs(inner[1:-1])
        if len(parts) != 3:
            raise ProblemError(section, key, "logrange needs 3 arguments")
        lo = _number(parts[0], section, key)
        hi = _number(parts[1], section, key)
        count = _integer(parts[2], section, key)
        if lo <= 0 or hi <= lo or count < 2:
            raise ProblemError(section, key, "need 0 < lo < hi and count >= 2")
        return np.geomspace(lo, hi, count)
    vals = np.array([_number(p, section, key) for p in _split_exprs(text)])
    if vals.size == 0:
        raise ProblemError(section, key, "empty grid")
    return vals


@dataclass
class RunSpec:
    eps: np.ndarray
    order: int
    tol: float
    stages: tuple
    seed: int
    alpha_samples: np.ndarray
    r_grid: int = 64

    def check(self, order, manifold=None):
        """Range checks of the run settings, for a series of ``order`` and
        the problem's ``manifold`` section; the parser runs them, and the
        command line again once its flags are set.  An eps of 0 is refused,
        as F(., 0) vanishes identically; a negative one is not."""
        if np.any(np.asarray(self.eps) == 0):
            raise ProblemError("run", "eps", "every eps must be nonzero")
        if not 1 <= self.order <= order:
            raise ProblemError("run", "order", f"need 1 <= order <= {order}")
        # --tol is a float from the command line, where "inf" parses
        if not 0 < self.tol < float("inf"):
            raise ProblemError("run", "tol", "must be positive and finite")
        for s in self.stages:
            if s not in STAGES:
                raise ProblemError("run", "stages", f"unknown stage '{s}'")
        if self.seed < 0:
            raise ProblemError("run", "seed", "must be non-negative")
        if self.r_grid < 1:
            raise ProblemError("run", "r_grid", "need at least one grid node")
        if manifold is not None:
            # each sample is a point of the m-dimensional chart
            if self.alpha_samples.size % manifold["m"]:
                raise ProblemError("run", "alpha_samples",
                                   f"expected a multiple of m = {manifold['m']} values, "
                                   f"got {self.alpha_samples.size}")
            if manifold.get("nested_order", 0) >= self.order:
                raise ProblemError("manifold", "nested_order",
                                   f"need nested_order below the run order {self.order}")


@dataclass
class Problem:
    """Validated problem file: its series and chart, each parsed once at
    load time, and the run settings.  Every run of the problem shares them,
    and with them their compiled right-hand sides."""

    _series: ex.VectorFieldSeries
    _chart: ManifoldChart | None
    manifold: dict | None
    run: RunSpec
    name: str = "problem"

    def series(self):
        return self._series

    def chart(self):
        if self._chart is None:
            raise ProblemError("manifold", "-", "problem declares no manifold")
        return self._chart

    @property
    def nested_order(self):
        return self.manifold.get("nested_order") if self.manifold else None


def parse_problem_text(text, name="problem"):
    sec = _parse_sections(text)
    for section, entries in sec.items():
        if section not in _SECTIONS:
            raise ProblemError(section, "-", "unknown section")
        unknown = sorted(set(entries) - set(_SECTIONS[section] or entries))
        if unknown:
            raise ProblemError(section, unknown[0], "unknown key")
    if "system" not in sec:
        raise ProblemError("system", "-", "missing [system] section")
    sys_sec = sec["system"]
    for key in ("dim", "period", "order", "state"):
        if key not in sys_sec:
            raise ProblemError("system", key, "missing required key")
    dim = _integer(sys_sec["dim"], "system", "dim")
    period = _number(sys_sec["period"], "system", "period")
    order = _integer(sys_sec["order"], "system", "order")
    state = _name_list(sys_sec["state"])
    time = sys_sec.get("time", "t")
    if len(state) != dim:
        raise ProblemError("system", "state", f"expected {dim} names, got {len(state)}")
    if period <= 0:
        raise ProblemError("system", "period", "period must be positive")
    if order < 1:
        raise ProblemError("system", "order", "order must be >= 1")

    params = {}
    for key, val in sec.get("params", {}).items():
        params[key] = _number(val, "params", key)

    if "fields" not in sec:
        raise ProblemError("fields", "-", "missing [fields] section")
    fields = []
    for i in range(order + 1):
        key = f"f{i}"
        if key not in sec["fields"]:
            raise ProblemError("fields", f"F{i}", "missing field")
        comps = _split_exprs(sec["fields"][key])
        if len(comps) != dim:
            raise ProblemError("fields", f"F{i}",
                               f"expected {dim} components, got {len(comps)}")
        fields.append(comps)
    extras = set(sec["fields"]) - {f"f{i}" for i in range(order + 1)}
    if extras:
        raise ProblemError("fields", ",".join(sorted(extras)),
                           "field index exceeds the declared order")

    # optional coordinate permutation: chart coordinates must come first
    if "coordinate_order" in sys_sec:
        perm_names = _name_list(sys_sec["coordinate_order"])
        if sorted(perm_names) != sorted(state):
            raise ProblemError("system", "coordinate_order",
                               "must be a permutation of the state names")
        perm = [state.index(nm) for nm in perm_names]
        state = perm_names
        fields = [[comps[j] for j in perm] for comps in fields]

    manifold = None
    if "manifold" in sec:
        man_sec = sec["manifold"]
        for key in ("m", "box"):
            if key not in man_sec:
                raise ProblemError("manifold", key, "missing required key")
        m = _integer(man_sec["m"], "manifold", "m")
        if not 1 <= m <= dim:
            raise ProblemError("manifold", "m", f"need 1 <= m <= {dim}")
        alpha = _name_list(man_sec.get("alpha", ",".join(state[:m])))
        if len(alpha) != m:
            raise ProblemError("manifold", "alpha", f"expected {m} names")
        if tuple(alpha) != tuple(state[:m]):
            raise ProblemError("manifold", "alpha",
                               "chart variables must be the leading state "
                               "variables (use coordinate_order to permute)")
        beta = _split_exprs(man_sec["beta"]) if "beta" in man_sec else []
        if len(beta) != dim - m:
            raise ProblemError("manifold", "beta",
                               f"expected {dim - m} expressions, got {len(beta)}")
        rows = [r for r in man_sec["box"].split(";") if r.strip()]
        if len(rows) != m:
            raise ProblemError("manifold", "box", f"expected {m} dimension rows")
        box = []
        for row in rows:
            pair = _split_exprs(row)
            if len(pair) != 2:
                raise ProblemError("manifold", "box", "each row is 'lo, hi'")
            box.append([_number(pair[0], "manifold", "box"),
                        _number(pair[1], "manifold", "box")])
        manifold = {"m": m, "alpha": alpha, "beta": beta, "box": np.array(box)}
        if "nested_order" in man_sec:
            manifold["nested_order"] = _integer(man_sec["nested_order"],
                                                "manifold", "nested_order")
            if manifold["nested_order"] < 1:
                raise ProblemError("manifold", "nested_order", "need nested_order >= 1")

    run_sec = sec.get("run", {})
    eps = _eps_grid(run_sec["eps"]) if "eps" in run_sec else np.geomspace(1e-3, 1e-1, 17)
    run_order = _integer(run_sec["order"], "run", "order") if "order" in run_sec else order
    tol = _number(run_sec["tol"], "run", "tol") if "tol" in run_sec else 1e-10
    stages = tuple(s.strip().lower() for s in run_sec.get("stages", "avg, reduce, solve, verify").split(","))
    seed = _integer(run_sec["seed"], "run", "seed") if "seed" in run_sec else 0
    alpha_samples = (_eps_grid(run_sec["alpha_samples"], "run", "alpha_samples")
                     if "alpha_samples" in run_sec else np.array([]))
    r_grid = _integer(run_sec["r_grid"], "run", "r_grid") if "r_grid" in run_sec else 64
    run = RunSpec(eps=eps, order=run_order, tol=tol, stages=stages, seed=seed,
                  alpha_samples=alpha_samples, r_grid=r_grid)
    run.check(order, manifold)

    # parse every expression once, so errors surface at load time
    try:
        series = ex.VectorFieldSeries.from_strings(state, fields, period, params,
                                                   time=time)
        chart = None if manifold is None else ManifoldChart.from_strings(
            manifold["alpha"], manifold["beta"], manifold["box"], dim, params=params)
    except Exception as exc:
        raise ProblemError("fields/manifold", "-", f"expression error: {exc}")
    return Problem(_series=series, _chart=chart, manifold=manifold, run=run, name=name)


def load_problem(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    import os
    return parse_problem_text(text, name=os.path.splitext(os.path.basename(path))[0])


def fixture_path(name):
    """Filesystem path of a shipped fixture problem file."""
    if not name.endswith(".prob"):
        name += ".prob"
    return str(resources.files("avgcycle").joinpath("fixtures", name))


def load_fixture(name):
    return load_problem(fixture_path(name))
