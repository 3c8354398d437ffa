import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import avgcycle
from avgcycle.cli import RunReport, emit_csv, emit_svg, emit_text, main, run_pipeline
from avgcycle.problems import ProblemError, load_fixture, parse_problem_text
from oracles import eval_field

SMALL_PROBLEM = """
[system]
dim = 2
period = 2*pi
order = 2
state = r, w
time = t

[fields]
F0 = 0, w
F1 = 1 - r + 0.1*cos(t), -cos(t)*r
F2 = 0.25*r, 0.1*sin(t)

[manifold]
m = 1
alpha = r
beta = 0
box = 0.2, 2.5

[run]
eps = 1e-3, 1e-2, 5e-2
order = 2
tol = 1e-10
stages = avg, reduce, solve, verify, degree
seed = 0
r_grid = 8
alpha_samples = 0.8, 1.2
"""


@pytest.fixture(scope="module")
def small_problem():
    return parse_problem_text(SMALL_PROBLEM, name="small")


@pytest.fixture(scope="module")
def small_report(small_problem):
    report, code = run_pipeline(small_problem)
    assert code == 0, report.data.get("errors")
    return report


def test_validation_missing_fields_section():
    bad = SMALL_PROBLEM.replace("[fields]", "[fileds]")
    with pytest.raises(ProblemError) as err:
        parse_problem_text(bad)
    assert "fields" in str(err.value) or "fileds" in str(err.value)


def test_validation_component_count():
    bad = SMALL_PROBLEM.replace("F2 = 0.25*r, 0.1*sin(t)", "F2 = 0.25*r")
    with pytest.raises(ProblemError) as err:
        parse_problem_text(bad)
    assert "F2" in str(err.value)


def test_validation_manifold_beta_count():
    bad = SMALL_PROBLEM.replace("beta = 0", "beta = 0, 1")
    with pytest.raises(ProblemError) as err:
        parse_problem_text(bad)
    assert "beta" in str(err.value)


def test_validation_unknown_stage():
    bad = SMALL_PROBLEM.replace("stages = avg, reduce, solve, verify, degree",
                                "stages = avg, fly")
    with pytest.raises(ProblemError):
        parse_problem_text(bad)


def test_validation_undeclared_identifier_in_field():
    bad = SMALL_PROBLEM.replace("F2 = 0.25*r, 0.1*sin(t)",
                                "F2 = 0.25*q, 0.1*sin(t)")
    with pytest.raises(ProblemError):
        parse_problem_text(bad)


def test_coordinate_order_permutes_fields():
    text = SMALL_PROBLEM.replace("state = r, w",
                                 "state = w, r\ncoordinate_order = r, w")
    text = text.replace("F0 = 0, w", "F0 = w, 0")
    text = text.replace("F1 = 1 - r + 0.1*cos(t), -cos(t)*r",
                        "F1 = -cos(t)*r, 1 - r + 0.1*cos(t)")
    text = text.replace("F2 = 0.25*r, 0.1*sin(t)", "F2 = 0.1*sin(t), 0.25*r")
    prob = parse_problem_text(text)
    assert prob.series().decls.state == ("r", "w")
    series = prob.series()
    val = eval_field(series, 1, 0.0, [1.0, 3.0])
    assert val[0] == pytest.approx(0.1)      # 1 - r + 0.1 cos(0) at r=1
    assert val[1] == pytest.approx(-1.0)


def test_validation_duplicate_key():
    bad = SMALL_PROBLEM.replace("period = 2*pi", "period = 2*pi\nperiod = 1")
    with pytest.raises(ProblemError):
        parse_problem_text(bad)


def test_validation_content_before_section():
    with pytest.raises(ProblemError):
        parse_problem_text("dim = 2\n[system]\n")


@pytest.mark.parametrize("line, bad", [
    ("tol = 1e-10", "tol = 0"), ("tol = 1e-10", "tol = -1"), ("tol = 1e-10", "tol = 1e400"),
    ("r_grid = 8", "r_grid = 0"), ("r_grid = 8", "r_grid = -4"),
    ("r_grid = 8", "r_grid = 2.5"), ("r_grid = 8", "r_grid = 1e400"),
    ("seed = 0", "seed = -1"), ("seed = 0", "seed = 2.7"), ("seed = 0", "seed = 1e400"),
    ("order = 2\ntol", "order = 2.5\ntol"),
    ("eps = 1e-3, 1e-2, 5e-2", "eps = 0, 0.01, 0.02")])
def test_validation_run_values(line, bad):
    # caught at load, before any stage runs: an empty reduction grid would
    # otherwise report that every bifurcation function vanishes
    with pytest.raises(ProblemError) as err:
        parse_problem_text(SMALL_PROBLEM.replace(line, bad))
    assert err.value.section == "run" and err.value.key == bad.split()[0]


@pytest.mark.parametrize("line, bad, section, key", [
    ("dim = 2", "dim = 2.5", "system", "dim"),
    ("period = 2*pi\norder = 2", "period = 2*pi\norder = 1e400", "system", "order"),
    ("m = 1", "m = 0.5", "manifold", "m"),
    ("box = 0.2, 2.5", "box = 0.2, 2.5\nnested_order = 1.5", "manifold", "nested_order"),
    ("eps = 1e-3, 1e-2, 5e-2", "eps = logrange(1e-3, 1e-1, 4.5)", "run", "eps")])
def test_validation_integer_values(line, bad, section, key):
    # a count or an order must be a finite integral number: int() would
    # truncate 2.5 and overflow on 1e400
    with pytest.raises(ProblemError, match="not an integer") as err:
        parse_problem_text(SMALL_PROBLEM.replace(line, bad))
    assert (err.value.section, err.value.key) == (section, key)


def test_validation_unknown_system_key():
    # a misspelled key would otherwise fall back to its default silently
    with pytest.raises(ProblemError, match="unknown key") as err:
        parse_problem_text(SMALL_PROBLEM.replace("period = 2*pi",
                                                 "period = 2*pi\nperoid = 1"))
    assert (err.value.section, err.value.key) == ("system", "peroid")


def test_validation_unknown_manifold_key():
    with pytest.raises(ProblemError, match="unknown key") as err:
        parse_problem_text(SMALL_PROBLEM.replace("box = 0.2, 2.5",
                                                 "box = 0.2, 2.5\nnested_ordr = 1"))
    assert (err.value.section, err.value.key) == ("manifold", "nested_ordr")


def test_validation_unknown_run_key():
    with pytest.raises(ProblemError, match="unknown key") as err:
        parse_problem_text(SMALL_PROBLEM.replace("tol = 1e-10", "tl = 1e-6"))
    assert (err.value.section, err.value.key) == ("run", "tl")


def test_validation_unknown_section():
    with pytest.raises(ProblemError, match="unknown section") as err:
        parse_problem_text(SMALL_PROBLEM + "\n[rnu]\ntol = 1e-6\n")
    assert err.value.section == "rnu"


def test_validation_params_names_are_free():
    prob = parse_problem_text(SMALL_PROBLEM.replace("[fields]",
                                                    "[params]\nperoid = 1\n\n[fields]"))
    assert prob.run.tol == 1e-10


@pytest.mark.parametrize("line, bad, section, key", [
    ("period = 2*pi", "period = 1e400", "system", "period"),
    ("[fields]", "[params]\na0 = 1e400\n\n[fields]", "params", "a0"),
    ("box = 0.2, 2.5", "box = 0.2, 1e400", "manifold", "box"),
    ("eps = 1e-3, 1e-2, 5e-2", "eps = 1e400, 0.01", "run", "eps"),
    ("eps = 1e-3, 1e-2, 5e-2", "eps = logrange(1e-3, 1e400, 5)", "run", "eps"),
    ("alpha_samples = 0.8, 1.2", "alpha_samples = 0.8, -1e400", "run", "alpha_samples"),
    ("tol = 1e-10", "tol = 1e400", "run", "tol"),
    ("tol = 1e-10", "tol = 1e400 - 1e400", "run", "tol")])
def test_validation_non_finite_numbers(line, bad, section, key):
    # refused at load: an infinite period used to run out the step budget,
    # an infinite eps to pass avg and fail solve, and an infinite box bound
    # or sample to fail avg
    with pytest.raises(ProblemError, match="not a finite number") as err:
        parse_problem_text(SMALL_PROBLEM.replace(line, bad))
    assert (err.value.section, err.value.key) == (section, key)


@pytest.mark.parametrize("value", ["0", "-1"])
def test_validation_nested_order_below_one(value):
    # 0 would skip the chart checks that only an unset nested_order skips
    with pytest.raises(ProblemError, match="nested_order >= 1"):
        parse_problem_text(SMALL_PROBLEM.replace(
            "box = 0.2, 2.5", f"box = 0.2, 2.5\nnested_order = {value}"))


@pytest.mark.parametrize("flag", [("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"),
                                  ("--seed", "-1"), ("--order", "0"), ("--order", "3"),
                                  ("--eps", "1e400, 0.01"), ("--eps", "0, 0.01")])
def test_main_rejects_bad_tol_and_seed(tmp_path, capsys, flag):
    path = tmp_path / "small.prob"
    path.write_text(SMALL_PROBLEM)
    assert main(["avg", "--problem", str(path), *flag]) == 2
    assert f"[run] {flag[0][2:]}:" in capsys.readouterr().err


def test_negative_eps_is_accepted():
    # the persistence results ask only |eps| != 0
    prob = parse_problem_text(SMALL_PROBLEM.replace(
        "eps = 1e-3, 1e-2, 5e-2", "eps = -1e-2, 1e-2"))
    assert list(prob.run.eps) == [-1e-2, 1e-2]


def test_readme_problem_file_parses():
    # the README's example, inline comments and all, is a valid problem file
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    prob = parse_problem_text(text, name="readme")
    assert prob.series().order == 2 and prob.run.stages[-1] == "degree"
    assert prob.manifold["box"].tolist() == [[0.05, 3.5]]


def test_eps_logrange_parsing():
    prob = parse_problem_text(SMALL_PROBLEM.replace(
        "eps = 1e-3, 1e-2, 5e-2", "eps = logrange(1e-3, 1e-1, 5)"))
    assert prob.run.eps == pytest.approx(np.geomspace(1e-3, 1e-1, 5))


def test_pipeline_report_structure(small_report):
    d = small_report.data
    assert d["meta"]["problem"] == "small"
    assert "averaged" in d and "reduction" in d and "branch" in d
    assert "hypotheses" in d and "verify" in d and "degree" in d
    assert d["reduction"]["first_nonzero_order"] == 1
    assert len(d["branch"]["table"]) == 3
    assert d["verify"]["orbits"]
    assert not d["errors"]


def test_verify_rows_count_integrations(small_problem, monkeypatch):
    # each orbit row carries the displacement integrations of its refinement
    from avgcycle import verify
    calls = []
    real = verify.displacement
    monkeypatch.setattr(verify, "displacement",
                        lambda *args: calls.append(args[1]) or real(*args))
    report, code = run_pipeline(small_problem, stages=("verify",))
    assert code == 0, report.data.get("errors")
    rows = report.data["verify"]["orbits"]
    assert len(rows) == 3 and not report.data["verify"]["failed"]
    assert all(row["integrations"] > row["iterations"] for row in rows)
    assert sum(row["integrations"] for row in rows) == len(calls)


def test_pipeline_small_branch_value(small_report):
    # f1(alpha) = 2 pi (1 - alpha): root at alpha = 1 + O(eps)
    row = small_report.data["branch"]["table"][0]
    assert row["a_eps"][0] == pytest.approx(1.0, abs=0.05)


def test_report_round_trip(small_report):
    back = RunReport.from_json(small_report.to_json())
    assert back == small_report


def test_csv_emission_and_determinism(small_report, tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    files1 = emit_csv(small_report, str(d1))
    files2 = emit_csv(small_report, str(d2))
    assert files1 and len(files1) == len(files2)
    for f1, f2 in zip(files1, files2):
        assert Path(f1).read_bytes() == Path(f2).read_bytes()
    branch = (d1 / "branch.csv").read_text().splitlines()
    assert branch[0] == "eps,a_eps,residual,det_delta,l_fit"
    assert len(branch) == 4


def test_csv_empty_stage_header_only(tmp_path):
    report = RunReport({"branch": {"table": [], "failed": []}})
    emit_csv(report, str(tmp_path))
    lines = (tmp_path / "branch.csv").read_text().splitlines()
    assert lines == ["eps,a_eps,residual,det_delta,l_fit"]


def test_svg_emission(small_report, small_problem, tmp_path):
    files = emit_svg(small_report, str(tmp_path), small_problem)
    assert files
    for path in files:
        text = Path(path).read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")


LINE_PROBLEM = """
[system]
dim = 1
period = 2*pi
order = 2
state = x

[fields]
F0 = 0
F1 = x - x^3
F2 = 0.1*x*cos(t)

[manifold]
m = 1
box = 0.5, 1.5

[run]
eps = 0.001, 0.01, 0.05
"""


def _svg_pipeline(tmp_path, text):
    """``avgcycle pipeline --format svg`` on the problem ``text``: its exit
    code and the output directory."""
    path = tmp_path / "problem.prob"
    path.write_text(text)
    out = tmp_path / "out"
    return main(["pipeline", "--problem", str(path), "--out", str(out),
                 "--format", "svg"]), out


def test_svg_emission_one_dimensional(tmp_path):
    # n = 1: the return map is drawn as (z_j, z_j+1), the orbit against t
    code, out = _svg_pipeline(tmp_path, LINE_PROBLEM)
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "branch.svg", "report.json", "section.svg", "trajectory.svg"]
    assert ">t</text>" in (out / "trajectory.svg").read_text()


ESCAPE_PROBLEM = """
[system]
dim = 1
period = 2*pi
order = 1
state = x

[fields]
F0 = 0
F1 = x^2 - 1

[manifold]
m = 1
box = 0.5, 1.5

[run]
eps = 0.01, 0.05, 0.1
"""


def test_svg_emission_stops_the_return_map_where_it_cannot_integrate(tmp_path):
    # x' = eps (x^2 - 1): the eps = 0.1 orbit at x = 1 is unstable, and the
    # second iterate of the return map from x = 1.2 blows up within a period;
    # the section plots the iterates before it
    code, out = _svg_pipeline(tmp_path, ESCAPE_PROBLEM)
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "branch.svg", "report.json", "section.svg", "trajectory.svg"]


def test_text_emission(small_report, capsys):
    emit_text(small_report)
    out = capsys.readouterr().out
    assert "branch: 3 roots" in out
    assert "verified orbits" in out


def test_text_emission_eps_range_of_an_unsorted_grid():
    rows = [{"eps": e, "residual": 1e-12} for e in (0.02, 0.01, 0.03)]
    stream = io.StringIO()
    emit_text(RunReport({"branch": {"table": rows}}), stream)
    assert "eps in [0.01, 0.03]" in stream.getvalue()


def test_pipeline_stage_closure(small_problem):
    report, code = run_pipeline(small_problem, stages=("solve",))
    assert code == 0
    assert "averaged" in report.data and "reduction" in report.data
    assert "verify" not in report.data


def test_stage_failure_reported(small_problem, tmp_path):
    text = SMALL_PROBLEM.replace("box = 0.2, 2.5", "box = 1.8, 2.5")
    prob = parse_problem_text(text, name="nobranch")
    report, code = run_pipeline(prob)
    assert code == 3
    assert "solve" in report.data["errors"]
    assert "reduction" in report.data     # partial results retained


def test_one_point_branch_refuses_fit_and_keeps_roots(tmp_path):
    # r = 1 < k = 2, so l needs a slope, which one eps cannot give
    text = SMALL_PROBLEM.replace("eps = 1e-3, 1e-2, 5e-2", "eps = 1e-2")
    report, code = run_pipeline(parse_problem_text(text, name="onepoint"),
                                stages=("solve",))
    assert code == 3
    assert report.data["errors"]["solve"].startswith("BranchError")
    assert "has 1" in report.data["errors"]["solve"]
    assert len(report.data["branch"]["table"]) == 1
    assert "z0" in report.data["expansion"]     # the expansion needs no l
    emit_csv(report, str(tmp_path))
    rows = (tmp_path / "branch.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].endswith(",")


def test_one_point_corollary_records_no_fit(tmp_path):
    # k = 1 with a simple root: l = k without a fit, written as null
    text = (SMALL_PROBLEM.replace("eps = 1e-3, 1e-2, 5e-2", "eps = 1e-2")
            .replace("order = 2\ntol", "order = 1\ntol"))
    report, code = run_pipeline(parse_problem_text(text, name="onepoint"),
                                stages=("solve",))
    assert code == 0, report.data.get("errors")
    assert report.data["hypotheses"]["corollary_fast_path"]
    assert report.data["hypotheses"]["l_fit"] is None
    assert '"l_fit": null' in report.to_json()
    assert RunReport.from_json(report.to_json()) == report
    emit_csv(report, str(tmp_path))
    rows = (tmp_path / "branch.csv").read_text().splitlines()
    assert len(rows) == 2 and rows[1].endswith(",")
    emit_text(report, io.StringIO())


def test_main_end_to_end(tmp_path, capsys):
    path = tmp_path / "small.prob"
    path.write_text(SMALL_PROBLEM)
    out = tmp_path / "out"
    code = main(["pipeline", "--problem", str(path), "--out", str(out),
                 "--format", "csv", "--eps", "1e-2, 5e-2"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["branch"]["table"]) == 2
    assert (out / "branch.csv").exists()


def test_main_validation_exit_code(tmp_path):
    path = tmp_path / "bad.prob"
    path.write_text("[system]\ndim = 2\n")
    assert main(["avg", "--problem", str(path)]) == 2


def test_main_missing_file():
    assert main(["avg", "--problem", "/nonexistent/x.prob"]) == 2


def test_main_single_stage(tmp_path, capsys):
    path = tmp_path / "small.prob"
    path.write_text(SMALL_PROBLEM)
    code = main(["avg", "--problem", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "avgcycle" in out


def test_fixture_problems_load():
    for name in ("cyl3d", "maxwell_bloch"):
        prob = load_fixture(name)
        assert prob.series().dim == 2
        assert prob.run.stages


def test_csv_determinism_across_pipeline_runs(tmp_path):
    prob1 = parse_problem_text(SMALL_PROBLEM, name="small")
    prob2 = parse_problem_text(SMALL_PROBLEM, name="small")
    r1, _ = run_pipeline(prob1, report_wall_time=False)
    r2, _ = run_pipeline(prob2, report_wall_time=False)
    assert r1 == r2
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for f1, f2 in zip(emit_csv(r1, str(d1)), emit_csv(r2, str(d2))):
        assert Path(f1).read_bytes() == Path(f2).read_bytes()


def test_second_run_parses_and_compiles_nothing(monkeypatch):
    from avgcycle import expr, flow
    prob = parse_problem_text(SMALL_PROBLEM, name="small")
    first, code = run_pipeline(prob, report_wall_time=False)
    assert code == 0, first.data.get("errors")
    calls = []
    for module, name in ((expr, "parse"), (flow, "compile_jet"), (expr, "_assemble")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, _name=name, _fn=original, **k:
                            calls.append(_name) or _fn(*a, **k))
    second, code = run_pipeline(prob, report_wall_time=False)
    assert code == 0
    assert calls == []
    assert second == first
    assert prob.series() is prob.series() and prob.chart() is prob.chart()


def test_mb_fixture_avg_reduce_stages():
    # averaging plus nested reduction only: g samples and reduced-f samples
    # appear, no branch or orbit tables
    prob = load_fixture("maxwell_bloch")
    prob.run.r_grid = 8
    report, code = run_pipeline(prob, stages=("reduce",))
    assert code == 0, report.data.get("errors")
    d = report.data
    assert "branch" not in d and "verify" not in d
    assert d["reduction"]["nested_order"] == 1
    assert d["reduction"]["first_nonzero_order"] == 1
    # g1 vanishes identically on the nested chart, so the first averaged
    # point samples obey g1 = (0, 0) there
    pt = d["averaged"]["points"][-1]    # alpha = alpha0 sample
    assert abs(pt["g"][1][0]) < 1e-8
    assert abs(pt["g"][1][1]) < 1e-7
    # reduced f1 sample at alpha0 is a root
    sample = d["reduction"]["samples"][-1]
    assert abs(sample["f"][0][0]) < 1e-7


def test_mb_reduce_stage_integrates_each_cut_once(monkeypatch):
    # work guard: the avg stage reads its sample off the jet the reduction
    # reads there (nb = 1, graded for order 3), so no plain k = 3 cut; the
    # nested check reads g_1 alone at its 9 chart points (g_1 vanishes
    # there, so the off-chart scale points are not needed), so x, Y and y_1
    # there; the reduction integrates one jet per grid node, and its sample
    # reuses the avg stage's
    from avgcycle import flow
    sizes = []
    real = flow._run_solver
    # a stack of start states counts each of its members
    monkeypatch.setattr(flow, "_run_solver", lambda rhs, u0, *rest:
                        sizes.extend(u.size for u in np.atleast_2d(u0)) or real(rhs, u0, *rest))
    prob = load_fixture("maxwell_bloch")
    prob.run.r_grid = 2
    prob.run.alpha_samples = np.array([2.8284271247461903])
    report, code = run_pipeline(prob, stages=("reduce",))
    assert code == 0, report.data.get("errors")
    n, r = 2, 1
    # x and Y to degree 3, y_1..y_3 to degrees 2, 1, 0: degree d holds d + 1
    jet = (n + n * n) * 4 + n * (3 + 2 + 1)
    assert sizes == [jet] + [n + n * n + r * n] * 9 + [jet] * 2
    assert n + n * n + 3 * n not in sizes


def test_cyl3d_pipeline_integrates_each_jet_once(monkeypatch):
    # work guard: the avg stage reads its samples off the jets the reduction
    # reads there (nb = 1, graded for order 2), so no plain k = 2 cut; grid
    # nodes, samples and branch-Newton points are one jet each
    from avgcycle import flow
    starts = []
    real = flow._run_solver
    # a stack of start states counts each of its members
    monkeypatch.setattr(flow, "_run_solver", lambda rhs, u0, *rest:
                        starts.extend(np.atleast_2d(u0).copy()) or real(rhs, u0, *rest))
    prob = load_fixture("cyl3d")
    prob.run.r_grid = 6
    prob.run.eps = np.array([1e-3, 1e-2, 1e-1])
    prob.run.alpha_samples = np.array([1.0, 2.2])
    report, code = run_pipeline(prob)
    assert code == 0, report.data.get("errors")
    n = 2
    sizes = [u0.size for u0 in starts]
    assert n + n * n + 2 * n not in sizes
    # x and Y to degree 2, y_1, y_2 to degrees 1, 0: degree d holds d + 1
    jets = [u0 for u0 in starts if u0.size == (n + n * n) * 3 + n * (2 + 1)]
    assert len(jets) >= 6 + 2
    # the lifted start holds the plain state, x(0) = z first
    chart = prob.chart()
    for u0, alpha in zip(jets, (1.0, 2.2)):
        assert np.array_equal(u0[:n], chart.embed(alpha))
    assert len({u0.tobytes() for u0 in jets}) == len(jets)


@pytest.mark.parametrize("name, jet, checks", [("cyl3d", 24, {6: 9, 2: 5}),
                                               ("maxwell_bloch", 36, {8: 9})],
                         ids=["cyl3d", "maxwell_bloch"])
def test_default_avg_points_are_reduction_nodes(name, jet, checks, monkeypatch):
    # work guard: with no alpha_samples the avg rows are every (N // 5)-th of
    # the N reduction grid nodes, the points the reduction samples too, so
    # the avg stage integrates no point of its own: one jet per grid node,
    # and the 9 vanishing or nested check cuts (cyl3d: 5 periodicity checks)
    from collections import Counter
    from avgcycle import flow
    sizes = []
    real = flow._run_solver
    # a stack of start states counts each of its members
    monkeypatch.setattr(flow, "_run_solver", lambda rhs, u0, *rest:
                        sizes.extend(u.size for u in np.atleast_2d(u0)) or real(rhs, u0, *rest))
    prob = load_fixture(name)
    prob.run.r_grid = 16
    prob.run.alpha_samples = np.array([])
    report, code = run_pipeline(prob, stages=("reduce",))
    assert code == 0, report.data.get("errors")
    assert Counter(sizes) == {jet: 16, **checks}
    rows = [row["alpha"] for row in report.data["averaged"]["points"]]
    assert rows == [row["alpha"] for row in report.data["reduction"]["samples"]]
    assert len(rows) == 6


@pytest.mark.parametrize("name, stacks", [("cyl3d", [17]), ("maxwell_bloch", [6, 1, 1])],
                         ids=["cyl3d", "maxwell_bloch"])
def test_solve_stage_integrates_its_starts_as_one_stack(name, stacks, monkeypatch):
    # work guard: the surrogate zeros of every eps are known before the first
    # Newton step, so the solve stage integrates them as one stack, each
    # member from the start state it has when integrated alone; the two
    # Maxwell-Bloch expansion points stay alone
    from avgcycle import cli, flow, solver

    def solve_starts():
        starts, solving = [], [False]
        real, stage = flow._run_solver, cli._STAGE_FNS["solve"]

        def run(rhs, u0, *rest):
            if solving[0]:
                starts.append(np.atleast_2d(u0).copy())
            return real(rhs, u0, *rest)

        def staged(*args):
            solving[0] = True
            try:
                return stage(*args)
            finally:
                solving[0] = False

        with monkeypatch.context() as patch:
            patch.setattr(flow, "_run_solver", run)
            patch.setitem(cli._STAGE_FNS, "solve", staged)
            report, code = run_pipeline(load_fixture(name), report_wall_time=False)
        assert code == 0, report.data.get("errors")
        return starts

    stacked = solve_starts()
    monkeypatch.setattr(solver, "_prefetch_chart", lambda *args: None)
    alone = solve_starts()
    assert [len(u0) for u0 in stacked] == stacks
    assert [len(u0) for u0 in alone] == [1] * sum(stacks)
    assert np.concatenate(stacked).tobytes() == np.concatenate(alone).tobytes()


@pytest.mark.parametrize("name, stages, r_grid", [
    ("cyl3d", None, 6), ("maxwell_bloch", ("reduce",), 2)])
def test_averaged_rows_are_the_reduction_cut(name, stages, r_grid):
    # each row is level 0 of the cut the reduction reads at its point, and
    # within its tolerance bound of the plain cut of the same order
    from avgcycle.averaging import averaged_functions
    from avgcycle.flow import IntegratorConfig
    from avgcycle.lyapschmidt import AveragedGSeries
    prob = load_fixture(name)
    prob.run.r_grid = r_grid
    prob.run.eps = prob.run.eps[:3]
    report, code = run_pipeline(prob, stages)
    assert code == 0, report.data.get("errors")
    run, series = prob.run, prob.series()
    tol = min(run.tol, 1e-12)
    config = IntegratorConfig(rtol=tol, atol=tol)
    nb = series.dim - prob.chart().m
    rows = report.data["averaged"]["points"]
    assert len(rows) == run.alpha_samples.size
    for row in rows:
        z = np.array(row["z"])
        cut = AveragedGSeries(series, run.order, config).series_at(z, nb)
        plain = averaged_functions(series, z, run.order, config)
        assert len(row["g"]) == run.order + 1
        for i, g in enumerate(row["g"]):
            assert [v.hex() for v in g] == [float(v).hex() for v in cut.g[i]]
            assert np.max(np.abs(np.array(g) - plain.g[i])) <= row["tolerance_bound"]


def test_cyl3d_fixture_pipeline_smoke():
    import math
    prob = load_fixture("cyl3d")
    prob.run.r_grid = 12
    prob.run.eps = np.array([1e-3, 1e-2, 1e-1])
    report, code = run_pipeline(prob)
    assert code == 0, report.data.get("errors")
    d = report.data
    # f1 sample at alpha = 1: pi/2
    sample = [s for s in d["reduction"]["samples"]
              if abs(s["alpha"][0] - 1.0) < 1e-12][0]
    assert sample["f"][0][0] == pytest.approx(math.pi / 2, rel=1e-7)
    # branch against the verified closed form
    for row in d["branch"]["table"]:
        e = row["eps"]
        want = (3 * e + math.sqrt(9 * e ** 2 + 16 * e)) / 2
        assert row["a_eps"][0] == pytest.approx(want, abs=1e-8)
        assert row["det_delta"] == pytest.approx(1 - math.exp(-2 * math.pi),
                                                 abs=1e-9)
    assert d["hypotheses"]["l"] == 2
    assert len(d["verify"]["orbits"]) == 3
    assert d["degree"]["certificates"]
    assert all(c["degree"] == 1 for c in d["degree"]["certificates"]
               if "degree" in c)


def _cyl3d_run(r_grid, eps):
    prob = load_fixture("cyl3d")
    prob.run.r_grid = r_grid
    prob.run.eps = np.array(eps)
    return run_pipeline(prob, report_wall_time=False)


def test_m1_pipeline_scans_no_samples(monkeypatch):
    # every m = 1 zero comes from the surrogate's colleague matrix: the
    # adaptive fit of a map serves only black-box maps
    from avgcycle import solver

    def refuse(*args, **kwargs):
        raise AssertionError("the m = 1 pipeline fitted a map")

    monkeypatch.setattr(solver, "_fit_1d", refuse)
    report, code = _cyl3d_run(6, [1e-3, 1e-2, 5e-2])
    d = report.data
    assert code == 0, d["errors"]
    assert d["meta"]["stages"] == ["avg", "reduce", "solve", "verify", "degree"]
    assert len(d["branch"]["table"]) == 3 and len(d["verify"]["orbits"]) == 3
    certs = d["degree"]["certificates"]
    assert [c.get("degree") for c in certs] == [1, 1, 1]
    assert all(0 < c["chop_tail"] < c["boundary_margin"] for c in certs)


M2_PROBLEM = """
[system]
dim = 2
period = 2*pi
order = 2
state = r, w

[fields]
F0 = 0, 0
F1 = 1 - r^2 + cos(t)*w, w - 0.5*r + sin(t)
F2 = r*w*cos(t), r^2*sin(t)^2

[manifold]
m = 2
box = 0.5, 1.7; -0.5, 1.0

[run]
eps = 1e-3, 3e-3, 1e-2
order = 2
stages = avg, reduce, solve, verify, degree
r_grid = 6
"""


# problem files refused at load, each a (problem, line, replacement,
# section, key): the avg stage could not reshape three samples into points
# of m = 2, and the nested checks integrated before the reduction found that
# g_3 does not vanish on the sub-chart
REFUSED = [
    ("m2", "r_grid = 6", "r_grid = 6\nalpha_samples = 1.0, 0.2, 1.5", "run", "alpha_samples"),
    ("maxwell_bloch", "nested_order = 1", "nested_order = 3", "manifold", "nested_order")]


@pytest.mark.parametrize("name, line, bad, section, key", REFUSED, ids=[r[0] for r in REFUSED])
def test_main_refuses_a_malformed_problem_file(tmp_path, capsys, name, line, bad, section,
                                               key):
    from avgcycle.problems import fixture_path

    text = M2_PROBLEM if name == "m2" else Path(fixture_path(name)).read_text()
    assert line in text
    path = tmp_path / "bad.prob"
    path.write_text(text.replace(line, bad))
    with pytest.raises(ProblemError) as err:
        parse_problem_text(path.read_text())
    assert (err.value.section, err.value.key) == (section, key)
    assert main(["avg", "--problem", str(path)]) == 2
    assert f"[{section}] {key}:" in capsys.readouterr().err


def test_order_below_the_nested_order_fails_before_the_nested_checks(capsys, monkeypatch):
    # order 1 leaves Maxwell-Bloch's nested order 1 no series terms: the
    # command line refuses the flag, and the reduce stage says so before it
    # integrates the nested checks
    from avgcycle import cli
    from avgcycle.problems import fixture_path

    def refuse(*args):
        raise AssertionError("nested_reduction ran")

    monkeypatch.setattr(cli, "nested_reduction", refuse)
    assert main(["reduce", "--problem", fixture_path("maxwell_bloch"), "--order", "1"]) == 2
    assert "[manifold] nested_order:" in capsys.readouterr().err
    problem = load_fixture("maxwell_bloch")
    problem.run.order = 1
    report, code = run_pipeline(problem, ("avg", "reduce"), report_wall_time=False)
    assert code == 3
    assert report.data["errors"] == {
        "reduce": "ProblemError: [manifold] nested_order: nested order leaves no series terms"}


def _count_integrations(monkeypatch):
    from avgcycle import flow

    calls = [0]
    run_solver = flow._run_solver

    def counted(*args, **kwargs):
        calls[0] += 1
        return run_solver(*args, **kwargs)

    monkeypatch.setattr(flow, "_run_solver", counted)
    return calls


def test_m2_pipeline_solves_on_the_surrogate(monkeypatch):
    # m = n = 2 with g_1 = 2 pi (1 - r^2, w - r/2): zeros, Jacobians and the
    # degree come off the tensor surrogate, so the exact reduction is
    # integrated at the 36 grid nodes and to confirm roots, not at every step
    # of a multi-start on the exact evaluator (5441 integrations that way)
    calls = _count_integrations(monkeypatch)
    report, code = run_pipeline(parse_problem_text(M2_PROBLEM), report_wall_time=False)
    d = report.data
    assert code == 0, d["errors"]
    assert calls[0] < 150
    table = d["branch"]["table"]
    eps = np.array([row["eps"] for row in table])
    assert list(eps) == [1e-3, 3e-3, 1e-2]
    # the branch leaves g_1's simple zero (1, 1/2) at O(eps)
    dist = np.linalg.norm(np.array([row["a_eps"] for row in table]) - [1.0, 0.5], axis=1)
    assert np.all(dist <= 2 * eps)
    certs = d["degree"]["certificates"]
    assert [c.get("degree") for c in certs] == [-1, -1, -1]
    assert all(c["signs"] == [-1] for c in certs)
    assert all(0 < c["chop_tail"] < c["boundary_margin"] for c in certs)


def test_pipelines_take_no_difference_stencil():
    # every Jacobian on the pipeline is an exact series derivative, and the
    # package has no difference stencil left: brouwer_degree requires the
    # Jacobian of its map
    import inspect

    from avgcycle import solver

    assert not hasattr(solver, "_fd_jacobian")
    jacobian = inspect.signature(solver.brouwer_degree).parameters["jacobian"]
    assert jacobian.default is inspect.Parameter.empty
    for prob in (load_fixture("cyl3d"), load_fixture("maxwell_bloch"),
                 parse_problem_text(M2_PROBLEM)):
        prob.run.r_grid = min(prob.run.r_grid, 8)
        report, code = run_pipeline(prob, report_wall_time=False)
        assert code == 0, report.data["errors"]
        assert report.data["degree"]["certificates"]


def test_one_node_grid_fails_solve_with_a_branch_error(capfd):
    # one node fits a constant on the chart box, which has no zero; the old
    # fit on the zero-width node span failed inside LAPACK
    report, code = _cyl3d_run(1, [1e-3, 1e-2])
    assert code == 3
    assert list(report.data["errors"]) == ["solve"]
    assert report.data["errors"]["solve"].startswith("BranchError: no roots found")
    assert capfd.readouterr().err == ""


def test_pipeline_imports_no_scipy():
    # the package steps DOP853 and searches zeros itself; scipy is only the
    # tests' oracle, and importing it took three quarters of the set-up time
    probe = textwrap.dedent("""
        import sys
        import avgcycle.cli
        from avgcycle.problems import fixture_path, parse_problem_text

        text = open(fixture_path("cyl3d")).read().split("[run]")[0]
        # two eps: solve fits the growth exponent l from two branch points
        text += ("[run]\\neps = 0.01, 0.02\\norder = 2\\ntol = 1e-10\\n"
                 "stages = avg, reduce, solve, verify, degree\\n"
                 "alpha_samples = 1.0\\nr_grid = 4\\n")
        report, code = avgcycle.cli.run_pipeline(parse_problem_text(text, name="cyl3d"))
        print(code, sorted(report.data["errors"]))
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    src = os.path.dirname(os.path.dirname(avgcycle.__file__))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert done.stdout.splitlines() == ["0 []", "[]"]
