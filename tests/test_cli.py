import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

from avgcycle.cli import RunReport, emit_csv, emit_svg, emit_text, main, run_pipeline
from avgcycle.problems import ProblemError, load_fixture, parse_problem_text

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
    assert prob.state == ("r", "w")
    series = prob.series()
    val = series.eval_field(1, 0.0, [1.0, 3.0])
    assert val[0] == pytest.approx(0.1)      # 1 - r + 0.1 cos(0) at r=1
    assert val[1] == pytest.approx(-1.0)


def test_validation_duplicate_key():
    bad = SMALL_PROBLEM.replace("period = 2*pi", "period = 2*pi\nperiod = 1")
    with pytest.raises(ProblemError):
        parse_problem_text(bad)


def test_validation_content_before_section():
    with pytest.raises(ProblemError):
        parse_problem_text("dim = 2\n[system]\n")


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


def test_text_emission(small_report, capsys):
    emit_text(small_report)
    out = capsys.readouterr().out
    assert "branch: 3 roots" in out
    assert "verified orbits" in out


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
        assert prob.dim == 2
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
    # work guard: the avg stage reads every order at its sample, so one
    # plain k = 3 cut; the nested check reads g_1 alone at its 9 chart
    # points and 9 off-chart scale points, so x, Y and y_1 there; the
    # reduction reads one jet (nb = 1, graded for order 3) per grid node
    # and per sample
    from avgcycle import flow
    sizes = []
    real = flow._run_solver
    monkeypatch.setattr(flow, "_run_solver", lambda rhs, u0, *rest:
                        sizes.append(u0.size) or real(rhs, u0, *rest))
    prob = load_fixture("maxwell_bloch")
    prob.run.r_grid = 2
    prob.run.alpha_samples = np.array([2.8284271247461903])
    report, code = run_pipeline(prob, stages=("reduce",))
    assert code == 0, report.data.get("errors")
    n, r = 2, 1
    # x and Y to degree 3, y_1..y_3 to degrees 2, 1, 0: degree d holds d + 1
    jet = (n + n * n) * 4 + n * (3 + 2 + 1)
    assert sizes == ([n + n * n + 3 * n] + [n + n * n + r * n] * 18
                     + [jet] * (2 + 1))


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
