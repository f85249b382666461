"""End-to-end tests of the command-line interface.

Everything drives ``main(argv)`` directly with files under tmp_path; one test
also exercises the installed console script through a subprocess.
"""

import csv
import json
import logging
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ivqr.cli
import ivqr.estimate
from ivqr.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, ingest_csv, main, parse_args
from ivqr.exceptions import EstimationError
from ivqr.model import build_problem


def write_csv(path, columns):
    names = list(columns)
    n = len(columns[names[0]])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(n):
            row = []
            for c in names:
                v = columns[c][i]
                row.append("" if v is None else repr(float(v)))
            writer.writerow(row)
    return str(path)


def demo_columns(n=200, seed=33):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n)
    d = z + 0.5 * rng.normal(size=n)
    x = rng.normal(size=n)
    y = 1.0 + d - 0.5 * x + rng.normal(size=n)
    w = rng.uniform(0.5, 2.0, size=n)
    return {"wage": y, "educ": d, "age": x, "dist": z, "wgt": w}


@pytest.fixture
def demo_csv(tmp_path):
    return write_csv(tmp_path / "demo.csv", demo_columns())


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ happy paths


def test_basic_analytic_run(demo_csv, tmp_path, capsys):
    out_json = tmp_path / "fit.json"
    code, out, err = run_cli(
        ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--exog", "age",
         "--iv", "dist", "--quantile", "0.5", "--json", str(out_json)],
        capsys,
    )
    assert code == EXIT_OK, err
    assert "smoothed IV quantile regression" in out
    assert "vce: Robust" in out
    for name in ("educ", "age", "_cons"):
        assert name in out
    doc = json.loads(out_json.read_text())
    assert doc["names"] == ["educ", "age", "_cons"]
    assert doc["N"] == 200
    assert doc["q"] == 0.5
    assert doc["level"] == 95.0
    assert doc["vcetype"] == "Robust"
    assert doc["reps"] == 0
    assert len(doc["b"]) == 3 and len(doc["V"]) == 3 and len(doc["se"]) == 3
    # point estimate lands near the truth on this easy design
    assert abs(doc["b"][0] - 1.0) < 0.5
    assert doc["bwidth"] > 0 and doc["bwidth_req"] > 0 and doc["bwidth_max"] > 0
    # CIs bracket the point estimates
    for b, (lo, hi) in zip(doc["b"], doc["ci"]):
        assert lo < b < hi


def test_console_script_runs(demo_csv, tmp_path):
    out_json = tmp_path / "fit.json"
    proc = subprocess.run(
        [sys.executable, "-m", "ivqr.cli", "--data", demo_csv, "--y", "wage",
         "--endog", "educ", "--iv", "dist", "--quantile", "0.25",
         "--json", str(out_json)],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(out_json.read_text())["q"] == 0.25


def test_percentile_and_probability_agree(demo_csv, tmp_path, capsys):
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    base = ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--iv", "dist"]
    assert main(base + ["--quantile", "25", "--json", str(j1)]) == EXIT_OK
    assert main(base + ["--quantile", "0.25", "--json", str(j2)]) == EXIT_OK
    capsys.readouterr()
    assert j1.read_bytes() == j2.read_bytes()


def test_json_byte_identical_across_runs(demo_csv, tmp_path, capsys):
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--iv", "dist",
            "--quantile", "0.5", "--reps", "40", "--nodots"]
    assert main(args + ["--json", str(j1)]) == EXIT_OK
    assert main(args + ["--json", str(j2)]) == EXIT_OK
    capsys.readouterr()
    assert j1.read_bytes() == j2.read_bytes()


def test_bootstrap_dots_and_count(demo_csv, capsys):
    code, out, err = run_cli(
        ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--iv", "dist",
         "--quantile", "0.5", "--reps", "60"],
        capsys,
    )
    assert code == EXIT_OK
    assert out.count(".") >= 60
    assert "    50\n" in out
    assert "vce: Bootstrap" in out


def test_nodots_suppresses_progress(demo_csv, capsys):
    code, out, err = run_cli(
        ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--iv", "dist",
         "--quantile", "0.5", "--reps", "25", "--nodots"],
        capsys,
    )
    assert code == EXIT_OK
    table_start = out.index("smoothed IV")
    assert "." not in out[:table_start]


def test_bootstrap_seed_changes_estimates(demo_csv, tmp_path, capsys):
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    base = ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--iv", "dist",
            "--quantile", "0.5", "--reps", "30", "--nodots"]
    assert main(base + ["--seed", "1", "--json", str(j1)]) == EXIT_OK
    assert main(base + ["--seed", "2", "--json", str(j2)]) == EXIT_OK
    capsys.readouterr()
    d1, d2 = json.loads(j1.read_text()), json.loads(j2.read_text())
    assert d1["b"] == d2["b"]  # the point estimate ignores the seed
    assert d1["se"] != d2["se"]
    assert d1["seed"] == 1 and d2["seed"] == 2


def test_weight_column_used(tmp_path, capsys):
    cols = demo_columns(n=120, seed=8)
    path = write_csv(tmp_path / "w.csv", cols)
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    base = ["--data", path, "--y", "wage", "--endog", "educ", "--iv", "dist",
            "--quantile", "0.5", "--bandwidth", "1.0"]
    assert main(base + ["--json", str(j1)]) == EXIT_OK
    assert main(base + ["--weight", "wgt", "--json", str(j2)]) == EXIT_OK
    capsys.readouterr()
    assert json.loads(j1.read_text())["b"] != json.loads(j2.read_text())["b"]


def test_level_flag_narrows_intervals(demo_csv, tmp_path, capsys):
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    base = ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--iv", "dist",
            "--quantile", "0.5"]
    assert main(base + ["--level", "95", "--json", str(j1)]) == EXIT_OK
    assert main(base + ["--level", "90", "--json", str(j2)]) == EXIT_OK
    capsys.readouterr()
    d95, d90 = json.loads(j1.read_text()), json.loads(j2.read_text())
    for (lo95, hi95), (lo90, hi90) in zip(d95["ci"], d90["ci"]):
        assert hi90 - lo90 < hi95 - lo95


def test_noconstant(demo_csv, tmp_path, capsys):
    out_json = tmp_path / "fit.json"
    code, out, err = run_cli(
        ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--iv", "dist",
         "--quantile", "0.5", "--noconstant", "--json", str(out_json)],
        capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out_json.read_text())
    assert doc["names"] == ["educ"]
    assert "_cons" not in out


def test_manual_bandwidth_reported(demo_csv, tmp_path, capsys):
    out_json = tmp_path / "fit.json"
    code, out, err = run_cli(
        ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--iv", "dist",
         "--quantile", "0.5", "--bandwidth", "0.8", "--json", str(out_json)],
        capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out_json.read_text())
    assert doc["bwidth_req"] == 0.8
    assert doc["bwidth"] == 0.8
    assert doc["bwidth_max"] is None


def test_zero_bandwidth_requests_smallest_feasible(demo_csv, tmp_path, capsys):
    out_json = tmp_path / "fit.json"
    code, out, err = run_cli(
        ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--iv", "dist",
         "--quantile", "0.5", "--bandwidth", "0", "--json", str(out_json)],
        capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out_json.read_text())
    assert doc["bwidth_req"] == 0.0
    assert doc["bwidth"] > 0.0
    # the smallest feasible root interpolates p rows, so a Jacobian taken in
    # its window alone would report standard errors near zero; the sandwich
    # takes it at the plug-in request instead, close to a plug-in fit's
    plug_json = tmp_path / "plug.json"
    code, out, err = run_cli(
        ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--iv", "dist",
         "--quantile", "0.5", "--json", str(plug_json)],
        capsys,
    )
    assert code == EXIT_OK
    ratio = np.array(doc["se"]) / np.array(json.loads(plug_json.read_text())["se"])
    assert np.all((ratio > 1 / 1.5) & (ratio < 1.5)), ratio


def test_exogenous_column_allowed_in_iv_list(demo_csv, capsys):
    code, out, err = run_cli(
        ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--exog", "age",
         "--iv", "dist,age", "--quantile", "0.5"],
        capsys,
    )
    assert code == EXIT_OK


def test_log_iterations_goes_to_stderr(demo_csv, capsys):
    code, out, err = run_cli(
        ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--iv", "dist",
         "--quantile", "0.5", "--log-iterations"],
        capsys,
    )
    assert code == EXIT_OK
    lines = [l for l in err.splitlines() if l]
    assert lines
    pat = re.compile(r"^h=[0-9.e+-]+ iter=\d+ resid_inf=")
    assert all(pat.match(l) for l in lines)


def test_log_iterations_leave_out_bootstrap_draws(demo_csv, capsys):
    args = ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--iv", "dist",
            "--quantile", "0.5", "--log-iterations"]
    _, _, err_analytic = run_cli(args, capsys)
    code, _, err_boot = run_cli(args + ["--reps", "20"], capsys)
    assert code == EXIT_OK
    assert err_boot == err_analytic


def test_numeric_failure_keeps_iteration_lines_and_detaches_logger(
    demo_csv, capsys, monkeypatch
):
    def fail(prob, zhat, beta_hat, h_used, h_jacobian):
        raise EstimationError("covariance failed on purpose")

    monkeypatch.setattr(ivqr.estimate, "analytic_covariance", fail)
    args = ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--iv", "dist",
            "--quantile", "0.5"]
    code, _, err = run_cli(args + ["--log-iterations"], capsys)
    assert code == EXIT_NUMERIC
    lines = err.splitlines()
    assert len(lines) > 1
    assert lines[-1] == "error: covariance failed on purpose"
    pat = re.compile(r"^h=[0-9.e+-]+ iter=\d+ resid_inf=")
    assert all(pat.match(l) for l in lines[:-1])
    solver_log = logging.getLogger("ivqr.solver")
    assert solver_log.handlers == []
    assert solver_log.level == logging.NOTSET
    monkeypatch.undo()
    code, _, err = run_cli(args, capsys)
    assert code == EXIT_OK
    assert err == ""


def test_initial_values_accepted(demo_csv, capsys):
    code, out, err = run_cli(
        ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--iv", "dist",
         "--quantile", "0.5", "--bandwidth", "1.0", "--initial", "1.0,1.0"],
        capsys,
    )
    assert code == EXIT_OK


def test_numpy_global_rng_untouched(demo_csv, capsys):
    before = np.random.get_state()
    code, _, _ = run_cli(
        ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--iv", "dist",
         "--quantile", "0.5", "--reps", "25", "--nodots"],
        capsys,
    )
    assert code == EXIT_OK
    after = np.random.get_state()
    assert before[0] == after[0]
    np.testing.assert_array_equal(before[1], after[1])
    assert before[2:] == after[2:]


# --------------------------------------------------------- missing values


def test_dropped_rows_note(tmp_path, capsys):
    cols = demo_columns(n=50, seed=3)
    cols = {k: list(v) for k, v in cols.items()}
    cols["age"][4] = None
    cols["wage"][10] = None
    cols["dist"][10] = None  # same row: still one drop
    path = write_csv(tmp_path / "gaps.csv", cols)
    out_json = tmp_path / "fit.json"
    code, out, err = run_cli(
        ["--data", path, "--y", "wage", "--endog", "educ", "--exog", "age",
         "--iv", "dist", "--quantile", "0.5", "--json", str(out_json)],
        capsys,
    )
    assert code == EXIT_OK
    assert "note: dropped 2 row(s) with missing values" in out
    assert json.loads(out_json.read_text())["N"] == 48


def test_missing_cells_in_unused_columns_ignored(tmp_path, capsys):
    cols = demo_columns(n=50, seed=4)
    cols = {k: list(v) for k, v in cols.items()}
    cols["wgt"][7] = None  # not referenced by the command below
    path = write_csv(tmp_path / "gaps.csv", cols)
    code, out, err = run_cli(
        ["--data", path, "--y", "wage", "--endog", "educ", "--iv", "dist",
         "--quantile", "0.5"],
        capsys,
    )
    assert code == EXIT_OK
    assert "note: dropped" not in out


# ------------------------------------------------------------------ ingest


def reference_ingest(config):
    """The cell-by-cell reading: csv.reader, str.strip and float() per cell.

    Returns what ingest_csv returns, or raises as ingest_csv must.
    """
    cols = [config.y] + config.endog + config.exog + config.iv
    if config.weight:
        cols.append(config.weight)
    with open(config.data, newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        idx = {c: header.index(c) for c in dict.fromkeys(cols)}
        parsed = {c: [] for c in idx}
        for i, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            for c, j in idx.items():
                cell = row[j].strip() if j < len(row) else ""
                if cell == "":
                    parsed[c].append(np.nan)
                    continue
                try:
                    parsed[c].append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"unparseable value {cell!r} at line {i}, column {c!r} of {config.data}"
                    )
    if not parsed[config.y]:
        raise ValueError(f"{config.data} has a header but no observations")
    arrays = {c: np.asarray(v, dtype=float) for c, v in parsed.items()}
    n_dropped = int(np.isnan(np.column_stack(list(arrays.values()))).any(axis=1).sum())
    stack = lambda names: np.column_stack([arrays[c] for c in names]) if names else None
    prob = build_problem(
        arrays[config.y],
        raw_exog=stack(config.exog),
        raw_endog=stack(config.endog),
        raw_instr=stack(config.iv),
        weights=arrays[config.weight] if config.weight else None,
        quantile=config.quantile,
        add_constant=not config.noconstant,
    )
    names = config.endog + config.exog + ([] if config.noconstant else ["_cons"])
    return prob, names, n_dropped


REFERENCED = ("y", "d", "x", "z", "w")
NUMBERS = st.one_of(
    st.floats(min_value=1e-3, max_value=1e6).map(repr),
    st.floats(min_value=0.0, max_value=1e6).map(lambda v: f"{v:.6e}"),
    st.integers(0, 999).map(str),
    st.sampled_from(["1e3", "+.5", "3.", "2.5E-2", "7E+00", "-0", "0.1e-1", "1E-310"]),
)
MISSING = st.sampled_from(["", "nan", "NaN", " \t"])
ODD = st.sampled_from(["-inf", "Infinity", "-2.5", "abc", "1#5", "1_0", "1d0", "0x10", "1 5", "2e"])
# whitespace around a value is stripped, inside quotes or outside them
LAYOUTS = st.sampled_from(["{}", "{}", "{}", " {} ", "\t{}", "{}\t ", '"{}"', '" {}\t"', '"{}" '])
# whitespace before an opening quote, or a quote inside a cell, keeps the quotes as text
ODD_LAYOUTS = st.sampled_from([' "{}"', '\t"{}" ', '{}"', '"{}""'])


@st.composite
def csv_cells(draw, referenced, messy):
    kind = draw(st.integers(0, 39))
    if not referenced and kind < 10:
        text = draw(st.sampled_from(["a,b", "x, y", "", "label"]))
    elif kind == 10:
        text = draw(MISSING)
    elif kind == 11 and messy:
        text = draw(ODD)
    else:
        text = draw(NUMBERS)
    if "," in text:
        return f'"{text}"'
    return draw(ODD_LAYOUTS if kind == 12 and messy else LAYOUTS).format(text)


@st.composite
def csv_texts(draw):
    header = draw(st.permutations(list(REFERENCED) + ["u1", "u2"]))
    messy = draw(st.booleans())
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 10))):
        shape = draw(st.integers(0, 11))
        if shape == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t", " , ,", ",,,,,,"])))
            continue
        row = [draw(csv_cells(name in REFERENCED, messy)) for name in header]
        if shape == 1:
            row = row[: draw(st.integers(1, len(row) - 1))]
        elif shape == 2:
            row += [draw(csv_cells(False, messy)), "extra"]
        lines.append(",".join(row))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


def outcome(read):
    try:
        prob, names, n_dropped = read()
    except ValueError as exc:
        return "error", str(exc)
    return "ok", [a.tobytes() for a in (prob.y, prob.X, prob.Z, prob.w)], names, n_dropped


@pytest.fixture(scope="module")
def ingest_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest")


@settings(max_examples=150, deadline=None)
@given(text=csv_texts(), weighted=st.booleans(), exog=st.sampled_from([["x"], []]))
def test_ingest_matches_cell_by_cell_reading(ingest_dir, text, weighted, exog):
    path = ingest_dir / "data.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    weight = ["--weight", "w"] if weighted else []
    config = parse_args(["--data", str(path), "--y", "y", "--endog", "d", "--exog", ",".join(exog),
                         "--iv", "z", "--quantile", "0.5", *weight])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(lambda: ingest_csv(config))
    assert got == outcome(lambda: reference_ingest(config))


def test_clean_input_skips_cell_by_cell_reading(tmp_path, monkeypatch):
    calls = []
    parse_cells = ivqr.cli._parse_cells
    monkeypatch.setattr(ivqr.cli, "_parse_cells", lambda *a: calls.append(1) or parse_cells(*a))
    cols = demo_columns(n=40, seed=6)
    config = parse_args(["--data", write_csv(tmp_path / "clean.csv", cols), "--y", "wage",
                         "--endog", "educ", "--exog", "age", "--iv", "dist", "--quantile", "0.5"])
    assert ingest_csv(config)[2] == 0
    # quoted cells, and a quoted comma in a column the model does not use
    lines = Path(config.data).read_text().splitlines()
    quoted = tmp_path / "quoted.csv"
    quoted.write_text("".join(",".join(f'"{c}"' for c in line.split(",")) + ',"a,b"\n'
                              for line in lines))
    config.data = str(quoted)
    assert ingest_csv(config)[2] == 0
    assert calls == []
    cols = {k: list(v) for k, v in cols.items()}
    cols["age"][3] = None
    config.data = write_csv(tmp_path / "gap.csv", cols)
    assert ingest_csv(config)[2] == 1
    # a missing cell is read by loadtxt as NaN; only a row of blank cells,
    # which the loop skips, or a bad cell, which it names, reaches the loop
    assert calls == []
    gap = Path(config.data).read_text()
    n_cols = len(cols)
    for name, extra in (("blank_row", " ," * (n_cols - 1) + "\n"),
                        ("bad_cell", ",".join(["1x"] * n_cols) + "\n")):
        config.data = str(tmp_path / f"{name}.csv")
        Path(config.data).write_text(gap + extra)
        if name == "blank_row":
            assert ingest_csv(config)[2] == 1
        else:
            with pytest.raises(ValueError, match="unparseable value '1x'"):
                ingest_csv(config)
    assert calls == [1, 1]


# -------------------------------------------------------------- exit codes


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "--quantile" in out


def test_missing_required_flag(capsys):
    assert main(["--data", "x.csv"]) == EXIT_INPUT


def test_nonexistent_file(capsys):
    code, out, err = run_cli(
        ["--data", "/nonexistent/nope.csv", "--y", "y", "--endog", "d",
         "--iv", "z", "--quantile", "0.5"],
        capsys,
    )
    assert code == EXIT_INPUT
    assert "error:" in err


def test_unparseable_cell_reports_location(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("wage,educ,dist\n1.0,2.0,3.0\n4.0,five,6.0\n7.0,8.0,9.0\n")
    code, out, err = run_cli(
        ["--data", str(path), "--y", "wage", "--endog", "educ", "--iv", "dist",
         "--quantile", "0.5"],
        capsys,
    )
    assert code == EXIT_INPUT
    assert "unparseable value 'five' at line 3, column 'educ'" in err


def test_header_only_file(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("wage,educ,dist\n")
    code, out, err = run_cli(
        ["--data", str(path), "--y", "wage", "--endog", "educ", "--iv", "dist",
         "--quantile", "0.5"],
        capsys,
    )
    assert code == EXIT_INPUT
    assert "no observations" in err


@pytest.mark.parametrize("line, cell, column", [("4.0,5.0,1#5", "1#5", "dist"),
                                                 ("#4.0,5.0,6.0", "#4.0", "wage")])
def test_comment_character_is_not_special(tmp_path, capsys, line, cell, column):
    path = tmp_path / "hash.csv"
    path.write_text(f"wage,educ,dist\n1.0,2.0,3.0\n{line}\n7.0,8.0,9.0\n")
    code, out, err = run_cli(
        ["--data", str(path), "--y", "wage", "--endog", "educ", "--iv", "dist",
         "--quantile", "0.5"],
        capsys,
    )
    assert code == EXIT_INPUT
    assert f"unparseable value '{cell}' at line 3, column '{column}'" in err


@pytest.mark.parametrize("body", ["", "\n\n", "\r\n\n\r\n", "  \n , ,\n\t\n"])
def test_no_observations_raises_no_warning(tmp_path, capsys, body):
    path = tmp_path / "blank.csv"
    with open(path, "w", newline="") as fh:
        fh.write("wage,educ,dist\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            ["--data", str(path), "--y", "wage", "--endog", "educ", "--iv", "dist",
             "--quantile", "0.5"],
            capsys,
        )
    assert code == EXIT_INPUT
    assert "has a header but no observations" in err


def test_completely_empty_file(tmp_path, capsys):
    path = tmp_path / "zero.csv"
    path.write_text("")
    code, out, err = run_cli(
        ["--data", str(path), "--y", "wage", "--endog", "educ", "--iv", "dist",
         "--quantile", "0.5"],
        capsys,
    )
    assert code == EXIT_INPUT
    assert "is empty" in err


def test_unknown_column(demo_csv, capsys):
    code, out, err = run_cli(
        ["--data", demo_csv, "--y", "wage", "--endog", "skill", "--iv", "dist",
         "--quantile", "0.5"],
        capsys,
    )
    assert code == EXIT_INPUT
    assert "columns not found" in err and "skill" in err


def test_endog_required(demo_csv, capsys):
    code, out, err = run_cli(
        ["--data", demo_csv, "--y", "wage", "--iv", "dist", "--quantile", "0.5"],
        capsys,
    )
    assert code == EXIT_INPUT
    assert "endogenous" in err


def test_iv_required(demo_csv, capsys):
    code, out, err = run_cli(
        ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--quantile", "0.5"],
        capsys,
    )
    assert code == EXIT_INPUT


def test_column_in_both_endog_and_exog(demo_csv, capsys):
    code, out, err = run_cli(
        ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--exog", "educ",
         "--iv", "dist", "--quantile", "0.5"],
        capsys,
    )
    assert code == EXIT_INPUT
    assert "both exogenous and endogenous" in err


def test_column_in_both_endog_and_iv(demo_csv, capsys):
    code, out, err = run_cli(
        ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--iv", "educ",
         "--quantile", "0.5"],
        capsys,
    )
    assert code == EXIT_INPUT
    assert "both endogenous and instrument" in err


@pytest.mark.parametrize("flag, columns", [
    ("--exog", ["--endog", "educ", "--exog", "age,wage", "--iv", "dist"]),
    ("--endog", ["--endog", "educ,wage", "--iv", "dist"]),
    ("--iv", ["--endog", "educ", "--iv", "dist,wage"]),
])
def test_outcome_listed_as_a_regressor_or_instrument(demo_csv, capsys, flag, columns):
    code, out, err = run_cli(
        ["--data", demo_csv, "--y", "wage", *columns, "--quantile", "0.5"], capsys
    )
    assert code == EXIT_INPUT
    assert err == f"error: the --y column 'wage' is also listed under {flag}\n"
    assert out == ""


@pytest.mark.parametrize("flags, message", [
    (["--reps", "1"], "error: --reps must be 0 (analytic standard errors) or at least 2\n"),
    (["--reps", "10", "--seed", "-1"], "error: --seed must be non-negative with --reps, got -1\n"),
])
def test_bootstrap_flags_checked_before_reading(demo_csv, monkeypatch, capsys, flags, message):
    def no_read(config):
        raise AssertionError("the CSV was read")

    monkeypatch.setattr(ivqr.cli, "ingest_csv", no_read)
    code, out, err = run_cli(
        ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--iv", "dist",
         "--quantile", "0.5", *flags],
        capsys,
    )
    assert code == EXIT_INPUT
    assert err == message
    assert out == ""


def test_negative_seed_allowed_without_bootstrap(demo_csv, capsys):
    code, out, err = run_cli(
        ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--iv", "dist",
         "--quantile", "0.5", "--seed", "-1"],
        capsys,
    )
    assert code == EXIT_OK, err
    assert "vce: Robust" in out


def test_initial_wrong_length(demo_csv, capsys):
    code, out, err = run_cli(
        ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--iv", "dist",
         "--quantile", "0.5", "--initial", "1.0"],
        capsys,
    )
    assert code == EXIT_INPUT
    assert "--initial supplies 1 values but the model has 2" in err


def test_too_few_usable_rows(tmp_path, capsys):
    path = tmp_path / "thin.csv"
    path.write_text("wage,educ,dist\n1.0,2.0,3.0\n,2.5,3.5\n4.0,,5.0\n")
    code, out, err = run_cli(
        ["--data", str(path), "--y", "wage", "--endog", "educ", "--iv", "dist",
         "--quantile", "0.5"],
        capsys,
    )
    assert code == EXIT_INPUT
    assert "at least as many observations as parameters" in err


def test_bad_quantile(demo_csv, capsys):
    code, out, err = run_cli(
        ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--iv", "dist",
         "--quantile", "150"],
        capsys,
    )
    assert code == EXIT_INPUT
    assert "quantile" in err


def test_negative_bandwidth(demo_csv, capsys):
    code, out, err = run_cli(
        ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--iv", "dist",
         "--quantile", "0.5", "--bandwidth", "-1"],
        capsys,
    )
    assert code == EXIT_INPUT
    assert "--bandwidth" in err


# ----------------------------------------------------- escalation warning


def atoms_csv(tmp_path):
    # binary endogenous regressor with a two-atom outcome: the smoothed
    # equations have no solution near the plug-in bandwidth and the solver
    # must escalate past every candidate
    rng = np.random.default_rng(1)
    n = 60
    z = rng.normal(size=n)
    d = (z + 0.3 * rng.normal(size=n) > 0).astype(float)
    y = 5.0 * rng.choice([-1.0, 1.0], size=n)
    return write_csv(tmp_path / "atoms.csv", {"y": y, "d": d, "z": z})


def test_escalation_warning_printed(tmp_path, capsys):
    path = atoms_csv(tmp_path)
    out_json = tmp_path / "fit.json"
    code, out, err = run_cli(
        ["--data", path, "--y", "y", "--endog", "d", "--iv", "z",
         "--quantile", "0.5", "--json", str(out_json)],
        capsys,
    )
    assert code == EXIT_OK
    assert "warning: bandwidth escalated above the largest plug-in candidate" in out
    assert "instruments may be weak" in out
    doc = json.loads(out_json.read_text())
    assert doc["bwidth"] > doc["bwidth_max"]


def test_no_warning_on_clean_data(demo_csv, capsys):
    code, out, err = run_cli(
        ["--data", demo_csv, "--y", "wage", "--endog", "educ", "--iv", "dist",
         "--quantile", "0.5"],
        capsys,
    )
    assert code == EXIT_OK
    assert "warning" not in out
