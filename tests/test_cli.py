"""End-to-end tests for the gsvkit command line: files, reports, exit codes."""

import codecs
import csv
import importlib.resources
import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import gsvkit
from gsvkit import cli, gsv_solver, matrix_io
from gsvkit.errors import GsvError, NotSymmetric, ParseError, ShapeMismatch
from gsvkit.gsv_solver import WeightedProblem, gsv_solve, weighted_gsv_solve
from gsvkit.stat_norm import StatMatrix

SAMPLE_CSV = str(importlib.resources.files("gsvkit") / "data" / "sample_locations.csv")


def write_matrix(path, arr):
    matrix_io.write_matrix_csv(path, np.asarray(arr, dtype=float))
    return str(path)


def run_cli(capsys, argv):
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr()
    report = json.loads(out.out) if code == 0 else None
    return code, report, out.err


# ---------------------------------------------------------------------------
# solve


def test_solve_diagonal_pair(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.csv", np.diag([1.0, 0.0]))
    b = write_matrix(tmp_path / "b.csv", np.diag([0.0, 2.0]))
    code, report, _ = run_cli(capsys, ["solve", a, b, "--out", tmp_path / "out"])
    assert code == 0
    assert report["lambda_max"] == 4.0
    assert report["multiplicity"] == 1
    payload = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert payload["basis"] == [[0.0], [1.0]]
    assert payload["residual"] <= 1e-8 * 4.0


def test_solve_identity_multiplicity(tmp_path, capsys):
    a = write_matrix(tmp_path / "i.csv", np.eye(2))
    code, report, _ = run_cli(capsys, ["solve", a, "--out", tmp_path / "out"])
    assert code == 0
    assert report["lambda_max"] == pytest.approx(1.0, abs=1e-14)
    assert report["multiplicity"] == 2


def test_solve_with_oracle_gap(tmp_path, capsys):
    rng = np.random.default_rng(77)
    paths = [
        write_matrix(tmp_path / f"m{i}.csv", rng.normal(size=(6, 4))) for i in range(3)
    ]
    code, report, _ = run_cli(
        capsys,
        ["solve", *paths, "--oracle-samples", "1000000", "--seed", "7",
         "--out", tmp_path / "out"],
    )
    assert code == 0
    assert report["seed"] == 7
    payload = json.loads((tmp_path / "out" / "solution.json").read_text())
    lam = payload["lambda_max"]
    assert payload["oracle_lower_bound"] <= lam + 1e-9
    assert payload["oracle_gap"] <= 1e-3 * max(1.0, lam)


def test_solve_oracle_stays_finite_at_large_scale(tmp_path, capsys):
    # the unscaled oracle overflowed here: "oracle_lower_bound": Infinity, above lambda_max
    a = write_matrix(tmp_path / "big.csv", np.random.default_rng(78).normal(size=(40, 8)) * 1e153)
    code, _, _ = run_cli(capsys, ["solve", a, "--oracle-samples", "100000",
                                  "--out", tmp_path / "out"])
    assert code == 0

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    text = (tmp_path / "out" / "solution.json").read_text()
    payload = json.loads(text, parse_constant=refuse)
    assert payload["oracle_lower_bound"] <= payload["lambda_max"]
    assert payload["oracle_gap"] >= 0.0


def test_solve_report_key_sets(tmp_path, capsys):
    a = write_matrix(tmp_path / "i.csv", np.eye(2))
    _, plain, _ = run_cli(capsys, ["solve", a, "--out", tmp_path / "o1"])
    assert list(plain) == [
        "schema", "subcommand", "inputs", "lambda_max", "multiplicity",
        "residual", "outputs", "wall_time_ms",
    ]
    assert plain["schema"] == 1
    _, sampled, _ = run_cli(
        capsys, ["solve", a, "--oracle-samples", "100", "--out", tmp_path / "o2"]
    )
    assert "seed" in sampled

    diagnostics = ["lambda_max", "multiplicity", "residual"]
    _, paths, r_path = _coil_fixture(tmp_path, np.random.default_rng(87), np.eye(5))
    _, coil, _ = run_cli(capsys, ["coil", *paths, r_path, "--out", tmp_path / "o3"])
    assert list(coil) == [
        "schema", "subcommand", "inputs", *diagnostics, "psi_r_psi", "outputs", "wall_time_ms",
    ]
    _, rank, _ = run_cli(capsys, ["rank", SAMPLE_CSV, "--out", tmp_path / "o4"])
    assert list(rank) == [
        "schema", "subcommand", "inputs", *diagnostics, "outputs", "wall_time_ms",
    ]
    rho = tmp_path / "rho.csv"
    rho.write_text("rho\n0.5\n")
    _, density, _ = run_cli(capsys, ["density", rho, "--out", tmp_path / "o5"])
    assert list(density) == [
        "schema", "subcommand", "inputs", "outputs", "wall_time_ms",
    ]


# ---------------------------------------------------------------------------
# coil


def _coil_fixture(tmp_path, rng, resistance):
    fields = [rng.normal(size=(8, 5)) for _ in range(3)]
    paths = [
        write_matrix(tmp_path / name, f)
        for name, f in zip(("ex.csv", "ey.csv", "ez.csv"), fields)
    ]
    r_path = write_matrix(tmp_path / "r.csv", resistance)
    return fields, paths, r_path


def test_coil_identity_resistance_matches_unweighted(tmp_path, capsys):
    rng = np.random.default_rng(80)
    fields, paths, r_path = _coil_fixture(tmp_path, rng, np.eye(5))
    code, report, _ = run_cli(
        capsys, ["coil", *paths, r_path, "--out", tmp_path / "out"]
    )
    assert code == 0
    psi = matrix_io.read_matrix_csv(tmp_path / "out" / "psi.csv").ravel()
    plain = gsv_solve(fields)
    np.testing.assert_array_equal(psi, plain.basis[:, 0])
    assert report["psi_r_psi"] == pytest.approx(1.0, abs=1e-8)
    assert report["lambda_max"] == plain.lambda_max


def test_coil_scaled_resistance(tmp_path, capsys):
    rng = np.random.default_rng(81)
    fields, paths, _ = _coil_fixture(tmp_path, rng, np.eye(5))
    r1 = write_matrix(tmp_path / "r1.csv", np.eye(5))
    r4 = write_matrix(tmp_path / "r4.csv", 4.0 * np.eye(5))
    _, rep1, _ = run_cli(capsys, ["coil", *paths, r1, "--out", tmp_path / "o1"])
    _, rep4, _ = run_cli(capsys, ["coil", *paths, r4, "--out", tmp_path / "o4"])
    assert rep4["lambda_max"] == pytest.approx(rep1["lambda_max"] / 4.0, rel=1e-12)
    psi1 = matrix_io.read_matrix_csv(tmp_path / "o1" / "psi.csv").ravel()
    psi4 = matrix_io.read_matrix_csv(tmp_path / "o4" / "psi.csv").ravel()
    np.testing.assert_allclose(np.abs(psi4), np.abs(psi1) / 2.0, atol=1e-12)


def test_coil_synthetic_energy_report(tmp_path, capsys):
    rng = np.random.default_rng(82)
    fields = [rng.normal(size=(40, 60)) for _ in range(3)]
    l = rng.normal(size=(60, 60))
    paths = [
        write_matrix(tmp_path / f"e{i}.csv", f) for i, f in enumerate(fields)
    ]
    r_path = write_matrix(tmp_path / "r.csv", l.T @ l + 1e-3 * np.eye(60))
    code, report, _ = run_cli(capsys, ["coil", *paths, r_path, "--out", tmp_path / "out"])
    assert code == 0
    assert abs(report["psi_r_psi"] - 1.0) <= 1e-8
    normalized = matrix_io.read_matrix_csv(tmp_path / "out" / "psi_normalized.csv")
    assert np.max(np.abs(normalized)) == 1.0


# ---------------------------------------------------------------------------
# rank


def test_rank_bundled_sample(tmp_path, capsys):
    code, report, _ = run_cli(capsys, ["rank", SAMPLE_CSV, "--out", tmp_path / "out"])
    assert code == 0
    lines = (tmp_path / "out" / "ranking.csv").read_text().splitlines()
    assert lines[0] == "rank,id,score"
    assert len(lines) == 53
    assert lines[1].startswith("1,")
    plot = (tmp_path / "out" / "scores_plot.csv").read_text().splitlines()
    assert plot[0] == "id,score" and len(plot) == 53
    assert report["multiplicity"] == 1


def test_rank_single_column_descending(tmp_path, capsys):
    data = tmp_path / "single.csv"
    data.write_text("id,v\nr0,5.0\nr1,9.0\nr2,1.0\nr3,7.0\n")
    code, _, _ = run_cli(capsys, ["rank", data, "--out", tmp_path / "out"])
    assert code == 0
    rows = (tmp_path / "out" / "ranking.csv").read_text().splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["r1", "r3", "r0", "r2"]


def test_rank_duplicated_column_scores(tmp_path, capsys):
    rng = np.random.default_rng(83)
    col = rng.normal(size=10)
    data = tmp_path / "dup.csv"
    lines = ["id,a,b"] + [f"r{i},{float(v)!r},{float(v)!r}" for i, v in enumerate(col)]
    data.write_text("\n".join(lines) + "\n")
    code, _, _ = run_cli(capsys, ["rank", data, "--out", tmp_path / "out"])
    assert code == 0
    plot = (tmp_path / "out" / "scores_plot.csv").read_text().splitlines()[1:]
    scores = np.array([float(r.split(",")[1]) for r in plot])
    std_col = (col - col.mean()) / np.sqrt(np.mean((col - col.mean()) ** 2))
    np.testing.assert_allclose(scores, np.sqrt(2.0) * std_col, atol=1e-10)


def test_rank_quotes_ids_that_need_it(tmp_path, capsys):
    data = tmp_path / "quoted.csv"
    data.write_text('id,a\n"loc,1",1.0\n"say ""hi""",3.0\nplain,2.0\n')
    code, _, _ = run_cli(capsys, ["rank", data, "--out", tmp_path / "out"])
    assert code == 0
    for name, width in (("ranking.csv", 3), ("scores_plot.csv", 2)):
        text = (tmp_path / "out" / name).read_text(encoding="utf-8")
        rows = list(csv.reader(text.splitlines()))[1:]
        assert [len(row) for row in rows] == [width] * 3, name
        assert sorted(row[width - 2] for row in rows) == ["loc,1", "plain", 'say "hi"'], name
    assert "\nplain," in text  # an id without a comma or quote is written as is


def test_rank_standardizes_columns_near_1e200(tmp_path, capsys):
    data = tmp_path / "huge.csv"
    data.write_text("id,a,b\nr0,1e200,1\nr1,-1e200,2\nr2,3e200,5\n")
    code, report, _ = run_cli(capsys, ["rank", data, "--out", tmp_path / "out"])
    assert code == 0
    m = StatMatrix.from_raw(matrix_io.read_table_csv(data)[2])
    np.testing.assert_allclose(m.data[:, 0], [0.0, -np.sqrt(1.5), np.sqrt(1.5)], atol=1e-14)
    b = np.array([1.0, 2.0, 5.0])
    expected = np.column_stack([m.data[:, 0], (b - b.mean()) / b.std()])
    assert report["lambda_max"] == pytest.approx(np.linalg.norm(expected, 2) ** 2, rel=1e-12)


def test_rank_standardizes_columns_near_1e_minus_20(tmp_path, capsys):
    data = tmp_path / "tiny.csv"
    data.write_text("id,a,b\nr0,1e-20,1\nr1,2e-20,2\nr2,5e-20,5\nr3,3e-20,4\n")
    code, report, err = run_cli(capsys, ["rank", data, "--out", tmp_path / "out"])
    assert code == 0, err
    m = StatMatrix.from_raw(matrix_io.read_table_csv(data)[2])
    a = np.array([1.0, 2.0, 5.0, 3.0])
    np.testing.assert_allclose(m.data[:, 0], (a - a.mean()) / a.std(), atol=1e-14)
    assert report["lambda_max"] == pytest.approx(np.linalg.norm(m.data, 2) ** 2, rel=1e-12)


def test_rank_accepts_timestamps_within_one_hour(tmp_path, capsys):
    rng = np.random.default_rng(1619)
    stamps = 1.7e9 + rng.uniform(0.0, 3600.0, size=(200, 3))
    data = tmp_path / "stamps.csv"
    lines = ["id,t0,t1,t2"] + [f"r{i}," + ",".join(map(repr, map(float, row)))
                              for i, row in enumerate(stamps)]
    data.write_text("\n".join(lines) + "\n")
    code, report, err = run_cli(capsys, ["rank", data, "--out", tmp_path / "out"])
    assert code == 0, err  # was NotStandardized, exit 2: the centering error, not the data
    m = StatMatrix.from_raw(matrix_io.read_table_csv(data)[2])
    assert report["lambda_max"] == pytest.approx(np.linalg.norm(m.data, 2) ** 2, rel=1e-12)


def test_rank_repeated_runs_identical(tmp_path, capsys):
    outputs = set()
    for i in range(3):
        out = tmp_path / f"run{i}"
        code, _, _ = run_cli(capsys, ["rank", SAMPLE_CSV, "--out", out])
        assert code == 0
        outputs.add((out / "ranking.csv").read_bytes())
    assert len(outputs) == 1


# ---------------------------------------------------------------------------
# density


def test_density_halving_model(tmp_path, capsys):
    rho = tmp_path / "rho.csv"
    rho.write_text("rho\n" + "\n".join(repr(0.5**n) for n in range(1, 31)) + "\n")
    code, report, _ = run_cli(capsys, ["density", rho, "--out", tmp_path / "out"])
    assert code == 0
    payload = json.loads((tmp_path / "out" / "density.json").read_text())
    assert payload["norm"] == 0.5
    assert payload["support_index"] == 1
    assert payload["trace"] == 1.0 - 2.0**-30
    assert payload["tail"] == 2.0**-30
    assert payload["positivity_chain_ok"] is True
    assert payload["chain_margin"] == 2.0**-30 - 2.0**-60
    assert payload["norm_upper"] == 0.5 and payload["support_certified"] is True
    assert list(payload) == ["norm", "support_index", "trace", "tail", "positivity_chain_ok",
                             "chain_margin", "norm_upper", "support_certified"]
    assert "seed" not in report  # the chain is decided exactly; nothing is drawn


def test_density_pure_state(tmp_path, capsys):
    rho = tmp_path / "rho.csv"
    rho.write_text("rho\n1.0\n")
    code, _, _ = run_cli(capsys, ["density", rho, "--out", tmp_path / "out"])
    assert code == 0
    payload = json.loads((tmp_path / "out" / "density.json").read_text())
    assert payload["norm"] == 1.0 and payload["trace"] == 1.0


def test_density_direct_max(tmp_path, capsys):
    rho = tmp_path / "rho.csv"
    rho.write_text("rho\n0.1\n0.7\n0.2\n")
    code, _, _ = run_cli(capsys, ["density", rho, "--out", tmp_path / "out"])
    assert code == 0
    payload = json.loads((tmp_path / "out" / "density.json").read_text())
    assert payload["norm"] == 0.7 and payload["support_index"] == 2


def test_density_truncation_interval(tmp_path, capsys):
    # an unlisted state may carry the whole 0.8 tail, so state 1 is not certified to support
    rho = tmp_path / "rho.csv"
    rho.write_text("rho\n0.1\n0.1\n")
    code, _, _ = run_cli(capsys, ["density", rho, "--out", tmp_path / "out"])
    assert code == 0
    assert (tmp_path / "out" / "density.json").read_text() == (
        '{\n  "norm": 0.1,\n  "support_index": 1,\n  "trace": 0.2,\n  "tail": 0.8,\n'
        '  "positivity_chain_ok": true,\n  "chain_margin": 0.09,\n'
        '  "norm_upper": 0.8,\n  "support_certified": false\n}\n'
    )


def test_density_json_ignores_trials_and_seed(tmp_path, capsys):
    rho = tmp_path / "rho.csv"
    probs = np.random.default_rng(88).random(50) / 60
    rho.write_text("rho\n" + "\n".join(map(repr, probs.tolist())) + "\n")
    blobs = set()
    for i, (trials, seed) in enumerate([("1", "0"), ("10000", "0"), ("10000", "7")]):
        out = tmp_path / f"out{i}"
        argv = ["density", rho, "--trials", trials, "--seed", seed, "--out", out]
        code, _, _ = run_cli(capsys, argv)
        assert code == 0
        blobs.add((out / "density.json").read_bytes())
    assert len(blobs) == 1


# ---------------------------------------------------------------------------
# determinism and round-trips


def test_outputs_byte_identical_across_runs(tmp_path, capsys):
    rng = np.random.default_rng(84)
    a = write_matrix(tmp_path / "a.csv", rng.normal(size=(5, 3)))
    rho = tmp_path / "rho.csv"
    rho.write_text("rho\n0.25\n0.25\n0.125\n")
    for argv, fname in [
        (["solve", a, "--oracle-samples", "10000", "--seed", "5"], "solution.json"),
        (["density", rho, "--trials", "2000", "--seed", "5"], "density.json"),
        (["rank", SAMPLE_CSV], "ranking.csv"),
    ]:
        blobs = set()
        for i in range(2):
            out = tmp_path / f"{fname}.run{i}"
            code, _, _ = run_cli(capsys, [*argv, "--out", out])
            assert code == 0
            blobs.add((out / fname).read_bytes())
        assert len(blobs) == 1, fname


def test_matrix_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(85)
    arr = rng.normal(size=(7, 4)) * 10.0 ** rng.integers(-12, 12, size=(7, 4))
    path = tmp_path / "m.csv"
    matrix_io.write_matrix_csv(path, arr)
    back = matrix_io.read_matrix_csv(path)
    np.testing.assert_array_equal(back, arr)

    table = tmp_path / "t.csv"
    table.write_text("id,a,b,c,d\n" + "".join(
        f"r{i}," + ",".join(matrix_io.format_float(v) for v in row) + "\n"
        for i, row in enumerate(arr)
    ))
    ids, names, data = matrix_io.read_table_csv(table)
    assert ids == [f"r{i}" for i in range(7)] and names == ["a", "b", "c", "d"]
    np.testing.assert_array_equal(data, arr)


# ---------------------------------------------------------------------------
# CSV parsing: one rule for all three readers

# reader, header line, numeric fields per record, id fields per record
CSV_READERS = {
    "matrix": (matrix_io.read_matrix_csv, None, 2, 0),
    "table": (matrix_io.read_table_csv, "id,a,b", 2, 1),
    "probability": (matrix_io.read_probability_csv, "rho", 1, 0),
}


def write_rows(path, reader, rows):
    """Write numeric ``rows`` (None: a blank line) under the reader's header."""
    _, header, _, ids = CSV_READERS[reader]
    lines = [] if header is None else [header]
    for i, row in enumerate(rows):
        lines.append("" if row is None else ",".join([f"r{i}"] * ids + row))
    path.write_text("\n".join(lines) + "\n")


# case: (rows for k numeric fields per record, index of the faulty row, message);
# {n} and {w} are the faulty row's and the expected field counts as written.
PARSE_FAULTS = {
    "bad token": (lambda k: [["1"] * k, ["1"] * (k - 1) + [" x "]], 1,
                  "not a decimal number: 'x'"),
    "nan": (lambda k: [["1"] * k, ["nan"] * k], 1, "non-finite value: 'nan'"),
    "inf": (lambda k: [["1"] * k, ["inf"] * k], 1, "non-finite value: 'inf'"),
    "overflow": (lambda k: [["1"] * k, ["1e400"] * k], 1, "non-finite value: '1e400'"),
    "long row": (lambda k: [["1"] * k, ["1"] * (k + 1)], 1, "row has {n} values, expected {w}"),
    "short row": (lambda k: [["1"] * k, ["1"] * (k - 1)], 1, "row has {n} values, expected {w}"),
    "after a blank line": (lambda k: [["1"] * k, None, ["y"] * k], 2,
                           "not a decimal number: 'y'"),
    "first faulty line wins": (lambda k: [["z"] * k, ["1"] * (k + 1)], 0,
                               "not a decimal number: 'z'"),
    "width before value": (lambda k: [["1"] * k, ["w"] * (k + 1)], 1,
                           "row has {n} values, expected {w}"),
    "empty body": (lambda k: [], 0, "file contains no data rows"),
}


@pytest.mark.parametrize(
    "reader, case",
    [
        (reader, case)
        for reader in CSV_READERS
        for case in PARSE_FAULTS
        # a one-column record one value short is a blank line
        if (reader, case) != ("probability", "short row")
    ],
)
def test_parse_error_names_first_faulty_line(tmp_path, reader, case):
    read, header, k, ids = CSV_READERS[reader]
    make_rows, faulty, message = PARSE_FAULTS[case]
    rows = make_rows(k)
    path = tmp_path / "in.csv"
    write_rows(path, reader, rows)
    with pytest.raises(ParseError) as exc_info:
        read(path)
    line = faulty + 1 + (header is not None)
    if rows:
        message = message.format(n=len(rows[faulty]) + ids, w=k + ids)
    assert str(exc_info.value) == f"{path}:{line}: {message}"
    assert exc_info.value.line == line


@pytest.mark.parametrize(
    "reader, text, message",
    [
        ("probability", "", "file is empty"),
        ("table", "", "file is empty"),
        ("table", "a,b\n1,2\n", "missing 'id' column in header ['a', 'b']"),
        ("table", "id\nr0\n", "need at least one numeric column besides 'id'"),
    ],
    ids=["probability empty", "table empty", "table without id", "table without numbers"],
)
def test_header_faults_name_line_1(tmp_path, reader, text, message):
    path = tmp_path / "in.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as exc_info:
        CSV_READERS[reader][0](path)
    assert str(exc_info.value) == f"{path}:1: {message}"


@pytest.mark.parametrize("reader", CSV_READERS)
def test_readers_parse_fields_as_python_float(tmp_path, reader):
    read, _, k, _ = CSV_READERS[reader]
    fields = ['"1.5"', " -2.25 ", '" 3e-5 "', "1_000", "+.5", "0.1"]
    rows = [fields[i : i + k] for i in range(0, len(fields), k)]
    path = tmp_path / "in.csv"
    write_rows(path, reader, [r for row in rows for r in (row, None)])
    out = read(path)
    data = out[2] if reader == "table" else out
    assert data.shape == ((6,) if reader == "probability" else (3, 2))
    assert data.ravel().tolist() == [float(f.strip().strip('"')) for f in fields]
    if reader == "table":
        assert out[:2] == (["r0", "r2", "r4"], ["a", "b"])


@pytest.mark.parametrize("reader", CSV_READERS)
def test_readers_skip_a_utf8_byte_order_mark(tmp_path, reader):
    # Excel's "CSV UTF-8" export starts the file with one: before the header, or the first value
    read, _, k, _ = CSV_READERS[reader]
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_rows(plain, reader, [["0.5"] * k, ["0.25"] * k])
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    got, want = read(marked), read(plain)
    if reader == "table":
        assert got[:2] == want[:2] == (["r0", "r1"], ["a", "b"])
        got, want = got[2], want[2]
    np.testing.assert_array_equal(got, want)


# One-record blocks: a fault after the first record lies in a later block than the records
# before it, and every blank line lies between two blocks.
@pytest.mark.parametrize(
    "reader, case",
    [(reader, case) for reader in CSV_READERS for case in PARSE_FAULTS
     if (reader, case) != ("probability", "short row")],
)
def test_parse_error_names_first_faulty_line_in_one_record_blocks(
    tmp_path, monkeypatch, reader, case
):
    monkeypatch.setattr(matrix_io, "_BLOCK_FIELDS", 1)
    test_parse_error_names_first_faulty_line(tmp_path, reader, case)


@pytest.mark.parametrize("reader", CSV_READERS)
def test_readers_parse_fields_as_python_float_in_one_record_blocks(tmp_path, monkeypatch, reader):
    monkeypatch.setattr(matrix_io, "_BLOCK_FIELDS", 1)
    test_readers_parse_fields_as_python_float(tmp_path, reader)


def test_block_parse_has_the_bits_of_one_call(tmp_path, monkeypatch):
    rng = np.random.default_rng(31)
    a = rng.normal(size=(1500, 7)) * 10.0 ** rng.integers(-300, 300, size=(1500, 7))
    a[0, :4] = [-0.0, 5e-324, -1.7976931348623157e308, 0.1]
    fields = [[format(v, ".17g") for v in row] for row in a]
    fields[7] = ['"1.5"', " +.5", "1_000", "-2.25 ", "0.1", "1e-3", "  7 "]
    a[7] = [1.5, 0.5, 1000.0, -2.25, 0.1, 1e-3, 7.0]
    (tmp_path / "m.csv").write_text("\n\n".join(map(",".join, fields)) + "\n")
    (tmp_path / "t.csv").write_text("a,b,c,id,d,e,f,g\n" + "".join(
        ",".join(row[:3] + [f" r{i} "] + row[3:]) + "\n" for i, row in enumerate(fields)))
    bits = a.view(np.uint64)
    # one-record blocks, a few records, the real size, and the whole body in one np.array call
    for block_fields in (1, 50, matrix_io._BLOCK_FIELDS, 2 * a.size):
        monkeypatch.setattr(matrix_io, "_BLOCK_FIELDS", block_fields)
        matrix = matrix_io.read_matrix_csv(tmp_path / "m.csv")
        ids, names, table = matrix_io.read_table_csv(tmp_path / "t.csv")
        assert matrix.shape == table.shape == a.shape
        assert (matrix.view(np.uint64) == bits).all() and (table.view(np.uint64) == bits).all()
        assert ids == [f"r{i}" for i in range(len(a))] and names == list("abcdefg")


def test_read_peak_memory_is_bounded_by_the_data_not_the_text(tmp_path):
    a = np.random.default_rng(32).normal(size=(20000, 8))
    path = tmp_path / "m.csv"
    np.savetxt(path, a, fmt="%.17g", delimiter=",")
    matrix_io.read_matrix_csv(path)  # warm-up
    tracemalloc.start()
    try:
        data = matrix_io.read_matrix_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(data, a)
    # the blocks, their concatenation and one block's strings; every field held as a str is ~13x
    assert peak < 3 * data.nbytes


# ---------------------------------------------------------------------------
# exit codes


def test_exit_2_on_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\nx,3.0\n")
    code, _, err = run_cli(capsys, ["solve", bad])
    assert code == 2 and "bad.csv:2" in err

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    code, _, err = run_cli(capsys, ["solve", ragged])
    assert code == 2 and "ragged.csv:2" in err

    code, _, _ = run_cli(capsys, ["solve", tmp_path / "missing.csv"])
    assert code == 2


@pytest.mark.parametrize(
    "text, line, message",
    [
        ('id,v\n"loc\n1",1.5\nloc2,oops\n', 4, "not a decimal number: 'oops'"),
        ('id,v\nloc1,1.5\n"loc\n\n2",oops\nloc3,2\n', 3, "not a decimal number: 'oops'"),
        ('id,v\n"loc\n1",1.5\n\n"loc\n2",1.5,2\n', 5, "row has 3 values, expected 2"),
    ],
    ids=["after a two-line id", "in a three-line record", "after a blank line"],
)
def test_rank_parse_error_names_the_line_a_record_starts_on(tmp_path, capsys, text, line, message):
    # a quoted id may span lines: the error names the physical line, not the record's count
    path = tmp_path / "t.csv"
    path.write_text(text)
    code, _, err = run_cli(capsys, ["rank", path, "--out", tmp_path / "out"])
    assert code == 2
    assert err == f"gsvkit rank: input error: {path}:{line}: {message}\n"


# subcommand per reader; each file's fault lies past the ~8 KB the text layer decodes ahead
READER_COMMANDS = {"matrix": "solve", "table": "rank", "probability": "density"}
UNREADABLE = {
    "not UTF-8": (b"1,caf\xe9\n", "not UTF-8 text: byte 0xe9 (invalid continuation byte)"),
    "oversized field": (f"1,{'7' * (csv.field_size_limit() + 1)}\n".encode(),
                        f"field larger than field limit ({csv.field_size_limit()})"),
}


@pytest.mark.parametrize("reader", READER_COMMANDS)
@pytest.mark.parametrize("fault", UNREADABLE)
def test_exit_2_on_an_unreadable_csv(tmp_path, capsys, reader, fault):
    bad, message = UNREADABLE[fault]
    path = tmp_path / "in.csv"
    write_rows(path, reader, [["0.0001"] * CSV_READERS[reader][2]] * 2000)
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines) + bad + b"".join(lines[-2:]))
    code, _, err = run_cli(capsys, [READER_COMMANDS[reader], path, "--out", tmp_path / "out"])
    assert code == 2
    assert err == f"gsvkit {READER_COMMANDS[reader]}: input error: {path}:{len(lines) + 1}: {message}\n"


def test_exit_2_on_gram_overflow_with_one_stderr_line(tmp_path):
    src = os.path.dirname(os.path.dirname(gsvkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for shape in [(3, 2), (1, 3)]:  # the n x n and the M x M Gram
        big = write_matrix(tmp_path / "big.csv", np.full(shape, 1e200))
        proc = subprocess.run(
            [sys.executable, "-m", "gsvkit.cli", "solve", big],
            capture_output=True, text=True, env=env, check=False,
        )
        assert proc.returncode == 2
        [line] = proc.stderr.splitlines()  # no numpy warning: checked before scaling back
        assert re.fullmatch(r"gsvkit solve: input error: lambda_max = [0-9.]+ \* 2\*\*1328 "
                            r"exceeds the float64 range", line), line


def test_import_does_not_load_scipy():
    # Only the coil path needs scipy.linalg, which adds ~0.2 s to every CLI start.
    src = os.path.dirname(os.path.dirname(gsvkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, gsvkit, gsvkit.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert proc.stdout.strip() == "[]"


COLD_CLI = r"""
import sys
from gsvkit.cli import main

code = main(sys.argv[1:])
print(code, "scipy.linalg" in sys.modules)
"""


def test_cold_small_solve_and_rank_do_not_load_scipy(tmp_path):
    # Below the subset eigensolver's crossover, solve and rank run numpy's eigh alone.
    rng = np.random.default_rng(3)
    mats = [write_matrix(tmp_path / f"m{i}.csv", rng.standard_normal((40, 8))) for i in range(3)]
    src = os.path.dirname(os.path.dirname(gsvkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv in (["solve", *mats, "--oracle-samples", "1000"], ["rank", SAMPLE_CSV]):
        proc = subprocess.run([sys.executable, "-c", COLD_CLI, *argv, "--out", str(tmp_path)],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, check=True)
        assert proc.stdout.splitlines()[-1] == "0 False", (argv[0], proc.stderr)


def test_exit_2_on_shape_mismatch(tmp_path, capsys):
    a = write_matrix(tmp_path / "a.csv", np.eye(2))
    b = write_matrix(tmp_path / "b.csv", np.eye(3))
    code, _, err = run_cli(capsys, ["solve", a, b])
    # OperatorStack's ShapeMismatch: the files parsed, so no line is named, but its stack index
    # names the file
    assert code == 2
    assert err == f"gsvkit solve: input error: {b}: matrix 1 has 3 columns, expected 2\n"


def test_shape_error_names_the_argument_at_its_index(tmp_path, capsys):
    # a path given twice: the error's stack index, not a lookup by name, picks the file
    a = write_matrix(tmp_path / "a.csv", np.eye(2))
    b3 = write_matrix(tmp_path / "b3.csv", np.ones((2, 3)))
    for argv, named, message in [([a, a, b3], b3, "matrix 2 has 3 columns, expected 2"),
                                 ([b3, b3, a], a, "matrix 2 has 2 columns, expected 3")]:
        code, _, err = run_cli(capsys, ["solve", *argv, "--out", tmp_path / "out"])
        assert code == 2 and err == f"gsvkit solve: input error: {named}: {message}\n"


@pytest.mark.parametrize(
    "name, bad, cls, message, named",
    [pytest.param("ez.csv", np.ones((8, 4)), ShapeMismatch, "matrix 2 has 4 columns, expected 5",
                  "ez.csv", id="field"),
     pytest.param("r.csv", np.eye(4), ShapeMismatch,
                  "resistance must be 5 x 5 to match the field matrices, got (4, 4)", "r.csv",
                  id="resistance"),
     pytest.param("r.csv", np.ones((4, 5)), NotSymmetric,
                  "resistance matrix is not square: shape (4, 5)", "r.csv",
                  id="nonsquare_resistance"),
     pytest.param("r.csv", np.eye(5) + np.triu(np.ones((5, 5)), 1), NotSymmetric,
                  "resistance matrix is not symmetric: relative asymmetry 1.155e+00 exceeds 1e-10",
                  "r.csv", id="asymmetric_resistance")],
)
def test_coil_exit_2_on_shape_mismatch(tmp_path, capsys, name, bad, cls, message, named):
    # WeightedProblem's own class and message, whichever input is off; the error's input index
    # names its file: a field's stack position, or R's after the three fields
    _, paths, r_path = _coil_fixture(tmp_path, np.random.default_rng(87), np.eye(5))
    write_matrix(tmp_path / name, bad)
    with pytest.raises(cls) as exc_info:
        cli.cmd_coil(*paths, r_path, out=tmp_path / "out")
    assert str(exc_info.value) == message
    code, _, err = run_cli(capsys, ["coil", *paths, r_path])
    where = f"{tmp_path / named}: " if named else ""
    assert code == 2 and err == f"gsvkit coil: input error: {where}{message}\n"


def test_coil_accepts_fields_of_unequal_heights(tmp_path, capsys):
    rng = np.random.default_rng(88)
    fields = tuple(rng.normal(size=(h, 5)) for h in (3, 7, 5))
    paths = [write_matrix(tmp_path / f"e{i}.csv", f) for i, f in enumerate(fields)]
    r = np.eye(5) + 0.1 * np.ones((5, 5))
    code, report, _ = run_cli(
        capsys, ["coil", *paths, write_matrix(tmp_path / "r.csv", r), "--out", tmp_path / "out"]
    )
    assert code == 0
    psi, solution = weighted_gsv_solve(WeightedProblem(fields, r))
    np.testing.assert_array_equal(
        matrix_io.read_matrix_csv(tmp_path / "out" / "psi.csv").ravel(), psi
    )
    assert report["lambda_max"] == solution.lambda_max


def test_exit_2_on_bad_rho_header(tmp_path, capsys):
    rho = tmp_path / "rho.csv"
    rho.write_text("p\n0.5\n")
    code, _, _ = run_cli(capsys, ["density", rho])
    assert code == 2


def test_exit_3_on_degenerate_solve(tmp_path, capsys):
    a = write_matrix(tmp_path / "z.csv", np.zeros((3, 2)))
    code, _, err = run_cli(capsys, ["solve", a])
    assert code == 3 and "solver failure" in err


def test_exit_3_on_a_failed_solve_post_condition(tmp_path, capsys, monkeypatch):
    # an objective re-evaluation 1e-6 off lambda_max = 4 stands in for a wrong eigensolve: the
    # post-condition gsv_solve checks raises ConvergenceFailure, which main maps to exit 3
    a = write_matrix(tmp_path / "a.csv", np.diag([2.0, 1.0]))
    monkeypatch.setattr(gsv_solver, "_objective", lambda *_: 4.0 * (1.0 + 1e-6))
    code, _, err = run_cli(capsys, ["solve", a, "--out", tmp_path / "out"])
    assert code == 3
    assert err.startswith("gsvkit solve: solver failure: objective check ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_exit_4_on_not_spd(tmp_path, capsys):
    rng = np.random.default_rng(86)
    _, paths, _ = _coil_fixture(tmp_path, rng, np.eye(5))
    bad_r = write_matrix(tmp_path / "badr.csv", np.diag([1.0, 1.0, -1.0, 1.0, 1.0]))
    code, _, err = run_cli(capsys, ["coil", *paths, bad_r])
    assert code == 4 and "pivot 3" in err


def test_exit_5_on_constant_column(tmp_path, capsys):
    data = tmp_path / "const.csv"
    data.write_text("id,a,b\nr0,1.0,2.0\nr1,2.0,2.0\nr2,3.0,2.0\n")
    code, _, err = run_cli(capsys, ["rank", data])
    assert code == 5 and "'b'" in err


# each sums to within the 1e-12 mass tolerance, with one rho_n > 1 at the given index
MASS_JUST_OVER_ONE = [
    ([1 + 3e-14] + [9.7e-16] * 1000, 1),
    ([1 + 1e-14], 1),
    ([1 + 1e-12], 1),
    ([1 + 5e-13, 5e-13], 1),
    ([5e-13, 1 + 5e-13], 2),
]


def test_exit_6_on_bad_probabilities(tmp_path, capsys):
    neg = tmp_path / "neg.csv"
    neg.write_text("rho\n0.5\n-0.1\n")
    code, _, _ = run_cli(capsys, ["density", neg])
    assert code == 6

    heavy = tmp_path / "heavy.csv"
    heavy.write_text("rho\n0.8\n0.4\n")
    code, _, _ = run_cli(capsys, ["density", heavy])
    assert code == 6

    for probs, index in MASS_JUST_OVER_ONE:
        over = tmp_path / "over.csv"
        over.write_text("rho\n" + "\n".join(map(repr, probs)) + "\n")
        code, _, err = run_cli(capsys, ["density", over])
        assert code == 6 and f"probability above 1 at index {index}" in err


@pytest.mark.parametrize(
    "argv, message",
    # literal ids: a row added or deleted renames no other case
    [
        # the merge tolerance is fixed, not a flag, on every subcommand
        pytest.param(["solve", "{a}", "--gap-rtol", "1e-10"],
                     "unrecognized arguments: --gap-rtol 1e-10",
                     id="argv0-unrecognized arguments: --gap-rtol 1e-10"),
        pytest.param(["coil", "{a}", "{a}", "{a}", "{a}", "--gap-rtol", "1e-10"],
                     "unrecognized arguments: --gap-rtol 1e-10",
                     id="argv1-unrecognized arguments: --gap-rtol 1e-10"),
        pytest.param(["rank", "{a}", "--gap-rtol", "1e-10"],
                     "unrecognized arguments: --gap-rtol 1e-10",
                     id="argv2-unrecognized arguments: --gap-rtol 1e-10"),
        pytest.param(["density", "{rho}", "--trials", "0"], "must be at least 1, got 0",
                     id="argv3-must be at least 1, got 0"),
        pytest.param(["solve", "{a}", "--oracle-samples", "-1"], "must be at least 0, got -1",
                     id="argv4-must be at least 0, got -1"),
        pytest.param(["rank", "{a}", "--seed", "1"], "unrecognized arguments: --seed 1",
                     id="argv5-unrecognized arguments: --seed 1"),
        pytest.param(["coil", "{a}", "{a}", "{a}", "{a}", "--oracle-samples", "5"],
                     "unrecognized arguments: --oracle-samples 5",
                     id="argv6-unrecognized arguments: --oracle-samples 5"),
        pytest.param(["density", "{rho}", "--gap-rtol", "1e-8"],
                     "unrecognized arguments: --gap-rtol 1e-8",
                     id="argv7-unrecognized arguments: --gap-rtol 1e-8"),
        pytest.param(["solve", "{a}", "--oracle-samples", "10", "--seed", "-1"],
                     "must be at least 0, got -1", id="argv8-must be at least 0, got -1"),
        pytest.param(["density", "{rho}", "--seed", "-1"], "must be at least 0, got -1",
                     id="argv9-must be at least 0, got -1"),
        # rank always standardizes: there is no second ranking path to select
        pytest.param(["rank", "{a}", "--no-standardize"],
                     "unrecognized arguments: --no-standardize",
                     id="rank-no-standardize-unrecognized"),
    ],
)
def test_exit_2_with_usage_on_bad_flag_values(tmp_path, capsys, argv, message):
    files = {"a": write_matrix(tmp_path / "a.csv", np.eye(2)), "rho": tmp_path / "rho.csv"}
    files["rho"].write_text("rho\n0.5\n")
    with pytest.raises(SystemExit) as exc_info:
        cli.main([str(arg).format(**files) for arg in argv])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: gsvkit") and message in err
    assert "Traceback" not in err


# The README's "Exit codes" table; every other GsvError is an input error (2).
README_EXIT_CODES = {
    "AllZero": 3,
    "ConvergenceFailure": 3,
    "NotSPD": 4,
    "ConstantVector": 5,
    "NegativeProbability": 6,
    "MassExceedsOne": 6,
}


@pytest.mark.parametrize(
    "cls", [GsvError, *GsvError.__subclasses__()], ids=lambda cls: cls.__name__
)
def test_error_exit_codes_match_readme_table(cls):
    assert cls.exit_code == README_EXIT_CODES.get(cls.__name__, 2)
