"""Batch front-end: file ingestion, subcommand dispatch, machine-readable reports.

Subcommands: ``gsvkit solve|coil|rank|density``, each writing deterministic result files into
``--out`` and emitting a JSON run report on stdout.  The arrays ``matrix_io`` reads go to the
library unchecked, and it raises its own error class; an error's input ``index`` (a stack
matrix's, or ``coil``'s R) prints that argument's path first.  The parser owns every flag's default.

Exit codes: 0 success, else the ``exit_code`` of the GsvError raised (see
``errors``); an unreadable file or a bad flag value exits 2, an input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import matrix_io
from .density_model import DensityModel, chain_margin, check_positivity_chain, density_norm, density_trace
from .errors import GsvError
from .gsv_solver import OperatorStack, WeightedProblem, brute_force_max, gsv_solve, weighted_gsv_solve
from .stat_norm import StatMatrix, score_rows

SCHEMA_VERSION = 1

# Stderr prefix per exit code; codes 4-6 name their failure in the message.
_PREFIXES = {2: "input error: ", 3: "solver failure: "}

# An id the csv module's QUOTE_MINIMAL rule would quote when writing it.
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _sha256(path):
    """Hex SHA-256 of a file, read in 1 MiB blocks rather than whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _report(subcommand, inputs, outputs, start, solution=None, **extra):
    """The JSON run report; extras (``psi_r_psi``, ``seed``) that are ``None`` are left out."""
    report = {
        "schema": SCHEMA_VERSION,
        "subcommand": subcommand,
        "inputs": {str(p): _sha256(p) for p in inputs},
    }
    if solution is not None:
        report.update(lambda_max=solution.lambda_max, multiplicity=solution.multiplicity,
                      residual=solution.residual)
    report.update((key, value) for key, value in extra.items() if value is not None)
    report["outputs"] = [str(p) for p in outputs]
    report["wall_time_ms"] = int((time.perf_counter() - start) * 1000)
    return report


def _out_dir(out):
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
    return path


def cmd_solve(matrix_files, oracle_samples, seed, out) -> dict:
    """Solve the stacked maximization for matrices read from headerless CSVs.

    Writes ``solution.json``; with ``oracle_samples > 0`` the sampled
    lower bound and its gap to lambda_max are included.
    """
    start = time.perf_counter()
    stack = OperatorStack(tuple(matrix_io.read_matrix_csv(path) for path in matrix_files))
    solution = gsv_solve(stack)
    payload = {
        "lambda_max": solution.lambda_max,
        "basis": [list(row) for row in solution.basis],
        "multiplicity": solution.multiplicity,
        "residual": solution.residual,
    }
    sampling = oracle_samples > 0
    if sampling:
        lower = brute_force_max(stack, oracle_samples, seed)
        payload["oracle_lower_bound"] = lower
        payload["oracle_gap"] = solution.lambda_max - lower
    out_path = _write_json(_out_dir(out) / "solution.json", payload)
    return _report("solve", matrix_files, [out_path], start, solution,
                   seed=seed if sampling else None)


def cmd_coil(ex, ey, ez, r, out) -> dict:
    """Energy-constrained solve for field matrices E_x, E_y, E_z and resistance R.

    Writes ``psi.csv`` (one nodal value per row) and ``psi_normalized.csv``
    (psi scaled by its entry of largest magnitude, the colormap quantity).
    """
    start = time.perf_counter()
    fields = tuple(matrix_io.read_matrix_csv(path) for path in (ex, ey, ez))
    prob = WeightedProblem(fields, matrix_io.read_matrix_csv(r))
    psi, solution = weighted_gsv_solve(prob)
    energy = float(psi @ (prob.resistance @ psi))
    out_base = _out_dir(out)
    psi_path = out_base / "psi.csv"
    norm_path = out_base / "psi_normalized.csv"
    matrix_io.write_vector_csv(psi_path, psi)
    psi_max = psi[np.argmax(np.abs(psi))]
    matrix_io.write_vector_csv(norm_path, psi / psi_max)
    return _report("coil", [ex, ey, ez, r], [psi_path, norm_path], start, solution,
                   psi_r_psi=energy)


def cmd_rank(data, out) -> dict:
    """Rank table rows by their supporting-vector scores, standardizing every column first.

    Writes ``ranking.csv`` (rank, id, score; descending score) and
    ``scores_plot.csv`` (id, score in input order, bar-chart ready); an id
    is CSV-quoted where the csv module would quote it.
    """
    start = time.perf_counter()
    ids, names, raw = matrix_io.read_table_csv(data)
    scores, solution = score_rows(StatMatrix.from_raw(raw, columns=names))
    order = np.argsort(-scores, kind="stable")
    ids = ['"' + i.replace('"', '""') + '"' if _NEEDS_QUOTES.search(i) else i for i in ids]
    out_base = _out_dir(out)
    rank_path = out_base / "ranking.csv"
    plot_path = out_base / "scores_plot.csv"
    cells = [f"{row_id},{matrix_io.format_float(s)}\n" for row_id, s in zip(ids, scores)]
    with open(rank_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("rank,id,score\n")
        fh.writelines(f"{pos},{cells[i]}" for pos, i in enumerate(order, start=1))
    with open(plot_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("id,score\n")
        fh.writelines(cells)
    return _report("rank", [data], [rank_path, plot_path], start, solution)


def cmd_density(rho, out) -> dict:
    """Evaluate a truncated probability density model read from a rho CSV.

    Writes ``density.json`` with the operator norm, supporting state index, trace, tail mass,
    the exact positivity-chain verdict and margin, and ``norm_upper``: an unlisted state may
    carry the tail, so ``support_index`` is certified only if ``norm >= tail``.
    """
    start = time.perf_counter()
    probs = matrix_io.read_probability_csv(rho)
    model = DensityModel(probs)
    norm, support_index = density_norm(model)
    payload = {
        "norm": norm,
        "support_index": support_index,
        "trace": density_trace(model),
        "tail": model.tail,
        "positivity_chain_ok": check_positivity_chain(model),
        "chain_margin": chain_margin(model),
        "norm_upper": max(norm, model.tail),
        "support_certified": norm >= model.tail,
    }
    out_path = _write_json(_out_dir(out) / "density.json", payload)
    return _report("density", [rho], [out_path], start)


def _checked(convert, ok, rule):
    """argparse type converting with ``convert`` and rejecting values failing ``ok``."""

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gsvkit",
        description="Compute generalized supporting vectors and run the application pipelines.",
    )
    # one parent per shared flag; each subcommand takes exactly the flags its cmd_* reads, bar
    # density's --seed and --trials: checked, kept for existing scripts, passed to no function
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", default=42,
                      type=_checked(int, lambda v: v >= 0, "must be at least 0"),
                      help="seed for solve's oracle sampling; no effect on density (default 42)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=".", help="output directory (default .)")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_solve = sub.add_parser("solve", parents=[seed, out],
                             help="maximize the stacked objective for CSV matrices")
    p_solve.add_argument("matrices", nargs="+", help="headerless CSV matrix files")
    p_solve.add_argument("--oracle-samples", default=0,
                         type=_checked(int, lambda v: v >= 0, "must be at least 0"),
                         help="sphere samples for the lower-bound oracle (default 0 = off)")
    p_solve.set_defaults(run=lambda a: cmd_solve(
        a.matrices, oracle_samples=a.oracle_samples, seed=a.seed, out=a.out),
        stack=lambda a: a.matrices)

    p_coil = sub.add_parser("coil", parents=[out],
                            help="energy-constrained solve for field matrices")
    p_coil.add_argument("ex", help="E_x field matrix CSV (H_x x N)")
    p_coil.add_argument("ey", help="E_y field matrix CSV (H_y x N)")
    p_coil.add_argument("ez", help="E_z field matrix CSV (H_z x N)")
    p_coil.add_argument("r", help="SPD resistance matrix CSV (N x N)")
    p_coil.set_defaults(run=lambda a: cmd_coil(a.ex, a.ey, a.ez, a.r, out=a.out),
                        stack=lambda a: (a.ex, a.ey, a.ez, a.r))  # R after the fields

    p_rank = sub.add_parser("rank", parents=[out],
                            help="rank table rows by supporting-vector score")
    p_rank.add_argument("data", help="CSV with an 'id' column plus numeric columns")
    p_rank.set_defaults(run=lambda a: cmd_rank(a.data, out=a.out))

    p_density = sub.add_parser("density", parents=[seed, out],
                               help="evaluate a truncated probability density model")
    p_density.add_argument("rho", help="single-column CSV with header 'rho'")
    p_density.add_argument("--trials", default=10000,
                           type=_checked(int, lambda v: v >= 1, "must be at least 1"),
                           help="no effect: the chain is decided exactly (default 10000)")
    p_density.set_defaults(run=lambda a: cmd_density(a.rho, out=a.out))

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        report = args.run(args)
    except (GsvError, OSError) as exc:
        code = getattr(exc, "exit_code", 2)  # an unreadable file is an input error
        index = getattr(exc, "index", None)  # an input matrix's position: name its file
        where = "" if index is None else f"{args.stack(args)[index]}: "
        print(f"gsvkit {args.subcommand}: {_PREFIXES.get(code, '')}{where}{exc}", file=sys.stderr)
        return code
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
