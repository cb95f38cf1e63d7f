"""Acceptance suite: one test per shipped guarantee, with pinned tolerances.

Each test prints a single ``criterion NN <name>: PASS`` line (visible with
``pytest -s`` or on failure) and enforces its runtime budget where one is
declared.  Run with ``pytest tests/test_acceptance.py -v``.
"""

import importlib.resources
import time

import numpy as np

from gsvkit import cli, matrix_io
from gsvkit.density_model import (
    DensityModel,
    check_positivity_chain,
    density_norm,
    density_trace,
)
from gsvkit.gsv_solver import (
    WeightedProblem,
    brute_force_max,
    gsv_solve,
    objective_value,
    weighted_gsv_solve,
)
from gsvkit.stat_norm import StatMatrix

from helpers import standardized

SAMPLE_CSV = str(importlib.resources.files("gsvkit") / "data" / "sample_locations.csv")


def _report(number, name, passed):
    print(f"criterion {number:02d} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number:02d} {name} failed"


def _random_equal_norm_2col(rng, m):
    a1 = rng.normal(size=m)
    a2 = rng.normal(size=m)
    a2 *= np.linalg.norm(a1) / np.linalg.norm(a2)
    return np.column_stack([a1, a2])


def closed_form_2col(a):
    """The paper's closed form for one m x 2 matrix with equal-norm columns a1, a2.

    The maximum is ``||a1||^2 + |a1 . a2|``, attained at ``(sign(a1 . a2), 1) / sqrt(2)`` up
    to sign when ``a1 . a2 != 0``.  Returns ``(lambda, x)``.
    """
    a1, a2 = a[:, 0], a[:, 1]
    dot = float(a1 @ a2)
    return float(a1 @ a1) + abs(dot), np.array([np.sign(dot), 1.0]) * (np.sqrt(2.0) / 2.0)


def test_criterion_01_two_column_closed_form():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    ok = True
    checked = 0
    while checked < 1000:
        m = int(rng.integers(3, 51))
        a = _random_equal_norm_2col(rng, m)
        if abs(a[:, 0] @ a[:, 1]) < 1e-6 * (a[:, 0] @ a[:, 0]):
            continue  # degenerate dot products have their own whole-sphere branch
        lam, v_c = closed_form_2col(a)
        eig = gsv_solve([a])
        ok &= abs(lam - eig.lambda_max) <= 1e-10 * max(1.0, lam)
        v_e = eig.basis[:, 0]
        ok &= bool(
            np.allclose(v_c, v_e, atol=1e-8) or np.allclose(v_c, -v_e, atol=1e-8)
        )
        checked += 1
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(1, "two-column closed form agrees with the eigen solver", ok)


def test_criterion_02_oracle_sandwich():
    rng = np.random.default_rng(123)
    start = time.perf_counter()
    ok = True
    for i in range(200):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(1, 5))
        stack = [rng.normal(size=(int(rng.integers(1, 21)), n)) for _ in range(k)]
        lam = gsv_solve(stack).lambda_max
        lower = brute_force_max(stack, 10**6, seed=12345 + i)
        ok &= lower <= lam + 1e-9
        ok &= lam - lower <= 1e-3 * max(1.0, lam)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _report(2, "sampled lower bound sandwiches lambda_max", ok)


def test_criterion_03_quotient_minimality():
    rng = np.random.default_rng(1003)
    ok = True
    for _ in range(100):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(2, 6))
        stack = [rng.normal(size=(int(rng.integers(2, 9)), n)) for _ in range(k)]
        sol = gsv_solve(stack)
        q_solution = 1.0 / objective_value(stack, sol.basis[:, 0])
        x = rng.normal(size=(n, 10**4))
        stacked = np.vstack(stack)
        y = stacked @ x
        denom = np.einsum("ij,ij->j", y, y)
        keep = denom > 0.0
        quotients = np.einsum("ij,ij->j", x[:, keep], x[:, keep]) / denom[keep]
        ok &= bool(np.all(q_solution <= quotients * (1.0 + 1e-12)))
    _report(3, "solution minimizes the inverted quotient", ok)


def test_criterion_04_eigen_residual_everywhere():
    rng = np.random.default_rng(1004)
    ok = True
    for _ in range(60):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 9))
        scale = 10.0 ** rng.integers(-3, 4)
        stack = [
            scale * rng.normal(size=(int(rng.integers(1, 12)), n)) for _ in range(k)
        ]
        sol = gsv_solve(stack)
        s = sum(a.T @ a for a in stack)
        for j in range(sol.multiplicity):
            v = sol.basis[:, j]
            residual = np.linalg.norm(s @ v - sol.lambda_max * v)
            ok &= residual <= 1e-8 * sol.lambda_max
    _report(4, "eigen residual bound holds for every basis vector", ok)


def test_criterion_05_halving_density_example():
    start = time.perf_counter()
    model = DensityModel(0.5 ** np.arange(1, 31))
    norm, support_index = density_norm(model)
    trace = density_trace(model)
    chain = check_positivity_chain(model)
    ok = (
        abs(norm - 0.5) <= 1e-15
        and support_index == 1
        and abs(trace - (1.0 - 2.0**-30)) <= 1e-15
        and chain
    )
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report(5, "halving-probability model: norm, support, trace, chain", ok)


def _pair_identities_hold(x, y):
    """``||x||^2 = m``, ``|x . y| <= m`` and ``x . y = (||x + y||^2 - 2m) / 2``, each to 1e-10 m."""
    m = x.shape[0]
    dot = float(x @ y)
    return bool(
        abs(float(np.sum(x**2)) - m) <= 1e-10 * m
        and abs(dot) <= m + 1e-10 * m
        and abs(dot - (float(np.sum((x + y) ** 2)) - 2.0 * m) / 2.0) <= 1e-10 * m
    )


def test_criterion_06_standardization_identities():
    rng = np.random.default_rng(1006)
    ok = True
    for _ in range(1000):
        m = int(rng.integers(2, 51))
        shift = rng.normal() * 50.0
        scale = rng.uniform(0.1, 10.0)
        x = standardized(rng.normal(size=m) * scale + shift)
        y = standardized(rng.normal(size=m) * scale - shift)
        ok &= _pair_identities_hold(x, y)
    for pair in ([4.0, -1.5], [-3.0, 7.0], [1e-8, 2e-8], [1e12, -1e12]):
        values = standardized(pair)
        ok &= bool(
            np.array_equal(values, [1.0, -1.0]) or np.array_equal(values, [-1.0, 1.0])
        )
    # the same identities between the columns of a standardized table
    for _ in range(200):
        m, n = int(rng.integers(2, 51)), int(rng.integers(2, 6))
        raw = rng.normal(size=(m, n)) * rng.uniform(0.1, 10.0, n) + rng.normal(size=n) * 50.0
        data = StatMatrix.from_raw(raw).data
        for j in range(n):
            ok &= _pair_identities_hold(data[:, j], data[:, (j + 1) % n])
    _report(6, "standardization norm and pair identities", ok)


def _kkt_stream(rng):
    """Seeded ``(stack, plane)`` pairs: many_small's shapes (n in [2, 8], rows in [1, 20], k in
    [1, 5]) on both solve sides, then equal-coupling systems c (J - I) + shift I, whose top
    eigenspace is the zero-sum plane (c < 0, ``plane``: n - 1 fold; n - 2 fold with a row
    dropped) or the uniform point (c > 0)."""
    for i in range(400):
        n = int(rng.integers(2, 9))
        if i % 2:  # the wide side: fewer rows in all than columns
            sizes = [int(rng.integers(1, n))]
        else:
            sizes = rng.integers(1, 21, size=int(rng.integers(1, 6)))
        yield [rng.standard_normal((int(m), n)) for m in sizes], False
    for n in range(2, 9):
        for c in (-3.0, -0.5, -2.0):
            centering = np.sqrt(-n * c) * (np.eye(n) - 1.0 / n)  # Gram c (J - I) - (n - 1) c I
            yield [centering], True
            yield [centering[: n - 1]], False
        yield [np.full((1, n), np.sqrt(2.0))], False  # Gram c J with c = 2


def test_criterion_07_critical_points_of_equal_coupling_systems():
    # the sphere-constrained Lagrange system S x = lambda x, x . x = 1 at every returned basis
    # column, with the Gram sum S formed here
    rng = np.random.default_rng(1007)
    ok = True
    kinds = {"tall": 0, "wide": 0, "multiple": 0}
    for stack, plane in _kkt_stream(rng):
        sol = gsv_solve(stack)
        s = sum(a.T @ a for a in stack)
        lam, b = sol.lambda_max, sol.basis
        ok &= bool(np.all(np.linalg.norm(s @ b - lam * b, axis=0) <= 1e-8 * lam))
        ok &= bool(np.all(np.abs(np.sum(b * b, axis=0) - 1.0) <= 1e-12))
        kinds["wide" if sum(a.shape[0] for a in stack) < b.shape[0] else "tall"] += 1
        kinds["multiple"] += sol.multiplicity > 1
        if plane:  # the zero-sum plane, whole: every unit SNV is critical
            ok &= sol.multiplicity == b.shape[0] - 1
            x = standardized(rng.normal(size=b.shape[0]))
            x = x / np.linalg.norm(x)
            ok &= bool(np.linalg.norm(s @ x - lam * x) <= 1e-8 * lam)
    ok &= min(kinds.values()) >= 20
    for c in (-3.0, 0.5, 2.0):
        # multipliers that make the n=3 system singular: {c/2 (double), -c}
        off = c * (np.ones((3, 3)) - np.eye(3))
        roots = np.sort(np.linalg.eigvalsh(-off / 2.0))
        ok &= bool(
            np.allclose(roots, np.sort([c / 2.0, c / 2.0, -c]), atol=1e-12)
        )
    _report(7, "critical-system residuals and n=3 multiplier roots", ok)


def test_criterion_08_coil_pipeline():
    rng = np.random.default_rng(1008)
    start = time.perf_counter()
    fields = tuple(rng.normal(size=(40, 60)) for _ in range(3))
    l = rng.normal(size=(60, 60))
    r = l.T @ l + 1e-3 * np.eye(60)
    psi, sol = weighted_gsv_solve(WeightedProblem(fields, r))
    r_sym = (r + r.T) / 2.0
    ok = abs(psi @ r_sym @ psi - 1.0) <= 1e-8
    # KKT residual of the whitened system, recomputed independently
    c = np.linalg.cholesky(r_sym).T
    whitened = [np.linalg.solve(c.T, e.T).T for e in fields]
    s = sum(a.T @ a for a in whitened)
    phi = sol.basis[:, 0]
    ok &= np.linalg.norm(s @ phi - sol.lambda_max * phi) <= 1e-8 * sol.lambda_max

    identity_psi, identity_sol = weighted_gsv_solve(WeightedProblem(fields, np.eye(60)))
    plain = gsv_solve(fields)
    ok &= identity_sol.lambda_max == plain.lambda_max
    ok &= bool(np.array_equal(identity_sol.basis, plain.basis))
    ok &= bool(np.array_equal(identity_psi, plain.basis[:, 0]))

    _, quarter_sol = weighted_gsv_solve(WeightedProblem(fields, 4.0 * np.eye(60)))
    ok &= abs(quarter_sol.lambda_max - plain.lambda_max / 4.0) <= 1e-12 * (
        plain.lambda_max / 4.0
    )
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _report(8, "energy-constrained pipeline: unit energy, KKT, scaling", ok)


def test_criterion_09_ranking_determinism(tmp_path):
    blobs = set()
    for i in range(10):
        out = tmp_path / f"run{i}"
        cli.cmd_rank(SAMPLE_CSV, out=out)
        blobs.add((out / "ranking.csv").read_bytes())
    # independently of the solver: the top eigenvalue of the standardized sample's Gram stands
    # clear of the next by far more than any merge tolerance, so none can move the ranking
    ids, _, raw = matrix_io.read_table_csv(SAMPLE_CSV)
    std = (raw - raw.mean(axis=0)) / raw.std(axis=0)
    w = np.linalg.eigvalsh(std.T @ std)
    ok = len(blobs) == 1 and len(ids) == 52 and raw.shape == (52, 3)
    ok &= (w[-1] - w[-2]) / w[-1] > 1e-8
    _report(9, "bundled sample ranking is run- and tolerance-invariant", bool(ok))


def test_criterion_10_cli_contract(tmp_path):
    rng = np.random.default_rng(1010)
    ok = True

    # golden inputs for the four subcommands
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    matrix_io.write_matrix_csv(a, np.diag([1.0, 0.0]))
    matrix_io.write_matrix_csv(b, np.diag([0.0, 2.0]))
    field_paths = []
    for i in range(3):
        p = tmp_path / f"e{i}.csv"
        matrix_io.write_matrix_csv(p, rng.normal(size=(8, 5)))
        field_paths.append(str(p))
    l = rng.normal(size=(5, 5))
    r_path = tmp_path / "r.csv"
    matrix_io.write_matrix_csv(r_path, l.T @ l + 1e-2 * np.eye(5))
    rho = tmp_path / "rho.csv"
    rho.write_text("rho\n" + "\n".join(repr(0.5**n) for n in range(1, 31)) + "\n")

    golden = [
        (["solve", str(a), str(b), "--oracle-samples", "10000", "--seed", "42"],
         ["solution.json"]),
        (["coil", *field_paths, str(r_path)], ["psi.csv", "psi_normalized.csv"]),
        (["rank", SAMPLE_CSV], ["ranking.csv", "scores_plot.csv"]),
        (["density", str(rho), "--seed", "42"], ["density.json"]),
    ]
    for argv, files in golden:
        for fname in files:
            blobs = set()
            for i in range(2):
                out = tmp_path / f"{argv[0]}_{fname}_{i}"
                code = cli.main([*argv, "--out", str(out)])
                ok &= code == 0
                blobs.add((out / fname).read_bytes())
            ok &= len(blobs) == 1

    # documented exit codes on malformed fixtures
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,oops\n")
    ok &= cli.main(["solve", str(bad)]) == 2
    zero = tmp_path / "zero.csv"
    matrix_io.write_matrix_csv(zero, np.zeros((2, 2)))
    ok &= cli.main(["solve", str(zero)]) == 3
    not_spd = tmp_path / "notspd.csv"
    matrix_io.write_matrix_csv(not_spd, np.diag([1.0, -1.0, 1.0, 1.0, 1.0]))
    ok &= cli.main(["coil", *field_paths, str(not_spd)]) == 4
    const = tmp_path / "const.csv"
    const.write_text("id,a,b\nr0,1.0,3.0\nr1,2.0,3.0\nr2,4.0,3.0\n")
    ok &= cli.main(["rank", str(const)]) == 5
    neg = tmp_path / "neg.csv"
    neg.write_text("rho\n-0.5\n")
    ok &= cli.main(["density", str(neg)]) == 6
    _report(10, "CLI determinism and documented exit codes", ok)
