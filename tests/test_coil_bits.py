"""Bit-identity battery for the coil path: every weighted-solve output against a reference.

Each case compares psi, lambda_max, basis, residual and objective_check, bit for bit, with
the previous algorithm, kept below as a reference: a symmetrized copy of every resistance,
a Cholesky factor with its lower triangle zeroed, and one triangular solve per field.  Both
run on the same BLAS, so the comparison holds on every platform.

Pinned hashes of the same outputs, and of the bytes ``gsvkit coil`` writes, add a check
against the machine that pinned them.  Bits depend on the BLAS/LAPACK build and on the CPU
kernel it picks at run time, so those tests run only where a canary of raw LAPACK calls on
fixed inputs reproduces its pinned bits; elsewhere they skip, saying why.  Past the BLAS block
sizes the thread count decides bits too (an order-600 ``dpotrf`` gives other bits on one
thread than on two), so the ``blocked`` case's hash also needs a second canary, of the same
calls at that case's sizes.  A pinned hash is never re-pinned to make a change pass.
"""

import functools
import hashlib

import numpy as np
import pytest

from gsvkit import cli, matrix_io
from gsvkit.gsv_solver import WeightedProblem, gsv_solve, weighted_gsv_solve
from gsvkit.spectra_core import _peak, _rescaled


def _digest(*values):
    h = hashlib.sha256()
    for v in values:
        v = np.ascontiguousarray(v, dtype=float)
        h.update(repr(v.shape).encode())
        h.update(v.tobytes())
    return h.hexdigest()[:16]


@functools.cache
def _canary():
    """Hash of dpotrf, dtrsm, dsyevr and dsyevd outputs on fixed inputs: the platform's bits."""
    from scipy.linalg import lapack, solve_triangular

    rng = np.random.default_rng(7)
    b = rng.standard_normal((40, 40))
    c, _ = lapack.dpotrf(b @ b.T + 40.0 * np.eye(40), lower=0, clean=1)
    w = solve_triangular(c, rng.standard_normal((40, 30)), trans="T", check_finite=False)
    ev, v, _, _, _ = lapack.dsyevr(w @ w.T, range="I", il=39, iu=40)
    return _digest(c, w, ev, v, *np.linalg.eigh(w.T @ w))


CANARY = "89d9b2727acb9c01"


@functools.cache
def _blocked_canary():
    """The ``blocked`` case's calls at its sizes: order-600 dpotrf and dtrsm, order-180 Gram
    and dsyevr."""
    from scipy.linalg import lapack, solve_triangular

    rng = np.random.default_rng(8)
    b = rng.standard_normal((600, 600))
    c, _ = lapack.dpotrf(b @ b.T / 600 + np.eye(600), lower=0, clean=1)
    w = solve_triangular(c, rng.standard_normal((180, 600)).T, trans="T", check_finite=False).T
    ev, v, _, _, _ = lapack.dsyevr(w @ w.T, range="I", il=179, iu=180)
    return _digest(c, w, ev, v)


# pinned with OpenBLAS 0.3.31 (Haswell kernels) on its default thread count, 2
BLOCKED_CANARY = "0f197ee66b0f70d5"


def skip_unless_pinned_platform():
    if _canary() != CANARY:
        pytest.skip("this BLAS/LAPACK build gives other bits than the pinned ones")


@functools.cache
def _cases():
    rng = np.random.default_rng(1616)

    def spd(n):
        b = rng.standard_normal((n, n))
        return b @ b.T / n + np.eye(n)  # b @ b.T is exactly symmetric (a mirrored update)

    def fields(heights, n):
        return [rng.standard_normal((h, n)) for h in heights]

    r = spd(40)
    wide = fields((10, 10, 10), 40)
    signed_zero = spd(24)
    signed_zero[0, 5], signed_zero[5, 0] = 0.0, -0.0
    return {
        "wide": (wide, r),  # 3H < N: the 3H x 3H side
        "tall": (fields((20, 20, 20), 40), r),  # 3H >= N: the n side, dsyevr
        "unequal_heights": (fields((3, 7, 5), 24), spd(24)),
        "scaled_up": (wide, np.ldexp(r, 300)),
        "scaled_down": (wide, np.ldexp(r, -300)),
        "asymmetric": (wide, r + 1e-12 * rng.standard_normal(r.shape)),
        "signed_zero": (fields((4, 4, 4), 24), signed_zero),
        "fortran": (wide, np.asfortranarray(r)),
        "blocked": (fields((60, 60, 60), 600), spd(600)),  # past the BLAS block sizes
    }


PINNED = {
    "wide": "be6ccde7e6387cd4",
    "tall": "2dc9695d650cb862",
    "unequal_heights": "a9b2d38daf79bed2",
    "scaled_up": "dd672fdd2f7ed574",
    "scaled_down": "ee1aa442c3b0878b",
    "asymmetric": "2dc6fb2c67cc6190",
    "signed_zero": "c9d8c304de882621",
    "fortran": "be6ccde7e6387cd4",
    "blocked": "d0d4e172cf69393c",
}


def reference_weighted_solve(fields, r):
    """The previous coil algorithm: ``(psi, solution)`` with the bits it gave."""
    from scipy.linalg import lapack, solve_triangular

    (a,), e = _rescaled((r,), _peak(r, "resistance"))
    t = a.T.copy()
    t += a
    t /= 2.0
    if e:
        np.ldexp(t, e, out=t)
    c, info = lapack.dpotrf(t.T, lower=0, clean=1)
    assert info == 0
    whitened = tuple(
        solve_triangular(c, f.T, trans="T", lower=False, check_finite=False).T for f in fields
    )
    solution = gsv_solve(whitened)
    return solve_triangular(c, solution.basis[:, 0], lower=False, check_finite=False), solution


def coil_digest(solve, name):
    fields, r = _cases()[name]
    psi, sol = solve(fields, r)
    return _digest(psi, sol.lambda_max, sol.basis, sol.residual, sol.objective_check)


def solve_now(fields, r):
    return weighted_gsv_solve(WeightedProblem(fields, r))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_coil_outputs_match_the_previous_algorithm(name):
    assert coil_digest(solve_now, name) == coil_digest(reference_weighted_solve, name)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_coil_outputs_keep_their_bits(name):
    skip_unless_pinned_platform()
    if name == "blocked" and _blocked_canary() != BLOCKED_CANARY:
        pytest.skip("this BLAS build or thread count gives other bits past the block sizes")
    assert coil_digest(solve_now, name) == PINNED[name]


def cli_coil_digests(tmp_path):
    rng = np.random.default_rng(1617)
    paths = []
    for k in range(3):
        paths.append(tmp_path / f"e{k}.csv")
        matrix_io.write_matrix_csv(paths[-1], rng.standard_normal((6, 16)))
    b = rng.standard_normal((16, 16))
    paths.append(tmp_path / "r.csv")
    matrix_io.write_matrix_csv(paths[-1], b @ b.T / 16 + np.eye(16))
    assert cli.main(["coil", *map(str, paths), "--out", str(tmp_path / "out")]) == 0
    return {f: hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest()[:16]
            for f in ("psi.csv", "psi_normalized.csv")}


def test_cli_coil_files_keep_their_bytes(tmp_path, capsys):
    skip_unless_pinned_platform()
    assert cli_coil_digests(tmp_path) == {"psi.csv": "b2e3ee263c06638f",
                                       "psi_normalized.csv": "fc5ff6f00b9eb764"}
