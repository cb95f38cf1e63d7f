"""One benchmark workload in a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 --out RESULT_JSON --work DIR

Times ``import gsvkit`` first, then builds seeded inputs and their references,
runs the workload as a closed loop with one caller for ``--seconds``, checks
every output outside the timer and writes a result JSON.  With ``--trace 1``
it runs half the time untraced and half under the span recorder, and reports
per-layer metrics instead of end-to-end ones.
"""

import time

_t0 = time.perf_counter()
import gsvkit  # noqa: E402  (timed cold import: the workload's set-up)

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import proc  # noqa: E402
import tracer  # noqa: E402
from reference import AFTER_IMPORT_S, DEFAULT_KERNELS, Reference  # noqa: E402

HERE = Path(__file__).resolve().parent
TRACER_FAILED = 70  # exit code of traced_cli.py when the tracer cannot be installed

# Published acceptance tolerances; never loosened.
LAMBDA_RTOL = 1e-8  # |lambda - reference| <= 1e-8 * max(1, reference)
UNIT_ATOL = 1e-12  # basis column norms
ENERGY_ATOL = 1e-8  # psi^T R psi = 1
ORACLE_ATOL = 1e-9  # sampled lower bound <= lambda + 1e-9

VALIDATING_CLASSES = ("gsv_solver.OperatorStack", "spectra_core.SymmetricMatrix",
                      "spectra_core.EigenPair", "gsv_solver.GsvSolution")

# Span counts every operation of a kind must show, for the pipeline stages the
# workload is built around.  Stages a later version removes are skipped.
EXPECTED_SPANS = {
    "many_small": {"gsv_solver.gsv_solve": 1},
    "tall_stack": {"gsv_solver.gsv_solve": 1},
    "wide_coil": {"gsv_solver.WeightedProblem": 1, "gsv_solver.weighted_gsv_solve": 1,
                  "gsv_solver.gsv_solve": 1},
    "solve": {"cli.main": 1, "cli.cmd_solve": 1, "matrix_io.read_matrix_csv": 3,
              "gsv_solver.gsv_solve": 1, "gsv_solver.brute_force_max": 1},
    "rank": {"cli.main": 1, "cli.cmd_rank": 1, "matrix_io.read_table_csv": 1,
             "stat_norm.StatMatrix.from_raw": 1, "stat_norm.score_rows": 1,
             "gsv_solver.gsv_solve": 1},
    "density": {"cli.main": 1, "cli.cmd_density": 1, "matrix_io.read_probability_csv": 1,
                "density_model.check_positivity_chain": 1},
}


class TraceMismatch(RuntimeError):
    """An operation's span counts differ from what its kind must show."""


def sigma_max_sq(mats):
    """Largest singular value squared of vstack(mats), by Householder QR and SVD.

    Independent of the Gram/eigh path under test, and never holds more than
    one matrix's QR workspace at a time.
    """
    r = np.vstack([np.linalg.qr(np.asarray(a, dtype=float), mode="r") for a in mats])
    return float(np.linalg.svd(r, compute_uv=False)[0] ** 2)


def check_lambda(lam, ref):
    if not abs(lam - ref) <= LAMBDA_RTOL * max(1.0, ref):
        return f"lambda_max {lam!r} differs from reference {ref!r}"
    return None


def check_basis(basis):
    norms = np.linalg.norm(np.asarray(basis, dtype=float), axis=0)
    if not np.max(np.abs(norms - 1.0)) <= UNIT_ATOL:
        return f"basis column norms {norms!r} are not 1 to {UNIT_ATOL}"
    return None


def check_solution(sol, ref):
    return check_lambda(sol.lambda_max, ref) or check_basis(sol.basis)


# Operations are timed in blocks of at least BLOCK_S; after each block the
# reference runs for REF_SHARE of the block's time.
BLOCK_S = 0.05
REF_SHARE = 0.25


class Tally:
    """Operations attempted and failed; failures keep their first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, problem):
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(problem)
        return not problem


class SpanCounts:
    """Checks that every operation of a kind records the same span counts."""

    def __init__(self, wrapped=()):
        self.wrapped = set(wrapped)
        self.first = {}

    def check(self, kind, prof):
        counts = {name: agg[0] for name, agg in prof.items()}
        for name, want in EXPECTED_SPANS[kind].items():
            if name in self.wrapped and counts.get(name, 0) != want:
                raise TraceMismatch(f"{kind}: {counts.get(name, 0)} {name} spans, expected {want}")
        first = self.first.setdefault(kind, counts)
        if counts != first:
            raise TraceMismatch(f"{kind}: span counts {counts} differ from the first operation's {first}")


# ---------------------------------------------------------------------------
# in-process workloads


class InProcess:
    """Closed loop, one caller: ``op(i)`` on input ``i mod n``, checked after each call."""

    warmup = 1
    reference = DEFAULT_KERNELS  # the reference kernels that track this workload's work
    # Bounds the spans a traced run keeps in memory.
    max_traced_ops = 4096

    def run(self, seconds, tally, rec=None, counts=None, ref=None):
        """Returns per-op times, per-op span profiles (traced) and
        ``(kind, ops, op_s, ref_unit_s)`` blocks (with ``ref``)."""
        times, profiles, blocks = [], [], []
        block_ops, block_s = 0, 0.0
        i, start = 0, time.perf_counter()
        while i < self.warmup + 1 or time.perf_counter() - start < seconds:
            if rec and len(times) >= self.max_traced_ops:
                break
            k = i % self.n_inputs
            mark = len(rec.spans) if rec else 0
            t0 = time.perf_counter()
            try:
                out, error = self.op(k), None
            except Exception as exc:  # a failed operation is counted, not fatal
                error = exc
            dt = time.perf_counter() - t0
            problem = f"{type(error).__name__}: {error}" if error else self.check(k, out)
            if tally.record(problem) and i >= self.warmup:
                times.append(dt)
                block_ops, block_s = block_ops + 1, block_s + dt
                if rec:
                    prof = tracer.profile(rec.spans[mark:])
                    counts.check(self.name, prof)
                    profiles.append(prof)
                if ref and block_s >= BLOCK_S:
                    blocks.append((self.name, block_ops, block_s, ref.unit(REF_SHARE * block_s)))
                    block_ops, block_s = 0, 0.0
            i += 1
        return times, profiles, blocks


class ManySmall(InProcess):
    name = "many_small"
    warmup = 256
    reference = ("dispatch",)
    n_inputs = 1024

    def __init__(self, rng, work):
        self.stacks = []
        for _ in range(self.n_inputs):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, 6))
            self.stacks.append(tuple(rng.standard_normal((int(rng.integers(1, 21)), n))
                                     for _ in range(k)))
        self.refs = [sigma_max_sq(s) for s in self.stacks]
        self.shape = "k in [1,5], n in [2,8], rows in [1,20]"

    def op(self, k):
        return gsvkit.gsv_solve(self.stacks[k])

    def check(self, k, sol):
        return check_solution(sol, self.refs[k])

    def named(self, times):
        return {"small_solves_per_s": (throughput(times), "1/s")}


class TallStack(InProcess):
    name = "tall_stack"
    warmup = 2
    n_inputs = 1
    K, ROWS, COLS = 3, 12000, 300

    def __init__(self, rng, work):
        self.stack = tuple(rng.standard_normal((self.ROWS, self.COLS)) for _ in range(self.K))
        self.ref = sigma_max_sq(self.stack)
        self.shape = f"{self.K} x ({self.ROWS} x {self.COLS})"

    def op(self, k):
        return gsvkit.gsv_solve(self.stack)

    def check(self, k, sol):
        return check_solution(sol, self.ref)

    def named(self, times):
        return {"tall_solve_s": (statistics.median(times), "s")}


class WideCoil(InProcess):
    name = "wide_coil"
    warmup = 1
    n_inputs = 1
    H, N = 120, 1200

    def __init__(self, rng, work):
        self.fields = tuple(rng.standard_normal((self.H, self.N)) for _ in range(3))
        b = rng.standard_normal((self.N, self.N)) / np.sqrt(self.N)
        self.resistance = b @ b.T + np.eye(self.N)
        lower = np.linalg.cholesky(self.resistance)
        self.ref = sigma_max_sq([np.linalg.solve(lower, e.T).T for e in self.fields])
        self.shape = f"3 x ({self.H} x {self.N}), SPD R {self.N} x {self.N}"

    def op(self, k):
        return gsvkit.weighted_gsv_solve(gsvkit.WeightedProblem(self.fields, self.resistance))

    def check(self, k, out):
        psi, sol = out
        energy = float(psi @ (self.resistance @ psi))
        if not abs(energy - 1.0) <= ENERGY_ATOL:
            return f"psi^T R psi = {energy!r}, not 1 to {ENERGY_ATOL}"
        return check_solution(sol, self.ref)

    def named(self, times):
        return {"coil_solve_s": (statistics.median(times), "s")}


# ---------------------------------------------------------------------------
# cold CLI workload


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(rows)


class CliFiles:
    """Cold ``python -m gsvkit.cli`` calls cycling through solve, rank and density."""

    name = "cli_files"
    reference = DEFAULT_KERNELS
    KINDS = ("solve", "rank", "density")
    SOLVE_ROWS, SOLVE_COLS, ORACLE_SAMPLES = 10000, 8, 1_000_000
    RANK_ROWS, RANK_COLS = 30000, 6
    STATES, TRIALS = 1000, 10000
    OUTPUTS = {"solve": ("solution.json",), "rank": ("ranking.csv", "scores_plot.csv"),
               "density": ("density.json",)}

    def __init__(self, rng, work, env):
        self.env = env
        self.dir = work / f"cli-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cli_seed = int(rng.integers(0, 2**31))

        mats = [rng.standard_normal((self.SOLVE_ROWS, self.SOLVE_COLS)) for _ in range(3)]
        solve_files = []
        for i, a in enumerate(mats):
            path = self.dir / f"m{i}.csv"
            np.savetxt(path, a, fmt="%.17g", delimiter=",")
            solve_files.append(str(path))
        self.solve_ref = sigma_max_sq(mats)

        table = rng.standard_normal((self.RANK_ROWS, self.RANK_COLS)) * rng.uniform(
            0.5, 20.0, self.RANK_COLS) + rng.uniform(-50.0, 50.0, self.RANK_COLS)
        names = ",".join(f"c{j}" for j in range(self.RANK_COLS))
        _write_csv(self.dir / "table.csv", f"id,{names}",
                   (f"loc{i:06d}," + ",".join(format(v, ".17g") for v in row) + "\n"
                    for i, row in enumerate(table.tolist())))
        std = (table - table.mean(axis=0)) / table.std(axis=0)
        self.rank_ref = sigma_max_sq([std])

        rho = rng.random(self.STATES)
        self.rho = rho / rho.sum() * 0.9
        _write_csv(self.dir / "rho.csv", "rho", (format(v, ".17g") + "\n" for v in self.rho))

        self.argv = {
            "solve": ["solve", *solve_files, "--oracle-samples", str(self.ORACLE_SAMPLES),
                      "--seed", str(self.cli_seed)],
            "rank": ["rank", str(self.dir / "table.csv")],
            "density": ["density", str(self.dir / "rho.csv"), "--trials", str(self.TRIALS),
                        "--seed", str(self.cli_seed)],
        }
        self.first_outputs = {}
        self.peak_rss_kb = 0
        self.shape = (f"solve 3 x ({self.SOLVE_ROWS} x {self.SOLVE_COLS}) csv, "
                      f"{self.ORACLE_SAMPLES} oracle samples; rank {self.RANK_ROWS} x "
                      f"{self.RANK_COLS} table; density {self.STATES} states, "
                      f"{self.TRIALS} trials")

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def call(self, kind, traced):
        """One cold CLI call; returns (wall_s, problem, the traced child's span dump or None)."""
        out_dir = self.dir / f"out-{kind}"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = self.argv[kind] + ["--out", str(out_dir)]
        spans_path = self.dir / f"spans-{kind}.json"
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *argv]
        else:
            cmd = [sys.executable, "-m", "gsvkit.cli", *argv]
        stdout, stderr = self.dir / "stdout.txt", self.dir / "stderr.txt"
        code, wall, rss_kb = proc.run(cmd, self.env, None, stdout, stderr, timeout=60)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        if code != 0:
            err = stderr.read_text(encoding="utf-8", errors="replace").strip()[-300:]
            if traced and code == TRACER_FAILED:
                raise tracer.MissedBinding(err)
            return wall, f"{kind}: exit code {code}: {err}", None
        problem = self.check(kind, out_dir, stdout.read_text(encoding="utf-8"))
        if not traced:
            return wall, problem, None
        with open(spans_path, encoding="utf-8") as fh:
            return wall, problem, json.load(fh)

    def check(self, kind, out_dir, stdout):
        blobs = {}
        for name in self.OUTPUTS[kind]:
            path = out_dir / name
            if not path.is_file():
                return f"{kind}: missing output {name}"
            blobs[name] = path.read_bytes()
        first = self.first_outputs.setdefault(kind, blobs)
        if blobs != first:
            return f"{kind}: output files differ from the first call's"
        if kind == "solve":
            sol = json.loads(blobs["solution.json"])
            lam = sol["lambda_max"]
            if not sol["oracle_lower_bound"] <= lam + ORACLE_ATOL:
                return f"solve: oracle lower bound {sol['oracle_lower_bound']!r} exceeds {lam!r}"
            return check_lambda(lam, self.solve_ref) or check_basis(sol["basis"])
        if kind == "rank":
            return check_lambda(json.loads(stdout)["lambda_max"], self.rank_ref)
        dens = json.loads(blobs["density.json"])
        if dens["norm"] != float(np.max(self.rho)):
            return f"density: norm {dens['norm']!r} is not max rho {float(np.max(self.rho))!r}"
        if not abs(dens["trace"] - float(np.sum(self.rho))) <= 1e-12:
            return f"density: trace {dens['trace']!r} is not sum rho"
        if dens["positivity_chain_ok"] is not True:
            return "density: positivity chain reported broken"
        return None

    def run(self, seconds, tally, traced=False, counts=None, ref=None):
        """Whole solve/rank/density cycles until ``seconds`` pass; no warm-up, by design.

        Returns per-kind wall times, traced calls and, with ``ref``, one
        ``(kind, 1, wall_s, ref_unit_s)`` block per call."""
        walls = {kind: [] for kind in self.KINDS}
        calls, blocks = [], []
        start, cycles = time.perf_counter(), 0
        while not cycles or time.perf_counter() - start < seconds:
            cycles += 1
            for kind in self.KINDS:
                wall, problem, dump = self.call(kind, traced)
                if tally.record(problem):
                    walls[kind].append(wall)
                    if ref:
                        blocks.append((kind, 1, wall, ref.unit(REF_SHARE * wall)))
                    if traced:
                        prof = tracer.profile(dump["spans"])
                        counts.wrapped = set(dump["wrapped"])
                        counts.check(kind, prof)
                        calls.append({"kind": kind, "wall_ns": int(wall * 1e9),
                                      "spans": dump["spans"], "profile": prof})
        return walls, calls, blocks


def throughput(times):
    """Operations completed per second of the closed loop's operation time."""
    return len(times) / sum(times) if times else 0.0


def ops_per_ref(blocks):
    """Operations completed per reference time, from ``(kind, ops, op_s, ref_unit_s)`` blocks.

    Each block gives its mean operation time in reference units; the cost of
    an operation of one kind is the median over that kind's blocks, and the
    result is the inverse of the mean cost over the kinds, so each kind counts
    as often as the workload runs it.
    """
    costs = {}
    for kind, ops, op_s, ref_s in blocks:
        costs.setdefault(kind, []).append(op_s / ops / ref_s)
    if not costs:
        return 0.0
    return len(costs) / sum(statistics.median(c) for c in costs.values())


def overhead_pct(untraced_ops_per_s, traced_times):
    """How much longer an operation takes traced than untraced, in percent."""
    traced = throughput(traced_times)
    return (untraced_ops_per_s / traced - 1.0) * 100.0 if traced else 0.0


# ---------------------------------------------------------------------------
# per-layer metrics


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(profiles, wrapped, extra):
    """Per-layer metrics from per-operation span profiles; None marks an absent function."""
    wrapped = set(wrapped)

    def over_ops(span, field):
        return [p[span][field] for p in profiles if span in p]

    def ms(span, field=1):
        if span not in wrapped:
            return None
        return _median(over_ops(span, field)) / 1e6

    def count(span, field=0):
        if span not in wrapped:
            return None
        return _median(over_ops(span, field))

    solves = sum(over_ops("gsv_solver.gsv_solve", 0))
    validations = sum(sum(over_ops(c, 0)) for c in VALIDATING_CLASSES if c in wrapped)
    gram_flops = sum(over_ops("spectra_core.gram_sum", 3))
    gram_ns = sum(over_ops("spectra_core.gram_sum", 2))
    bf_ms = ms("gsv_solver.brute_force_max")
    chain_ms = ms("density_model.check_positivity_chain")

    def share(draw_ms, span_ms):
        if span_ms is None:
            return None
        return draw_ms / span_ms if draw_ms and span_ms else 0.0

    return {
        "cli.process_ms": extra.get("process_ms", 0.0) if "cli.main" in wrapped else None,
        "cli.cmd_solve.self_ms": ms("cli.cmd_solve", 2),
        "cli.cmd_rank.self_ms": ms("cli.cmd_rank", 2),
        "matrix_io.read_matrix_csv.ms": ms("matrix_io.read_matrix_csv"),
        "matrix_io.read_matrix_csv.values": count("matrix_io.read_matrix_csv", 3),
        "matrix_io.read_table_csv.ms": ms("matrix_io.read_table_csv"),
        "matrix_io.read_probability_csv.ms": ms("matrix_io.read_probability_csv"),
        "gsv_solver.gsv_solve.self_ms": ms("gsv_solver.gsv_solve", 2),
        "gsv_solver.validations_per_solve": (
            validations / solves if solves else 0.0) if "gsv_solver.gsv_solve" in wrapped else None,
        "gsv_solver.OperatorStack.ms": ms("gsv_solver.OperatorStack"),
        "gsv_solver.objective_value.ms": ms("gsv_solver.objective_value"),
        "gsv_solver.WeightedProblem.ms": ms("gsv_solver.WeightedProblem"),
        "gsv_solver.weighted_gsv_solve.self_ms": ms("gsv_solver.weighted_gsv_solve", 2),
        "gsv_solver.brute_force_max.ms": bf_ms,
        "gsv_solver.brute_force_max.rng_share": share(extra.get("oracle_draw_ms"), bf_ms),
        "spectra_core.validated_matrices.ms": ms("spectra_core.validated_matrices"),
        "spectra_core.validated_matrices.calls": count("spectra_core.validated_matrices"),
        "spectra_core.gram_sum.ms": ms("spectra_core.gram_sum"),
        "spectra_core.gram_sum.gflop_per_s": (
            gram_flops / gram_ns if gram_ns else 0.0) if "spectra_core.gram_sum" in wrapped else None,
        "spectra_core.max_eigenpair.ms": ms("spectra_core.max_eigenpair"),
        "spectra_core.max_eigenpair.dim": count("spectra_core.max_eigenpair", 3),
        "stat_norm.StatMatrix.from_raw.ms": ms("stat_norm.StatMatrix.from_raw"),
        "stat_norm.score_rows.ms": ms("stat_norm.score_rows"),
        "density_model.check_positivity_chain.ms": chain_ms,
        "density_model.check_positivity_chain.rng_share": share(extra.get("chain_draw_ms"), chain_ms),
        "trace.overhead_pct": extra["overhead_pct"],
    }


def draw_ms(seed, shape, reps=3):
    """Median time of one ``default_rng(seed).standard_normal(shape)`` draw alone."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.random.default_rng(seed).standard_normal(shape)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


# ---------------------------------------------------------------------------


def environment(seed):
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("openblas configuration") or f"{deps[k]['name']} {deps[k]['version']}"
                for k in ("blas", "lapack")}
    except (TypeError, KeyError):  # numpy without the dict mode
        blas = {"blas": "unknown", "lapack": "unknown"}
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        **blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
    }


WORKLOADS = {cls.name: cls for cls in (ManySmall, TallStack, WideCoil, CliFiles)}


def main(argv=None):
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # reap CLI children on the way out
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args(argv)
    work = Path(args.work)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "import_s": IMPORT_S, "import_ref_s": Reference().unit(AFTER_IMPORT_S),
              "environment": environment(args.seed)}
    ref = None if args.trace else Reference(WORKLOADS[args.workload].reference)
    rng = np.random.default_rng([args.seed, sorted(WORKLOADS).index(args.workload)])
    tally = Tally()

    if args.workload == "cli_files":
        wl = CliFiles(rng, work, dict(os.environ))
        try:
            phase = args.seconds / 2 if args.trace else args.seconds
            walls, _, blocks = wl.run(phase, tally, ref=ref)
            ops_per_s = throughput([t for v in walls.values() for t in v])
            result["samples"] = {k: len(v) for k, v in walls.items()}
            result["warmup"] = "none: every call is a cold interpreter, as for a user"
            result["named"] = {f"cli_{k}_s": (statistics.median(v), "s")
                               for k, v in walls.items() if v}
            result["peak_rss_mb"] = wl.peak_rss_kb / 1024
            if args.trace:
                counts = SpanCounts()
                twalls, calls, _ = wl.run(phase, tally, traced=True, counts=counts)
                result["traced_samples"] = {k: len(v) for k, v in twalls.items()}
                process = [c["wall_ns"] - c["profile"]["cli.main"][1] for c in calls
                           if "cli.main" in c["profile"]]
                extra = {
                    "overhead_pct": overhead_pct(ops_per_s, [t for v in twalls.values() for t in v]),
                    "process_ms": _median(process) / 1e6,
                    "oracle_draw_ms": draw_ms(wl.cli_seed, (wl.SOLVE_COLS, wl.ORACLE_SAMPLES)),
                    "chain_draw_ms": draw_ms(wl.cli_seed, (wl.STATES, wl.TRIALS)),
                }
                result["layers"] = layer_metrics([c["profile"] for c in calls],
                                                 counts.wrapped, extra)
                trace_dump = {"calls": [{k: c[k] for k in ("kind", "wall_ns", "spans")}
                                        for c in calls]}
        finally:
            wl.close()
    else:
        wl = WORKLOADS[args.workload](rng, work)
        phase = args.seconds / 2 if args.trace else args.seconds
        times, _, blocks = wl.run(phase, tally, ref=ref)
        ops_per_s = throughput(times)
        result["samples"] = len(times)
        result["warmup"] = f"{wl.warmup} operations discarded"
        result["named"] = wl.named(times) if times else {}
        result["peak_rss_mb"] = None  # run.py takes it from this process's wait4
        if args.trace:
            rec = tracer.install(tracer.Tracer())
            counts = SpanCounts(rec.wrapped)
            ttimes, profiles, _ = wl.run(phase, tally, rec, counts)
            result["traced_samples"] = len(ttimes)
            extra = {"overhead_pct": overhead_pct(ops_per_s, ttimes)}
            result["layers"] = layer_metrics(profiles, rec.wrapped, extra)
            trace_dump = {"spans": rec.spans}
    result["shape"] = wl.shape
    result["ops_per_s"] = ops_per_s
    result["ops_per_ref"] = ops_per_ref(blocks)
    result["ref_blocks"] = len(blocks)
    result["attempted"] = tally.attempted
    result["failed"] = tally.failed
    result["errors"] = tally.errors
    if args.trace:
        trace_dump.update(workload=args.workload, seed=args.seed,
                          fields=["id", "parent", "name", "start_ns", "end_ns", "work"])
        with open(work / f"trace_{args.workload}.json", "w", encoding="utf-8") as fh:
            json.dump(trace_dump, fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
