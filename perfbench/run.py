"""Seeded benchmark of gsvkit, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loops with one caller; inputs come from ``--seed``):

  many_small  in-process ``gsv_solve`` on a stream of small stacks; per-call
              validation and dataclass overhead dominate.
  tall_stack  in-process ``gsv_solve`` on a 3 x (12000 x 300) stack; Gram
              formation and stack copying dominate.
  wide_coil   in-process ``WeightedProblem`` + ``weighted_gsv_solve`` with
              3 x (120 x 1200) fields and an SPD 1200 x 1200 R; the N x N
              eigensolve and Cholesky whitening dominate.
  cli_files   cold ``python -m gsvkit.cli`` calls cycling solve (with the
              sampling oracle), rank and density on CSV files written before
              timing; the only workload that runs matrix_io, cli, stat_norm
              and density_model.

Each workload runs in its own fresh child interpreter (``worker.py``) with one
BLAS thread.  Every output is checked against a
reference computed by another route (largest singular value squared of the
stacked, or whitened, matrix) at the published tolerances; failures and
exceptions count in ``failed``.

With ``--trace 0`` the result carries the end-to-end metrics:

  setup_s        cold ``import gsvkit`` time, seven times in fresh
                 interpreters: three before the workload, the workload's own
                 (before its loop) and three after it.  Each import time is
                 divided by the time of ``reference.Reference`` taken right
                 after it in the same process; setup_s is the median of these
                 ratios times ``reference.REF_S``, the reference's nominal
                 time: the import time on a machine running at that speed.
                 The raw median ``import_s`` is printed and kept in the
                 result file.
  ops_per_ref    closed-loop throughput in machine-independent time:
                 operations completed per run of the workload's fixed
                 reference computation (``reference.Reference`` with the
                 kernels the workload names), after warm-up.  An operation is
                 one solve (many_small, tall_stack), one WeightedProblem +
                 weighted solve (wide_coil) or one cold CLI call (cli_files,
                 equal numbers of solve, rank and density).  Operations are
                 timed in blocks of at least 50 ms (one call each on
                 cli_files); after each block the reference runs for a
                 quarter of the block's time, and the block's mean operation
                 time is divided by the reference's median time there.  The
                 metric is the inverse of the median of these ratios
                 (cli_files: of the mean over the three calls of each call's
                 median).  The raw wall-clock ``ops_per_s`` is printed and
                 kept in the result file; ``reference.py`` says why the
                 wall clock alone does not repeat on a shared host.
  peak_rss_mb    peak RSS of the workload's process (cli_files: the largest
                 of its CLI processes), from ``os.wait4``

With ``--trace 1`` the worker runs half the time untraced and half with the
span recorder of ``tracer.py`` wrapped around the public functions of cli,
matrix_io, gsv_solver, spectra_core, stat_norm and density_model, and the
result carries the per-layer metrics of ``BENCHMARK.json`` (0 for a layer the
workload does not run).  ``X.ms`` is the median, over the operations that call
X, of X's inclusive time in the operation; ``X.self_ms`` excludes X's traced
callees; ``trace.overhead_pct`` compares the two halves' throughput.  A
tracer that leaves a binding unwrapped, or an operation whose span counts
differ from its kind's, stops the run with a non-zero exit.  Spans go to
``.perfbench_work/trace_<workload>.json``.

Human-readable lines (the workload's own metric names such as
``small_solves_per_s`` or ``cli_rank_s``, sample counts, warm-up and the
environment) precede the final JSON line; the full record is written to
``.perfbench_work/result_<workload>_s<seed>_t<trace>.json``.
"""

import argparse
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

import proc
from reference import AFTER_IMPORT_S, REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("many_small", "tall_stack", "wide_coil", "cli_files")
# Cold-import probes on each side of the workload, so that the set-up samples
# span the run instead of one moment of a machine whose speed drifts.
SETUP_PROBES_EACH_SIDE = 3
DEADLINE_S = 170
# A cold import, then the reference timed in the same process.
PROBE = ("import sys, time; t = time.perf_counter(); import gsvkit; "
         f"d = time.perf_counter() - t; sys.path.insert(0, {str(HERE)!r}); "
         f"from reference import Reference; print(d, Reference().unit({AFTER_IMPORT_S!r}))")


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One BLAS thread: on a shared two-vCPU machine a two-thread BLAS call
    # waits for the slower vCPU, which doubled tall_stack's run-to-run spread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def main(argv=None):
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # reap children on the way out
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not (ROOT / "src" / "gsvkit" / "__init__.py").is_file():
        return fail(f"no gsvkit sources under {ROOT / 'src'}; run from a repository checkout")

    start = time.perf_counter()
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    env = child_env()
    stdout, stderr = work / f"child-{os.getpid()}.out", work / f"child-{os.getpid()}.err"

    def child(cmd):
        left = DEADLINE_S - (time.perf_counter() - start)
        if left <= 0:
            raise TimeoutError("time budget spent before the workload finished")
        code, _, rss_kb = proc.run(cmd, env, ROOT, stdout, stderr, timeout=left)
        if code != 0:
            err = stderr.read_text(encoding="utf-8", errors="replace").strip()
            raise RuntimeError(f"{cmd[1]} exited {code}: {err[-2000:]}")
        return stdout.read_text(encoding="utf-8"), rss_kb

    def probe():
        """(cold import time, reference time right after it) from a fresh interpreter."""
        return tuple(map(float, child([sys.executable, "-c", PROBE])[0].split()))

    result_path = work / f"result_{args.workload}_s{args.seed}_t{args.trace}.json"
    try:
        # Untimed first import: writes the bytecode cache and fills the page
        # cache, which a user pays once, not per run.
        child([sys.executable, "-c", "import gsvkit"])
        imports = [probe() for _ in range(SETUP_PROBES_EACH_SIDE)]
        _, rss_kb = child([sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                           "--seed", str(args.seed), "--seconds", str(args.seconds),
                           "--trace", str(args.trace), "--out", str(result_path),
                           "--work", str(work)])
        imports += [probe() for _ in range(SETUP_PROBES_EACH_SIDE)]
    except (RuntimeError, TimeoutError, OSError, ValueError) as exc:
        return fail(str(exc))
    finally:
        for path in (stdout, stderr):
            path.unlink(missing_ok=True)

    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    imports.append((result["import_s"], result["import_ref_s"]))
    if result["peak_rss_mb"] is None:
        result["peak_rss_mb"] = rss_kb / 1024
    result["import_s"] = statistics.median(i for i, _ in imports)
    result["setup_s"] = statistics.median(i / r for i, r in imports) * REF_S

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values = result["layers"]
    else:
        values = {"setup_s": result["setup_s"], "ops_per_ref": result["ops_per_ref"],
                  "peak_rss_mb": result["peak_rss_mb"]}
    if set(values) != {m["name"] for m in declared}:
        return fail(f"measured metrics {sorted(values)} differ from BENCHMARK.json's")
    metrics = {}
    for m in declared:
        if values[m["name"]] is None:
            print(f"  absent: {m['name']} (its function is not in this version)")
        else:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({**result, "metrics": metrics}, fh, indent=1)

    print(f"workload {args.workload}: {result['shape']}; closed loop, 1 caller; "
          f"seed {args.seed}; {result['samples']} timed ops; warm-up: {result['warmup']}")
    if args.trace:
        print(f"  traced ops: {result['traced_samples']} (the timed ops above ran untraced)")
    for name, (value, unit) in result.get("named", {}).items():
        print(f"  {name} = {value:.6g} {unit}")
    if not args.trace:
        print(f"  ops_per_s = {result['ops_per_s']:.6g} 1/s (raw wall-clock throughput; "
              f"ops_per_ref from {result['ref_blocks']} reference blocks)")
    print(f"  import_s = {result['import_s']:.6g} s (raw wall-clock median of "
          f"{len(imports)} cold imports; setup_s rescales each to the reference)")
    print(f"  error_rate = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    for err in result["errors"]:
        print(f"  failure: {err}")
    print(f"  environment: {json.dumps(result['environment'])}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
