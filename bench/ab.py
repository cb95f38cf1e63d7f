"""A/B timing of small solves: a base revision against the working tree, stage by stage.

Usage: python bench/ab.py --base REV [--rounds N] [--out PATH]

Exports ``src/`` of REV with ``git archive`` to a temporary directory, then runs ``--rounds``
rounds of two child interpreters, base and head (the working tree's ``src/``), alternating
which goes first.  Each child runs at one BLAS thread on perfbench's ``many_small`` inputs at
seed 41 (1,024 stacks: k in [1, 5], n in [2, 8], rows in [1, 20]).  It times the whole
``gsv_solve`` call and its stages: validation (``validated_matrices``), the Gram (``gram_sum``,
with the wide side's ``concatenate``), ``max_eigenpair``, and the rest (the whole call less
those three).  It also hashes each of the four outputs over all 1,024 solves, so a same-bits
claim is checked in the same run.  Writes ``--out`` (default ``BENCH_small_solves.json``):
both revisions, the host, per-round µs per call, medians, quartiles, head's wins and both
sides' hashes.  Uses the standard library and numpy only.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
STAGES = ("gsv_solve", "validated_matrices", "gram", "max_eigenpair", "rest")
PASSES = 5  # timed passes over the 1,024 stacks per child; a child reports each stage's median
SEED = 41
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def small_stacks():
    """perfbench's ``many_small`` inputs at seed 41, drawn as its worker draws them."""
    import numpy as np

    rng = np.random.default_rng([SEED, 1])  # 1: many_small's index among the sorted workloads
    stacks = []
    for _ in range(1024):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 6))
        stacks.append(tuple(rng.standard_normal((int(rng.integers(1, 21)), n)) for _ in range(k)))
    return stacks


def per_call_us(fn, items):
    """µs per call of ``fn`` over ``items``, one pass."""
    t0 = time.perf_counter_ns()
    for item in items:
        fn(*item)
    return (time.perf_counter_ns() - t0) / len(items) / 1e3


def child(src):
    """Time and hash the stacks with the gsvkit under ``src``; print one JSON line."""
    import numpy as np

    import gsvkit
    from gsvkit.spectra_core import gram_sum, max_eigenpair, validated_matrices

    if not Path(gsvkit.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"imported {gsvkit.__file__}, not the gsvkit under {src}")
    stacks = small_stacks()
    digests = {name: hashlib.sha256() for name in ("lambda_max", "basis", "objective_check",
                                                    "residual")}
    for stack in stacks:  # also the warm-up pass
        sol = gsvkit.gsv_solve(stack)
        digests["lambda_max"].update(sol.lambda_max.hex().encode())
        digests["basis"].update(repr(sol.basis.shape).encode() + sol.basis.tobytes())
        digests["objective_check"].update(sol.objective_check.hex().encode())
        digests["residual"].update(sol.residual.hex().encode())
    # each stage's inputs, as gsv_solve hands them on: (mats, wide), then (S, B or None)
    checked = []
    for stack in stacks:
        mats = validated_matrices(stack)
        checked.append((mats, sum(a.shape[0] for a in mats) < mats[0].shape[1]))

    def gram(mats, wide):
        rows = np.concatenate(mats) if wide else None
        return gram_sum((rows.T,) if wide else mats), rows

    pairs = [gram(mats, wide) for mats, wide in checked]

    runs = {name: [] for name in STAGES}
    for _ in range(PASSES):  # the stages interleaved, so a drift of the host reaches each alike
        runs["gsv_solve"].append(per_call_us(gsvkit.gsv_solve, [(s,) for s in stacks]))
        runs["validated_matrices"].append(per_call_us(validated_matrices, [(s,) for s in stacks]))
        runs["gram"].append(per_call_us(gram, checked))
        runs["max_eigenpair"].append(per_call_us(max_eigenpair, pairs))
        runs["rest"].append(runs["gsv_solve"][-1] - runs["validated_matrices"][-1]
                            - runs["gram"][-1] - runs["max_eigenpair"][-1])
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = blas.get("openblas configuration") or f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # a numpy without the dict mode
        blas = "unknown"
    print(json.dumps({"us": {name: statistics.median(v) for name, v in runs.items()},
                      "hashes": {name: d.hexdigest() for name, d in digests.items()},
                      "numpy": np.__version__, "blas": blas}))


def git(*args):
    return subprocess.run(["git", "-C", str(REPO), *args], check=True, capture_output=True,
                          text=False).stdout


def export_src(rev, dest):
    """Extract ``src/`` of ``rev`` under ``dest``; returns ``dest/src``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev, "src"))) as tar:
        if hasattr(tarfile, "data_filter"):  # Python versions with extraction filters
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return Path(dest) / "src"


def run_child(src):
    env = dict(os.environ, **ONE_THREAD, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", str(src)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def host():
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model or platform.processor(),
            "platform": platform.platform(), "python": platform.python_version()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", help="the base revision, any name git rev-parse takes")
    ap.add_argument("--rounds", type=int, default=31, help="base/head pairs (default 31)")
    ap.add_argument("--out", default="BENCH_small_solves.json", help="the JSON file written")
    ap.add_argument("--child", help=argparse.SUPPRESS)  # internal: time the gsvkit under this src
    args = ap.parse_args(argv)
    if args.child:
        return child(args.child)
    if not args.base or args.rounds < 1:
        ap.error("--base REV is required, and --rounds must be at least 1")
    base_rev = git("rev-parse", "--verify", f"{args.base}^{{commit}}").decode().strip()
    head_rev = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain", "--", "src").strip())
    with tempfile.TemporaryDirectory() as tmp:
        srcs = {"base": export_src(base_rev, tmp), "head": REPO / "src"}
        rounds = []
        for i in range(args.rounds):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            rounds.append({side: run_child(srcs[side]) for side in order})
    hashes = {side: rounds[0][side]["hashes"] for side in ("base", "head")}
    stable = all(r[side]["hashes"] == hashes[side] for r in rounds for side in hashes)
    stages = {}
    for name in STAGES:
        base = [r["base"]["us"][name] for r in rounds]
        head = [r["head"]["us"][name] for r in rounds]
        stages[name] = {
            "base_us": base, "head_us": head,
            "base_median": statistics.median(base), "head_median": statistics.median(head),
            "base_quartiles": quartiles(base), "head_quartiles": quartiles(head),
            "head_wins": sum(h < b for b, h in zip(base, head)),
        }
    result = {
        "case": "small_solves",
        "inputs": "perfbench many_small, seed 41: 1,024 stacks, k in [1, 5], n in [2, 8], "
                  "rows in [1, 20]",
        "base": {"rev": base_rev, "given_as": args.base},
        "head": {"rev": head_rev, "src_modified": dirty},
        "host": dict(host(), numpy=rounds[0]["head"]["numpy"], blas=rounds[0]["head"]["blas"],
                     blas_threads=1),
        "rounds": args.rounds, "passes_per_child": PASSES, "unit": "us per call",
        "stages": stages,
        "hashes": hashes, "same_bits": hashes["base"] == hashes["head"], "hashes_stable": stable,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"base {base_rev[:12]} vs head {head_rev[:12]}{' + modified src' if dirty else ''}, "
          f"{args.rounds} rounds, µs per call (median; head wins)")
    for name, st in stages.items():
        print(f"  {name:20s} {st['base_median']:8.2f} -> {st['head_median']:8.2f}"
              f"  ({st['head_wins']}/{args.rounds})")
    for side in ("base", "head"):
        print(f"  {side} hashes: " + " ".join(f"{k}={v[:16]}" for k, v in hashes[side].items()))
    print(f"  same bits: {result['same_bits']}; hashes stable across rounds: {stable}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
