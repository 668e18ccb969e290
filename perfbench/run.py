"""Benchmark of the conical-lab command line, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one pinned CLI experiment. A run first starts the
experiment's process a few times only to set up (interpreter, import of
conical_lab.vericli with numpy and scipy, config parsing), then runs whole
rounds for about S seconds: each round is the experiment in a fresh process
with --set seed=<round seed>, so every module cache starts cold, as it does
for a user. After the timed rounds, outside their timing, each round's
output is checked against computations made apart from the program
(checks.py). The report ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics (medians over the run): setup_s,
run_s and peak_rss_mb. --trace 1 runs one untraced round, then traced
rounds with timing wrappers around each module's public functions
(spans.py), and gives the per-layer metrics (medians over traced rounds).

The lab is imported from src/ next to this directory; nothing is built.
"""

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150
SETUP_PROBES = 3

Op = namedtuple("Op", "seed name ok detail crashed")


class Workload:
    def __init__(self, experiment, settings, checker):
        self.experiment = experiment
        self.settings = settings
        self.checker = checker

    def argv(self, seed, out_dir):
        args = [self.experiment, "--out", str(out_dir)]
        for item in (*self.settings, f"seed={seed}"):
            args += ["--set", item]
        return args


def _box_checker():
    import checks

    return lambda seed, rows: checks.check_box(seed)


def _laplace_checker():
    import checks
    from conical_lab.elliptic import CoefficientField, assemble
    from conical_lab.grid import Grid

    ops = [assemble(g, CoefficientField.preset(g, "laplace"))
           for g in (Grid(2, 16), Grid(2, 32))]
    return lambda seed, rows: [r for op in ops for r in checks.check_modes(op, seed)]


def _perturbed_checker():
    import checks
    from conical_lab.elliptic import CoefficientField, assemble
    from conical_lab.grid import Grid, TimeGrid

    grid = Grid(2, 16)
    op = assemble(grid, CoefficientField.preset(grid, "perturbed"))
    L, refs = checks.semigroup_references(2, 16, TimeGrid.spanning(grid).levels)
    return lambda seed, rows: [
        *checks.check_perturbed(op, seed),
        *checks.check_comparisons(rows, checks.comparison_ratios(seed, L, refs, 2, 16)),
    ]


def _offdiag_checker():
    import checks

    # vericli's offdiag defaults: t = 0.1, radius 0.04, six separations
    refs = checks.offdiag_references(1, 512, 0.1, 0.04,
                                     (0.12, 0.18, 0.24, 0.30, 0.36, 0.42))
    return lambda seed, rows: checks.check_offdiag(rows, refs)


WORKLOADS = {
    "box": Workload("carleson", (), _box_checker),
    "sqfn-laplace": Workload(
        "boundedness", ("preset=laplace", "n=2", "N=32"), _laplace_checker),
    "sqfn-perturbed": Workload(
        "comparisons", ("preset=perturbed", "n=2", "N=16"), _perturbed_checker),
    "offdiag-perturbed": Workload(
        "offdiag", ("preset=perturbed", "n=1", "N=512"), _offdiag_checker),
}

INCLUSIVE = ("grid.ball_max", "grid.ball_sum", "elliptic.assemble",
             "elliptic.expm", "elliptic.sqrtm")
SELF = ("tent.carleson_functional", "tent.carleson_p0", "tent.cone_functional",
        "elliptic.heat", "elliptic.poisson", "elliptic.heat_gradient",
        "elliptic.poisson_gradient", "elliptic.offdiagonal_opnorm",
        "squarefn.integrand_field")


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# one thread per experiment: with two sample threads on a 2-vCPU shared
# host, wall time measures how the host schedules the second vCPU
THREADS = {"OPENBLAS_NUM_THREADS": "1", "CONICAL_LAB_THREADS": "1"}


def child_env():
    return {**os.environ, "PYTHONPATH": str(SRC), **THREADS}


def launch(mode, workload, seed, work):
    """One experiment process; returns its result dict plus exit code."""
    result = work / f"{mode}-{seed}.json"
    args = workload.argv(seed, work)
    cmd = [sys.executable, str(HERE / "child.py"), mode, repr(_now()), str(result),
           "--", *args]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=work,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return {"exit_code": None, "stderr": f"killed after {CHILD_TIMEOUT_S} s"}
    out = {"exit_code": proc.returncode, "stderr": proc.stderr[-2000:]}
    if result.exists():
        out.update(json.loads(result.read_text()))
        result.unlink()
    return out


def read_rows(path):
    """(params, measured, verdict) for every row of a vericli CSV."""
    with open(path, encoding="utf-8") as fh:
        if not fh.readline().startswith("# generated"):
            raise ValueError("missing timestamp line")
        return [(json.loads(r["param_json"]), float(r["measured"]), r["verdict"])
                for r in csv.DictReader(fh)]


def round_ops(rnd, checker):
    """[(name, ok, detail, crashed)] for one round: the experiment itself,
    then the workload's independent checks. vericli exits 0 when every
    verdict passes and 1 when one fails; any other exit, or no CSV, is a
    crash, a failed operation that leaves the CSV checks without input. A
    failed verdict, a value outside its error budget or a check that raises
    makes the run incorrect."""
    name = "experiment exits 0, no failed verdict"
    code = rnd.get("exit_code")
    rows = None
    if code not in (0, 1) or rnd.get("csv") is None:
        ops = [(name, False, f"exit code {code}: {rnd.get('stderr', '').strip()}", True)]
    else:
        try:
            rows = read_rows(rnd["csv"])
        except (OSError, ValueError, KeyError) as exc:
            ops = [(name, False, f"unreadable CSV: {exc}", True)]
        else:
            fails = sum(1 for *_, v in rows if v == "fail")
            ops = [(name, code == 0 and bool(rows) and fails == 0,
                    f"exit code {code}, {len(rows)} rows, {fails} fail", False)]
    try:
        found = checker(rnd["seed"], None if rows is None else [(p, v) for p, v, _ in rows])
    except Exception as exc:  # the program under test raised
        return ops + [("checks", False, f"{type(exc).__name__}: {exc}", False)]
    # ok None: a check of the CSV, which the crashed experiment did not write
    return ops + [(n, bool(ok), d, ok is None) for n, ok, d in found]


def layer_metrics(rnd):
    agg = rnd["layers"]
    zero = {"s": 0.0, "self_s": 0.0, "calls": 0}
    m = {}
    for name in INCLUSIVE:
        m[f"{name}.s"] = agg.get(name, zero)["s"]
        m[f"{name}.calls"] = agg.get(name, zero)["calls"]
    for name in SELF:
        m[f"{name}.self_s"] = agg.get(name, zero)["self_s"]
        m[f"{name}.calls"] = agg.get(name, zero)["calls"]
    m["weights.self_s"] = sum(v["self_s"] for k, v in agg.items()
                              if k.startswith("weights."))
    m["vericli.self_s"] = agg.get("vericli", zero)["self_s"]
    m["elliptic.expm.computed_mb"] = rnd["expm_mb"]
    return m


def environment():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        **THREADS,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "conical_lab" / "vericli.py").is_file():
        print(f"no conical_lab sources under {SRC}", file=sys.stderr)
        return 2
    # the checks run in this process after the timed rounds; keep its BLAS
    # to one thread like the experiments' own
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, workload, work):
    # set-up probes: the first one warms the bytecode and file caches
    setups = [launch("setup", workload, args.seed, work)
              for _ in range(SETUP_PROBES + 1)][1:]
    rounds = []
    start = _now()
    while True:
        k = len(rounds)
        seed = args.seed * 1000 + k
        mode = "trace" if args.trace and k > 0 else "run"
        rnd = launch(mode, workload, seed, work)
        rnd.update(seed=seed, mode=mode)
        csv_path = work / f"{workload.experiment}.csv"
        rnd["csv"] = None
        if csv_path.exists():
            rnd["csv"] = work / f"round-{k}.csv"
            csv_path.rename(rnd["csv"])
        rounds.append(rnd)
        spent = _now() - start
        traced = sum(r["mode"] == "trace" for r in rounds)
        if spent * (k + 2) / (k + 1) > args.seconds and (traced or not args.trace):
            break

    try:
        checker = workload.checker()
    except Exception as exc:  # the program failed while building references
        def checker(seed, rows, exc=exc):
            raise exc
    ops = [Op(rnd["seed"], *op) for rnd in rounds for op in round_ops(rnd, checker)]
    correct = all(op.ok or op.crashed for op in ops)

    print(f"perfbench {args.workload}: conical-lab {' '.join(workload.argv('<seed>', '<out>'))}")
    for key, val in environment().items():
        print(f"  env {key}: {val}")
    for s in setups:
        print(f"  setup probe: {s.get('setup_s', float('nan')):.4f} s")
    for rnd in rounds:
        print(f"  round seed {rnd['seed']} ({rnd['mode']}): exit {rnd['exit_code']}, "
              f"setup {rnd.get('setup_s', float('nan')):.4f} s, "
              f"run {rnd.get('run_s', float('nan')):.4f} s, "
              f"peak {rnd.get('peak_rss_mb', float('nan')):.1f} MB")
        for op in rnd.get("operators", ()):
            print(f"    operator n={op['n']} N={op['N']}: tier {op['tier']}, "
                  f"cond {op['cond']:.3e}")
    for op in ops:
        print(f"  check {'PASS' if op.ok else 'FAIL'} [{op.seed}] {op.name}: {op.detail}")

    plain = [r for r in rounds if r["mode"] == "run" and "run_s" in r]
    metrics = {}
    if args.trace:
        traced = [r for r in rounds if r["mode"] == "trace" and "layers" in r]
        if traced and plain:
            layers = [layer_metrics(r) for r in traced]
            for key in layers[0]:
                metrics[key] = statistics.median(m[key] for m in layers)
            # the sum of self times against the traced run_s, and the cost of
            # tracing; reported, not metrics, since neither has a direction
            run_s = statistics.median(r["run_s"] for r in traced)
            sums = [sum(v["self_s"] for v in r["layers"].values()) for r in traced]
            self_sum = statistics.median(sums)
            remainder = statistics.median(r["run_s"] - x for r, x in zip(traced, sums))
            overhead = run_s - statistics.median(r["run_s"] for r in plain)
            print(f"  trace run_s {run_s:.4f} s, sum of self times {self_sum:.4f} s, "
                  f"remainder {remainder:.3g} s, overhead {overhead:+.4f} s")
            last = traced[-1]
            spans_file = HERE / "_work" / f"spans-{args.workload}.json"
            spans_file.write_text(json.dumps(last.get("spans", [])))
            print(f"  spans of the last traced round: {spans_file}")
        units = {k: ("count" if k.endswith(".calls") else
                     "MB" if k.endswith("_mb") else "s") for k in metrics}
    else:
        setup_samples = [s["setup_s"] for s in setups if "setup_s" in s]
        setup_samples += [r["setup_s"] for r in plain]
        if plain and setup_samples:
            metrics["setup_s"] = statistics.median(setup_samples)
            metrics["run_s"] = statistics.median(r["run_s"] for r in plain)
            metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
    for key, val in metrics.items():
        print(f"  metric {key} = {val:.6g} {units[key]}")
    failed = sum(1 for op in ops if not op.ok)
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
