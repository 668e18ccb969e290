"""Two sets of runs per workload, and whether they agree within the bounds.

    python3 perfbench/stability.py [--runs 10] [--seed 1] [--workloads a,b]

For each workload, run.py (with --trace 0 and the run length of
BENCHMARK.json) runs --runs times with seeds seed, seed+1, ... (set A),
then --runs times with the next seeds (set B). For every end-to-end metric
the report gives each set's median and quartiles (statistics.quantiles,
n=4) and its spread, the quartile distance as a share of the median. The
sets agree when every spread is within the metric's bound, when set B's
median is not worse than set A's by more than the bound, and when both
sets fail the same share of their operations. The last column suggests a
bound: three times the largest spread seen.
Raw results go to perfbench/_work/stability.jsonl. Exit code 0 when every
workload agrees.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(bench, workload, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    *report, last = proc.stdout.strip().splitlines()
    return json.loads(last), report


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default every workload of BENCHMARK.json")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"]
    log = HERE / "_work" / "stability.jsonl"
    log.parent.mkdir(exist_ok=True)
    all_ok = True
    for workload in workloads:
        sets = []
        for k in range(2):
            results = []
            for i in range(args.runs):
                seed = args.seed + k * args.runs + i
                res, report = run_once(bench, workload, seed)
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({"workload": workload, "set": k, "seed": seed,
                                         **res, "report": report}) + "\n")
                results.append(res)
            sets.append(results)
        print(f"{workload}: {args.runs} runs per set")
        print(f"  {'metric':<12} {'set':>3} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>7} {'bound':>6} {'B vs A':>7} {'suggest':>7}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in s]) for s in sets]
            change = (stats[1][0] - stats[0][0]) / stats[0][0]
            worse = change if m["better"] == "lower" else -change
            spread_ok = all(st[3] <= bound for st in stats)
            ok = spread_ok and worse <= bound
            all_ok &= ok
            for k, (med, q1, q3, spread) in enumerate(stats):
                tail = (f" {change:>+7.3f} {3 * max(st[3] for st in stats):>7.3f}"
                        f"  {'ok' if ok else 'DISAGREE'}") if k else ""
                print(f"  {name:<12} {'AB'[k]:>3} {med:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                      f"{spread:>7.3f} {bound:>6.2f}{tail}")
        shares = [Fraction(sum(r["failed"] for r in s), sum(r["attempted"] for r in s))
                  for s in sets]
        correct = all(r["correct"] for s in sets for r in s)
        same = shares[0] == shares[1] and correct
        all_ok &= same
        print(f"  failed share A {shares[0]}, B {shares[1]}, all correct {correct}: "
              f"{'ok' if same else 'DISAGREE'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
