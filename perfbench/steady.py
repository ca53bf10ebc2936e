"""Steadiness check: run the benchmark in two sets on the same code and
report every metric whose sets disagree beyond the bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b]
                                [--record FILE] [--calls]

Each of the two sets runs every workload once per seed (set 1 uses seeds
1 .. runs, set 2 seeds 101 .. 100+runs).  Per workload and end-to-end metric
it prints the median and the quartile spread (q3 - q1) / median of each set;
a spread above the bound, or a second-set median worse than the first by
more than the bound, is a disagreement.  A spread above a third of the bound is marked
as unsteady.  With --calls it also runs each workload traced twice on one
seed and requires every `*.calls` count to repeat exactly.  Exit code 1 on
any disagreement or failed run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2


def run_once(command, workload, seed, seconds, trace):
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    machine = next((json.loads(ln[len("# machine "):]) for ln in lines
                    if ln.startswith("# machine ")), None)
    if proc.returncode != 0 or result is None or not result["correct"]:
        print(f"  run {workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None, machine
    return result, machine


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """Share by which `second` is worse than `first` (negative: better)."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    help="comma-separated workloads (default: those in BENCHMARK.json)")
    ap.add_argument("--record", help="write every run and summary to this JSON file")
    ap.add_argument("--calls", action="store_true",
                    help="also check that traced call counts repeat exactly")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command, seconds = bench["command"], bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = ([w["name"] for w in bench["workloads"]] if not args.workloads
                 else args.workloads.split(","))

    bad = []
    machine = None
    runs = {w: [[] for _ in range(SETS)] for w in workloads}
    for k in range(SETS):
        for i in range(args.runs):
            seed = 100 * k + i + 1
            for w in workloads:
                result, machine = run_once(command, w, seed, seconds, 0)
                if result is None:
                    bad.append(f"{w} seed {seed}: failed run")
                    continue
                runs[w][k].append({"seed": seed, **{n: v["value"] for n, v in
                                                    result["metrics"].items()}})
                print(f"set {k + 1} seed {seed:3d} {w:10s} " + " ".join(
                    f"{n}={result['metrics'][n]['value']:.5g}" for n in metrics),
                    flush=True)

    summary = {}
    print(f"\n{'workload':10s} {'metric':12s} {'bound':>5s} " + " ".join(
        f"{'median' + str(k + 1):>11s} {'spread' + str(k + 1):>8s}"
        for k in range(SETS)) + "  verdict")
    for w in workloads:
        for name, spec in metrics.items():
            row = []
            for k in range(SETS):
                values = [r[name] for r in runs[w][k]]
                row.append(spread(values) if len(values) >= 2 else (float("nan"),) * 2)
            verdict = []
            for k, (_, s) in enumerate(row):
                if s > spec["bound"]:
                    verdict.append(f"spread{k + 1}>bound")
                elif s > spec["bound"] / 3:
                    verdict.append(f"unsteady{k + 1}")
            if worse_by(row[0][0], row[1][0], spec["better"]) > spec["bound"]:
                verdict.append("set2-worse")
            hard = [v for v in verdict if not v.startswith("unsteady")]
            bad.extend(f"{w} {name}: {v}" for v in hard)
            summary[f"{w}/{name}"] = {"median": [r[0] for r in row],
                                      "spread": [r[1] for r in row],
                                      "bound": spec["bound"], "verdict": verdict}
            print(f"{w:10s} {name:12s} {spec['bound']:5.2f} " + " ".join(
                f"{m:11.5g} {s:8.4f}" for m, s in row) + "  " + (",".join(verdict) or "ok"))

    calls = {}
    if args.calls:
        for w in workloads:
            pair = [run_once(command, w, 1, seconds, 1)[0] for _ in range(2)]
            if None in pair:
                bad.append(f"{w}: failed traced run")
                continue
            counts = [{n: v["value"] for n, v in r["metrics"].items()
                       if n.endswith(".calls")} for r in pair]
            differ = sorted(n for n in counts[0] if counts[0][n] != counts[1].get(n))
            calls[w] = {"compared": len(counts[0]), "differ": differ}
            bad.extend(f"{w} traced: {n} differs" for n in differ)
            print(f"traced {w}: {len(counts[0])} call counts, "
                  f"{'all repeat exactly' if not differ else 'differ: ' + ', '.join(differ)}")

    if args.record:
        Path(args.record).write_text(json.dumps(
            {"machine": machine, "run_seconds": seconds, "runs": runs,
             "summary": summary, "calls": calls, "disagreements": bad}, indent=1) + "\n")
    for line in bad:
        print(f"DISAGREE {line}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
