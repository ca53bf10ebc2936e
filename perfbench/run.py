"""Layered benchmark of xpoincare: one command, four workloads.

    python3 perfbench/run.py --workload {verify,group-ops,chart-edge,cli}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
`src/` and the `xpoincare` console script is generated from
`pyproject.toml` under `.bench_build/`.  With `--trace 0` the run times a
closed loop with one client for S seconds and prints the end-to-end metrics;
with `--trace 1` it runs a fixed seeded pass untraced and traced, in turn,
for S seconds and prints the per-layer metrics.  Every output is checked
outside the timed region.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit code 1 on any failed
check, 2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
WORKLOADS = ("verify", "group-ops", "chart-edge", "cli")
SETUP_REPEATS = 9
IMPORT_REPEATS = 5
SETUP_CODE = ("import xpoincare\n"
              "xpoincare.compose(xpoincare.GroupParams(), xpoincare.GroupParams())\n")
clock = time.perf_counter


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def build() -> str:
    """Byte-compile the package and write its console script; return its path."""
    if not (SRC / "xpoincare" / "__init__.py").is_file():
        fail_setup(f"no package at {SRC / 'xpoincare'}")
    pyproject = ROOT / "pyproject.toml"
    if not pyproject.is_file():
        fail_setup("no pyproject.toml to take the console script from")
    import tomllib
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh).get("project", {}).get("scripts", {}).get("xpoincare")
    if not target or ":" not in target:
        fail_setup("pyproject.toml declares no 'xpoincare' console script")
    if not compileall.compile_dir(str(SRC), quiet=1):
        fail_setup("the package does not byte-compile")
    module, func = target.split(":")
    bindir = BUILD / "bin"
    bindir.mkdir(parents=True, exist_ok=True)
    script = bindir / "xpoincare"
    tmp = bindir / f".xpoincare.{os.getpid()}"
    tmp.write_text(f"#!{sys.executable}\nimport sys\nfrom {module} import {func}\n"
                   f"if __name__ == '__main__':\n    sys.exit({func}())\n")
    tmp.chmod(0o755)
    tmp.replace(script)
    return str(script)


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy")}


def run_child(args, env, timeout=120.0):
    proc = subprocess.run(args, env=env, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        fail_setup(f"{' '.join(args[:3])} exited {proc.returncode}: {proc.stderr[-400:]}")
    return proc


def setup_seconds(env) -> float:
    """Median wall time for a fresh interpreter to import the package and
    run one identity compose."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        run_child([sys.executable, "-c", SETUP_CODE], env)
        times.append(clock() - t0)
    return statistics.median(times)


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def import_ms(env) -> dict:
    """cli.import_*: medians of `python -X importtime -c "import xpoincare.cli"`.

    Total is the top-level `xpoincare` entry, without interpreter start-up
    imports such as `site`; scipy and numpy are the outermost entries of
    each package (children print before parents), and numpy modules first
    imported by scipy count as scipy's.
    """
    samples = {"cli.import_ms": [], "cli.import_scipy_ms": [], "cli.import_numpy_ms": []}
    for _ in range(IMPORT_REPEATS):
        err = run_child([sys.executable, "-X", "importtime", "-c",
                         "import xpoincare.cli"], env).stderr
        rows = []
        for line in err.splitlines():
            m = _IMPORTTIME.match(line)
            if m:
                rows.append((len(m.group(3)) // 2, m.group(4), int(m.group(2)) / 1000.0))
        sums = {"total": 0.0, "scipy": 0.0, "numpy": 0.0}
        stack: list[tuple[int, str]] = []
        for depth, name, cum in reversed(rows):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            top = name.split(".")[0]
            if depth == 0 and top == "xpoincare":
                sums["total"] += cum
            outer = {n.split(".")[0] for _, n in stack}
            if top in ("scipy", "numpy") and not outer & {"scipy", top}:
                sums[top] += cum
            stack.append((depth, name))
        samples["cli.import_ms"].append(sums["total"])
        samples["cli.import_scipy_ms"].append(sums["scipy"])
        samples["cli.import_numpy_ms"].append(sums["numpy"])
    return {k: statistics.median(v) for k, v in samples.items()}


def tail(sorted_values):
    """Highest order statistic with at least 10 samples beyond it (the
    largest sample when there are fewer than 11), and its percentile."""
    n = len(sorted_values)
    if n < 11:
        return sorted_values[-1], 100.0
    return sorted_values[n - 11], 100.0 * (n - 10) / n


# --- untraced run ----------------------------------------------------------------

def run_timed(wl, request, seed, seconds, tally):
    """Closed loop, one client: blocks of requests until `seconds` of timed
    work; each block is checked after its clock stops."""
    items = wl.items(seed)
    latencies, blocks = [], []
    timed = 0.0
    index = 0
    while timed < seconds:
        batch = list(itertools.islice(items, wl.block))
        outs = []
        t_block = clock()
        for item in batch:
            t0 = clock()
            try:
                out = request(item)
            except Exception as exc:  # a failed operation; the run goes on
                out = exc
            latencies.append(clock() - t0)
            outs.append(out)
        elapsed = clock() - t_block
        blocks.append(elapsed)
        timed += elapsed
        for item, out in zip(batch, outs):
            check_one(wl, index, item, out, tally)
            index += 1
    return latencies, blocks, timed


def check_one(wl, index, item, out, tally):
    """Check one request's output; an exception in place of the output
    means the request raised."""
    tally.attempted += 1
    before = tally.failed
    if isinstance(out, Exception):
        tally.fail(f"{wl.name} request {index} raised {out!r}")
        return
    try:
        wl.check(index, item, out, tally)
    except Exception as exc:  # a check that cannot run is a failed operation
        tally.fail(f"{wl.name} request {index}: check raised {exc!r}")
    # one failed operation however many of its checks failed
    tally.failed = min(tally.failed, before + 1)


def p99(sorted_values):
    """99th percentile of request latency over the whole run; with fewer
    than 1000 requests (under 10 samples beyond the p99) it is the tail."""
    if len(sorted_values) < 1000:
        return tail(sorted_values)[0]
    return statistics.quantiles(sorted_values, n=100, method="inclusive")[98]


def end_to_end(wl, latencies, blocks, timed, setup_s, rss_mb):
    lat = sorted(latencies)
    cmds = sorted(blocks if wl.command_is_block else latencies)
    tail_s, tail_pct = tail(cmds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "report_s": (statistics.median(blocks), "s"),
        "ops_per_s": (len(lat) / timed, "1/s"),
        "op_p50_us": (statistics.median(lat) * 1e6, "us"),
        "op_p99_us": (p99(lat) * 1e6, "us"),
        "cmd_p50_ms": (statistics.median(cmds) * 1e3, "ms"),
        "cmd_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = {"requests": len(lat), "reports": len(blocks), "commands": len(cmds),
             "cmd_tail_pct": round(tail_pct, 3)}
    return metrics, notes


# --- traced run -------------------------------------------------------------------

def run_traced(wl, request, seed, seconds, tally, dump_path):
    """Fixed seeded pass, untraced then traced, repeated for `seconds`.

    Counts come from one traced pass and must repeat exactly across passes;
    times are medians over passes."""
    import numpy as np
    from tracer import SPAN_NAMES, Tracer
    from workloads import Tally

    items = list(itertools.islice(wl.items(seed), wl.trace_requests))

    def one_pass(tracer=None):
        outs = []
        t0 = clock()
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.current_request = i
            try:
                outs.append(request(item))
            except Exception as exc:  # a failed operation; the run goes on
                outs.append(exc)
        return clock() - t0, outs

    plain, traced, summaries, tracers = [], [], [], []
    start = clock()
    while not summaries or clock() - start < seconds:
        wall, outs = one_pass()
        plain.append(wall)
        if len(plain) == 1:
            for i, (item, out) in enumerate(zip(items, outs)):
                check_one(wl, i, item, out, tally)
        tracer = Tracer()
        with tracer:
            wall, outs = one_pass(tracer)
        traced.append(wall)
        summaries.append(tracer.summary())
        if len(summaries) == 1:
            tracers.append(tracer)
            # the traced outputs are checked too; their counters would
            # double the untraced pass's, so only failures are kept
            again = Tally()
            for i, (item, out) in enumerate(zip(items, outs)):
                check_one(wl, i, item, out, again)
            tally.attempted += again.attempted
            tally.failed += again.failed
            tally.messages.extend(again.messages[:5])
    first = tracers[0]
    for s in summaries[1:]:
        if any(s[n]["calls"] != summaries[0][n]["calls"] for n in SPAN_NAMES):
            tally.fail(f"{wl.name}: call counts differ between traced passes")
    first.dump(dump_path)
    for name in first.missing:
        print(f"perfbench: traced function {name} not found; reported as 0",
              file=sys.stderr)

    metrics = {}
    modules: dict[str, float] = {}
    for name in SPAN_NAMES:
        calls = summaries[0][name]["calls"]
        self_s = statistics.median(s[name]["self_s"] for s in summaries)
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        mod = name.split(".")[0]
        modules[mod] = modules.get(mod, 0.0) + self_s
    for mod, total in modules.items():
        metrics[f"{mod}.self_s"] = (total, "s")
    for name in ("xlorentz.xl_decompose", "lorentz.lorentz_decompose", "poincare.compose"):
        s = summaries[0][name]
        metrics[f"{name}.accept_ratio"] = (s["returned"] / s["calls"] if s["calls"] else 0.0,
                                           "ratio")

    # calls made inside compose (at any depth), per compose call
    a = first.arrays()
    compose_idx = SPAN_NAMES.index("poincare.compose")
    parent = a["parent"]
    has_parent = parent >= 0
    inside = np.zeros(len(parent), dtype=bool)
    safe_parent = np.where(has_parent, parent, 0)
    pfn_is_compose = has_parent & (a["fn"][safe_parent] == compose_idx)
    for _ in range(64):
        nxt = pfn_is_compose | (has_parent & inside[safe_parent])
        if np.array_equal(nxt, inside):
            break
        inside = nxt
    n_compose = summaries[0]["poincare.compose"]["calls"]
    for name in ("xlorentz.dirac_boost_mat5", "lorentz.boost_matrix"):
        k = int(np.count_nonzero(inside & (a["fn"] == SPAN_NAMES.index(name))))
        metrics[f"{name}.calls_per_compose"] = (k / n_compose if n_compose else 0.0,
                                                "calls/compose")

    for key, unit in (("rejects_gsgs_below_minus1", "count"), ("rejects_other", "count"),
                      ("route_disagreements", "count")):
        metrics[f"poincare.compose.{key}"] = (tally.counts.get(key, 0), unit)
    metrics["tracing.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "frac")
    notes = {"passes": len(summaries), "spans": len(parent),
             "traced_wall_s": statistics.median(traced),
             "untraced_wall_s": statistics.median(plain)}
    table = [(n, summaries[0][n]["calls"], summaries[0][n]["self_s"],
              summaries[0][n]["total_s"]) for n in SPAN_NAMES if summaries[0][n]["calls"]]
    return metrics, notes, table


# --- main -----------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    script = build()
    env = child_env()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("# machine " + json.dumps(machine()))

    tally = workloads.Tally()
    with tempfile.TemporaryDirectory(dir=BUILD, prefix="cli-inputs-") as workdir:
        wl = {"verify": workloads.Verify, "group-ops": workloads.GroupOps,
              "chart-edge": workloads.ChartEdge}.get(args.workload)
        if wl is not None:
            wl = wl()
            request = wl.request
        else:
            wl = workloads.Cli(script, env, workdir)
            request = wl.request_inproc if args.trace else wl.request
        # warm-up, untimed and unchecked: first-call caches and file cache
        request(wl.warm_item(args.seed))

        if args.trace:
            trace_dir = BUILD / "trace"
            trace_dir.mkdir(parents=True, exist_ok=True)
            metrics, notes, table = run_traced(
                wl, request, args.seed, args.seconds, tally,
                trace_dir / f"{args.workload}-seed{args.seed}.npz")
            metrics.update({k: (v, "ms") for k, v in import_ms(env).items()})
            print("# span calls self_s total_s")
            for name, calls, self_s, total_s in table:
                print(f"#   {name:40s} {calls:9d} {self_s:11.6f} {total_s:11.6f}")
        else:
            latencies, blocks, timed = run_timed(wl, request, args.seed, args.seconds,
                                                 tally)
            who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
            rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
            metrics, notes = end_to_end(wl, latencies, blocks, timed, setup_seconds(env),
                                        rss_mb)

    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"# notes {json.dumps(notes)}")
    print(f"# counts {json.dumps(dict(sorted(tally.counts.items())))}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {failed_frac:.6g} frac ({tally.failed}/{tally.attempted})")
    for message in tally.messages:
        print(f"perfbench: FAILED {message}", file=sys.stderr)

    correct = tally.failed == 0 and tally.attempted > 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
