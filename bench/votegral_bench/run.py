#!/usr/bin/env python3
"""Builds and runs votegral_bench. Standard library only.

One workload, as BENCHMARK.json's command runs it:

    python3 bench/votegral_bench/run.py --workload W --seed S --seconds N --trace 0|1

builds the benchmark from this source tree into build/vb/, runs W, and
passes its output through. The last stdout line is the result JSON: the
end-to-end metrics, or with --trace 1 the per-layer metrics (the Chrome
trace goes to build/vb/out/). The exit status is the benchmark's: 0 only
when every correctness check held.

Subcommands:

    run.py run [--workloads a,b] [--reps N] [--seconds N] [--seed-base S]
               [--out DIR] [--baseline FILE] [--trace]
        Interleaves workloads x repetitions (seed = seed-base + repetition)
        and reports, per workload, the median and quartiles of every
        end-to-end metric and the quartile spread as a share of the median,
        over all runs and again without the runs whose host-drift probe
        moved more than 5%. --trace adds one traced run per workload and
        reports its measured tracing overhead. --baseline writes the
        summary as a baseline.

    run.py compare A B [--pairs N] [--workloads a,b] [--seconds N]
        A and B are source trees (A the parent, B the change). This
        benchmark's code is built against each tree's library, then run in
        alternating pairs (A first in even pairs, B first in odd ones, both
        on the pair's seed). Per (metric, workload) the verdict is improved,
        no-worse, regressed or unresolved, judged against the bounds in
        BENCHMARK.json. Pairs with a drifted run are counted and reported.
        Exits 1 if anything regressed.

    run.py smoke
        --smoke on every workload, untraced and traced: every correctness
        check at tiny sizes.

    run.py probe [--count N]
        N back-to-back host-probe readings: the probe's own noise, and the
        share of neighbouring readings more than 5% apart.

    run.py scale [--workloads a,b] [--seed S] [--baseline FILE]
        One round of each workload at --issue-sizes and one run at the
        default sizes, on the same seed: the per-voter (per-entry for
        catchup) result and audit seconds side by side. --baseline adds
        them to an existing baseline file under "scaling".
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parents[1]
# Everything the benchmark leaves behind goes under build/, which the
# repository already ignores.
BUILD_ROOT = ROOT / "build" / "vb"
OUT_DIR = BUILD_ROOT / "out"
TMP_DIR = "build/vb/tmp"  # relative to the working directory: short socket paths
RUN_TIMEOUT_S = 170
SCALE_TIMEOUT_S = 900  # one round at --issue-sizes
DRIFT_LIMIT_PCT = 5.0
# Units of work per round at each size, for per-voter (per-entry) costs.
DEFAULT_UNITS = {"register": 1024, "tally": 512, "revote": 128, "catchup": 1 << 16}
ISSUE_UNITS = {"register": 8192, "tally": 6144, "revote": 1536, "catchup": 1 << 18}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build(source_root, build_dir):
    """Configures (once) and builds the benchmark against source_root's library."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release", f"-DVOTEGRAL_ROOT={source_root}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    compile_cmd = ["cmake", "--build", str(build_dir), "--target", "votegral_bench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return build_dir / "votegral_bench"


def run_binary(binary, workload, seed, seconds, trace_file=None, json_file=None, extra=(),
               timeout=RUN_TIMEOUT_S):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--tmp", TMP_DIR, *extra]
    if trace_file:
        cmd += ["--trace", str(trace_file)]
    if json_file:
        cmd += ["--json", str(json_file)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"votegral_bench: {workload} exceeded {timeout} s")
        return 124, []
    return proc.returncode, proc.stdout.splitlines()


def run_one(args):
    spec = load_spec()
    binary = build(ROOT, BUILD_ROOT / "bench")
    if binary is None:
        log("votegral_bench: build failed")
        return 3
    trace_file = None
    if args.trace:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
    code, lines = run_binary(binary, args.workload, args.seed, args.seconds, trace_file)
    if not lines:
        return code or 1
    for line in lines[:-1]:
        print(line)
    # The result must carry exactly the metrics BENCHMARK.json promises.
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("votegral_bench: last line is not a result")
        return code or 1
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(result.get("metrics", {})) != sorted(wanted) and code == 0:
        log("votegral_bench: result metrics differ from BENCHMARK.json")
        return 4
    print(lines[-1], flush=True)
    return code


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(runs, spec):
    """Median, quartiles and spread per (workload, end-to-end metric)."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table = {}
    for workload in sorted({r["workload"] for r in runs}):
        rows = [r for r in runs if r["workload"] == workload]
        table[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in rows if name in r["metrics"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            table[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                     "bound": bound, "n": len(values)}
    return table


def print_summary(table):
    print(f"{'workload':10} {'metric':14} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  n")
    for workload, metrics in table.items():
        for name, s in metrics.items():
            flag = "  NOISY" if s["spread"] > s["bound"] / 3 else ""
            print(f"{workload:10} {name:14} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['spread']:8.3f} {s['bound']:6.2f}  {s['n']}{flag}")


def read_result(json_file):
    with open(json_file) as f:
        return json.load(f)


def drift_pct(result):
    return result["metrics"].get("host.drift_pct", {}).get("value", 0.0)


def drifted(result):
    return abs(drift_pct(result)) > DRIFT_LIMIT_PCT


def cmd_run(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    binary = build(ROOT, BUILD_ROOT / "bench")
    if binary is None:
        log("votegral_bench: build failed")
        return 3
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    runs = []
    failed = 0
    for rep in range(args.reps):
        seed = args.seed_base + rep
        # Rotate the order so no workload always runs first.
        order = workloads[rep % len(workloads):] + workloads[:rep % len(workloads)]
        for workload in order:
            json_file = out / f"{workload}-{seed}.json"
            start = time.time()
            code, _ = run_binary(binary, workload, seed, args.seconds, json_file=json_file)
            if code != 0:
                log(f"{workload} seed {seed}: exit {code}")
                failed += 1
                continue
            result = read_result(json_file)
            result["workload"] = workload
            result["seed"] = seed
            runs.append(result)
            flag = "  DRIFT" if drifted(result) else ""
            log(f"{workload:8} seed {seed:4}: {time.time() - start:6.1f} s, "
                f"host drift {drift_pct(result):+.1f}%{flag}")
    table = summarize(runs, spec)
    print("all runs:")
    print_summary(table)
    steady_runs = [r for r in runs if not drifted(r)]
    table_steady = summarize(steady_runs, spec)
    print(f"without the runs whose host probes moved more than {DRIFT_LIMIT_PCT}%:")
    print_summary(table_steady)
    drifted_runs = [f"{r['workload']}/{r['seed']}" for r in runs if drifted(r)]
    print(f"host drift over {DRIFT_LIMIT_PCT}% in {len(drifted_runs)} of {len(runs)} runs: "
          f"{', '.join(drifted_runs)}")

    traced = {}
    if args.trace:
        for workload in workloads:
            json_file = out / f"{workload}-traced.json"
            code, _ = run_binary(binary, workload, args.seed_base, args.seconds,
                                 trace_file=out / f"trace-{workload}.json", json_file=json_file)
            if code != 0:
                failed += 1
                continue
            result = read_result(json_file)["metrics"]
            traced[workload] = {name: result[f"trace.{name}"]["value"] for name in (
                "overhead_pct", "result_overhead_pct", "audit_overhead_pct",
                "estimated_overhead_pct", "spans_per_round")}
            t = traced[workload]
            print(f"traced {workload}: against the untraced copies, op_p50_ms "
                  f"{t['overhead_pct']:+.2f}%, result_s {t['result_overhead_pct']:+.2f}%, "
                  f"audit_s {t['audit_overhead_pct']:+.2f}%; estimated from span cost "
                  f"{t['estimated_overhead_pct']:.2g}%")

    summary = {
        "command": ["python3", "bench/votegral_bench/run.py", "run", "--reps", str(args.reps),
                    "--seconds", str(args.seconds), "--seed-base", str(args.seed_base)]
                   + (["--trace"] if args.trace else []),
        "traced_run_command": ["python3", "bench/votegral_bench/run.py", "--workload", "W",
                               "--seed", "S", "--seconds", str(args.seconds), "--trace", "1"],
        "seeds": [args.seed_base + rep for rep in range(args.reps)],
        "record": runs[0]["run"] if runs else None,
        "metrics": table,
        "metrics_without_drifted_runs": table_steady,
        "spread_over_a_tenth": [
            {"workload": w, "metric": name, "spread": round(s["spread"], 4), "bound": s["bound"]}
            for w, metrics in table.items() for name, s in metrics.items() if s["spread"] > 0.1],
        "drift_limit_pct": DRIFT_LIMIT_PCT,
        "drifted_runs": drifted_runs,
        "traced": traced,
        "failed_runs": failed,
    }
    with open(out / "summary.json", "w") as f:
        json.dump(summary, f, indent=2)
    if args.baseline:
        write_json(args.baseline, summary)
    return 1 if failed else 0


def write_json(path, data):
    with open(path, "w") as f:
        json.dump(data, f, indent=2)
        f.write("\n")


def verdict(a, b, better, bound):
    """The compare rule: improved, no-worse, regressed or unresolved."""
    lower = better == "lower"
    wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
    q1a, med_a, q3a = quartiles(a)
    q1b, med_b, q3b = quartiles(b)
    worse = ((med_b - med_a) if lower else (med_a - med_b)) / med_a
    spread = max((q3a - q1a) / med_a, (q3b - q1b) / med_b)
    all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
    if wins >= 0.9 * len(a) and worse < 0 and abs(med_b - med_a) > q3a - q1a:
        result = "improved"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif worse > bound:
        result = "regressed"
    else:
        result = "no-worse"
    return result, {"median_a": med_a, "median_b": med_b, "change": worse, "spread": spread,
                    "win_share": wins / len(a)}


def cmd_compare(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    sides = []
    for tree in (args.a, args.b):
        tree = Path(tree).resolve()
        tag = hashlib.sha256(str(tree).encode()).hexdigest()[:12]
        binary = build(tree, BUILD_ROOT / f"compare-{tag}")
        if binary is None:
            log(f"votegral_bench: build against {tree} failed")
            return 3
        sides.append(binary)
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    values = {}  # (workload, metric) -> ([a...], [b...])
    drifted_pairs = []
    for pair in range(args.pairs):
        seed = args.seed_base + pair
        for workload in workloads:
            order = (0, 1) if pair % 2 == 0 else (1, 0)
            results = {}
            for side in order:
                json_file = out / f"{'AB'[side]}-{workload}-{seed}.json"
                code, _ = run_binary(sides[side], workload, seed, args.seconds,
                                     json_file=json_file)
                if code != 0:
                    log(f"{'AB'[side]} {workload} seed {seed}: exit {code}")
                    return 1
                result = read_result(json_file)
                results[side] = result["metrics"]
                if drifted(result):
                    log(f"{'AB'[side]} {workload} seed {seed}: "
                        f"host drift {drift_pct(result):+.1f}%")
                    if not drifted_pairs or drifted_pairs[-1] != f"{workload}/{seed}":
                        drifted_pairs.append(f"{workload}/{seed}")
            for m in spec["end_to_end"]:
                a, b = values.setdefault((workload, m["name"]), ([], []))
                a.append(results[0][m["name"]]["value"])
                b.append(results[1][m["name"]]["value"])
            log(f"pair {pair} {workload} done")
    report = []
    print(f"{'workload':10} {'metric':14} {'median A':>12} {'median B':>12} {'change':>8} "
          f"{'spread':>7} {'wins':>5}  verdict")
    for m in spec["end_to_end"]:
        for workload in workloads:
            a, b = values[(workload, m["name"])]
            result, stats = verdict(a, b, m["better"], m["bound"])
            report.append({"workload": workload, "metric": m["name"], "verdict": result, **stats})
            print(f"{workload:10} {m['name']:14} {stats['median_a']:12.6g} "
                  f"{stats['median_b']:12.6g} {stats['change']:+8.3f} {stats['spread']:7.3f} "
                  f"{stats['win_share']:5.2f}  {result}")
    print(f"pairs with a drifted run: {len(drifted_pairs)} of {args.pairs * len(workloads)}"
          + (f" ({', '.join(drifted_pairs)})" if drifted_pairs else ""))
    with open(out / "compare.json", "w") as f:
        json.dump(report, f, indent=2)
    return 1 if any(r["verdict"] == "regressed" for r in report) else 0


def cmd_smoke(_args):
    spec = load_spec()
    binary = build(ROOT, BUILD_ROOT / "bench")
    if binary is None:
        log("votegral_bench: build failed")
        return 3
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    start = time.time()
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for traced in (False, True):
            trace_file = OUT_DIR / f"smoke-trace-{workload}.json" if traced else None
            code, lines = run_binary(binary, workload, 1, 1, trace_file=trace_file,
                                     extra=["--smoke"])
            ok = code == 0 and lines and json.loads(lines[-1]).get("correct") is True
            failures += 0 if ok else 1
            print(f"smoke {workload:8} {'traced' if traced else 'untraced':8} "
                  f"{'ok' if ok else 'FAILED'}")
    print(f"smoke: {time.time() - start:.1f} s")
    return 1 if failures else 0


def cmd_probe(args):
    binary = build(ROOT, BUILD_ROOT / "bench")
    if binary is None:
        log("votegral_bench: build failed")
        return 3
    proc = subprocess.run([str(binary), "--probes", str(args.count)], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    readings = {}
    for line in proc.stdout.splitlines():
        name, value, unit = line.split()
        readings.setdefault((name, unit), []).append(float(value))
    if proc.returncode != 0 or any(len(v) < 2 for v in readings.values()) or not readings:
        log("votegral_bench: probe failed")
        return 1
    for (name, unit), values in readings.items():
        q1, med, q3 = quartiles(values)
        steps = [abs(b / a - 1) * 100 for a, b in zip(values, values[1:])]
        over = sum(1 for s in steps if s > DRIFT_LIMIT_PCT)
        print(f"{name}: {len(values)} readings, median {med:.6g} {unit}, q1 {q1:.6g}, "
              f"q3 {q3:.6g}, spread {(q3 - q1) / med:.3f}, min {min(values):.6g}, "
              f"max {max(values):.6g}")
        print(f"  neighbouring readings: median change {statistics.median(steps):.2f}%, "
              f"max {max(steps):.2f}%, {over} of {len(steps)} over {DRIFT_LIMIT_PCT}%")
    return 0


def per_unit(result, workload, units):
    """Result and audit seconds per voter (per entry for catchup)."""
    metrics = result["metrics"]
    # The catchup audit covers the board plus the 256 x 128 incremental entries.
    audited = units + (256 * 128 if workload == "catchup" else 0)
    return {"units": units,
            "result_ms_per_unit": 1e3 * metrics["result_s"]["value"] / units,
            "audit_ms_per_unit": 1e3 * metrics["audit_s"]["value"] / audited,
            "op_p50_ms": metrics["op_p50_ms"]["value"],
            "drift_pct": drift_pct(result)}


def cmd_scale(args):
    spec = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    binary = build(ROOT, BUILD_ROOT / "bench")
    if binary is None:
        log("votegral_bench: build failed")
        return 3
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    scaling = {}
    print(f"{'workload':10} {'sizes':8} {'units':>7} {'result ms/unit':>15} "
          f"{'audit ms/unit':>14} {'op_p50_ms':>10} {'drift':>7}")
    for workload in workloads:
        scaling[workload] = {}
        for sizes, extra, units in (("issue", ["--issue-sizes"], ISSUE_UNITS[workload]),
                                    ("default", [], DEFAULT_UNITS[workload])):
            json_file = out / f"{workload}-{sizes}.json"
            code, _ = run_binary(binary, workload, args.seed, 0, json_file=json_file,
                                 extra=extra, timeout=SCALE_TIMEOUT_S)
            if code != 0:
                log(f"{workload} at {sizes} sizes: exit {code}")
                return 1
            row = per_unit(read_result(json_file), workload, units)
            scaling[workload][sizes] = row
            print(f"{workload:10} {sizes:8} {units:7} {row['result_ms_per_unit']:15.5g} "
                  f"{row['audit_ms_per_unit']:14.5g} {row['op_p50_ms']:10.4g} "
                  f"{row['drift_pct']:+6.1f}%")
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
        baseline["scaling"] = {
            "command": ["python3", "bench/votegral_bench/run.py", "scale", "--seed", str(args.seed)],
            "note": "ms per voter (per board entry for catchup); issue sizes run one round, "
                    "default sizes at least three",
            "workloads": scaling}
        write_json(args.baseline, baseline)
    return 0


def main(argv):
    commands = {"run": cmd_run, "compare": cmd_compare, "smoke": cmd_smoke, "probe": cmd_probe,
                "scale": cmd_scale}
    if argv and argv[0] in commands:
        parser = argparse.ArgumentParser(prog="run.py " + argv[0])
        if argv[0] == "compare":
            parser.add_argument("a")
            parser.add_argument("b")
            parser.add_argument("--pairs", type=int, default=10)
        if argv[0] == "run":
            parser.add_argument("--reps", type=int, default=5)
            parser.add_argument("--trace", action="store_true")
        if argv[0] in ("run", "scale"):
            parser.add_argument("--baseline")
        if argv[0] == "probe":
            parser.add_argument("--count", type=int, default=40)
        if argv[0] == "scale":
            parser.add_argument("--seed", type=int, default=1)
        if argv[0] in ("run", "compare", "scale"):
            parser.add_argument("--workloads")
            parser.add_argument("--out", default=str(OUT_DIR / argv[0]))
        if argv[0] in ("run", "compare"):
            parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
            parser.add_argument("--seed-base", type=int, default=1)
        args = parser.parse_args(argv[1:])
        return commands[argv[0]](args)
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run_one(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
