#!/usr/bin/env python3
"""End-to-end benchmark runner (see README.md).

One workload per call:

  run.py --workload NAME --seed N --seconds S --trace 0|1 [--build DIR]

builds bench/e2e into DIR/bench-e2e (DIR defaults to $CARGO_TARGET_DIR, else
.bench_build), runs backfi_bench, checks its outputs, prints every metric
with its unit and, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer metrics of a traced run.

Other modes:

  run.py [--build DIR]                   every workload, untraced and traced
  run.py --sets N --runs M [--out DIR]   N sets of M runs, workload order
                                         alternating, one summary file per set
  run.py --compare A.json B.json         B (change) against A (parent)
  run.py --self-test                     unit tests of the statistics rules
  run.py --smoke --bin PATH              tiny sizes; the ctest smoke test
"""

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_PATH = HERE / "reference.json"
WORKLOADS = ["fig08_sweep", "trial_fresh", "campaign_robust", "stream_drift"]
DEFAULT_SEED = 1
BIN_TIMEOUT_S = 170

# Layers whose spans wrap public library calls (replay.h); the per-layer
# self times of BENCHMARK.json are the ones every workload's traced run has.
LAYERS = ["reader.excitation", "channel.forward", "tag.wake", "tag.modulate",
          "impair", "channel.backscatter", "channel.noise", "fd.receive_chain",
          "reader.decode", "phy.slicer", "sim.oracle", "sim.sweep"]


class BenchError(Exception):
    pass


# --------------------------------------------------------------- statistics

def median(xs):
    return statistics.median(xs)


def tail(xs):
    """(value, percentile) of the highest nearest-rank percentile with at
    least ten samples beyond it, capped at p99; the median when no
    percentile above it has ten samples beyond."""
    s = sorted(xs)
    n = len(s)
    k = min(math.ceil(0.99 * n) - 1, n - 11)
    if k < math.ceil(0.5 * n):
        return median(s), 0.5
    return s[k], (k + 1) / n


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def ratio(a, b):
    return a / b if b else 0.0


# --------------------------------------------------------------- build + run

def build_root(arg):
    if arg:
        return pathlib.Path(arg).resolve()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = pathlib.Path(target)
    return path if path.is_absolute() else ROOT / path


def build(root):
    """Configure (once) and build backfi_bench; returns the binary path."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    out = root / "bench-e2e"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "backfi_bench",
                  "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return out / "backfi_bench"


def get_binary(args):
    return pathlib.Path(args.bin).resolve() if args.bin else build(build_root(args.build))


def run_bench(binary, workload, seed, seconds, trace_path=None, smoke=False):
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if trace_path:
        cmd.append(f"--trace={trace_path}")
    if smoke:
        cmd.append("--smoke")
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=BIN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: no result within {BIN_TIMEOUT_S} s") from e
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        raise BenchError(f"{workload}: backfi_bench exited {p.returncode}")
    return json.loads(p.stdout)


def git_sha():
    try:
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                            "--show-toplevel", "HEAD"],
                           capture_output=True, text=True, timeout=10,
                           env={**os.environ,
                                "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        lines = p.stdout.split()
        if p.returncode == 0 and pathlib.Path(lines[0]).resolve() == ROOT:
            return lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return "unknown"


# --------------------------------------------------------------- metrics

def latency_blocks(res):
    return [res["op_us"][int(b):int(e)] for b, e in res["latency_blocks"]]


def e2e_metrics(res):
    """Medians over the run's timing blocks (see backfi_bench's run_record)."""
    blocks = latency_blocks(res)
    return {
        "setup_s": median(res["setup_s"]),
        "ops_per_s": median([ops / s for ops, s in res["throughput_blocks"]]),
        "op_p50_us": median([median(b) for b in blocks]),
        "op_tail_us": median([tail(b)[0] for b in blocks]),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def span_summary(path):
    """Self time per layer, per op of the op kind it ran in, and coverage:
    layer self time over the summed wall time of the traced ops."""
    spans = {}
    with open(path) as f:
        for line in f:
            s = json.loads(line)
            spans[s["span"]] = s
    child_ns = {}
    root_of = {}
    kind_ops = {}
    kind_ns = {}
    for sid in sorted(spans):
        s = spans[sid]
        dur = s["end_ns"] - s["start_ns"]
        if s["parent"] < 0:
            root_of[sid] = sid
            kind_ops[s["name"]] = kind_ops.get(s["name"], 0) + 1
            kind_ns[s["name"]] = kind_ns.get(s["name"], 0) + dur
        else:
            root_of[sid] = root_of[s["parent"]]
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + dur
    self_ns = {}
    layer_kind = {}
    for sid, s in spans.items():
        if s["parent"] < 0:
            continue
        own = s["end_ns"] - s["start_ns"] - child_ns.get(sid, 0)
        self_ns[s["name"]] = self_ns.get(s["name"], 0) + own
        layer_kind[s["name"]] = spans[root_of[sid]]["name"]
    self_us = {name: ns * 1e-3 / kind_ops[layer_kind[name]]
               for name, ns in self_ns.items()}
    coverage = ratio(sum(self_ns.values()), sum(kind_ns.values()))
    return self_us, coverage


def layer_metrics(res, trace_path):
    t = res["trace"]
    self_us, coverage = span_summary(trace_path)
    m = {f"{layer}.self_us": self_us.get(layer, 0.0) for layer in LAYERS}
    m.update({
        "channel.noise.cache_hit_ratio":
            ratio(t["noise_hits"], t["noise_hits"] + t["noise_misses"]),
        "reader.excitation.cache_hit_ratio":
            ratio(t["excitation_hits"], t["excitation_hits"] + t["excitation_misses"]),
        "channel.noise.cache_mb": t["noise_cache_mb"],
        "reader.excitation.cache_mb": t["excitation_cache_mb"],
        "tag.woke_ratio": ratio(t["woke"], t["woke_of"]),
        "fd.roi_coverage":
            ratio(t["roi_processed"], t["roi_processed"] + t["roi_skipped"]),
        "fd.bypass_ratio": ratio(t["bypassed"], t["chain_runs"]),
        "reader.decode.sync_attempts_mean": ratio(t["sync_attempts"], t["decodes"]),
        "reader.decode.crc_ok_ratio": ratio(t["crc_ok"], t["decodes"]),
        "sim.scheduler.cpu_util": ratio(t["cpu_s"], t["wall_s"] * t["threads"]),
        "trace.coverage": coverage,
        "trace.overhead_pct":
            100.0 * (ratio(sum(t["traced_us"]), len(t["traced_us"]))
                     / ratio(sum(t["untraced_us"]), len(t["untraced_us"])) - 1.0),
    })
    return m


def detail_metrics(res, metrics):
    """The workload-specific names (and extras) the README discusses."""
    w = res["workload"]
    ops = res["attempted"]
    failed = res["exceptions"] + res["drops"] + res["invalid"]
    d = {"error_rate": (ratio(failed, ops), "ratio")}
    if res["traced"]:
        t = res["trace"]
        for layer in ("phy.slicer", "sim.oracle", "sim.sweep"):
            if metrics[f"{layer}.self_us"]:
                d[f"{layer}.self_us"] = (metrics[f"{layer}.self_us"], "us")
        if w == "fig08_sweep":
            cells = t["cells"]
            d["sim.sweep.cell_s.near"] = (
                sum(c["seconds"] for c in cells if c["range_m"] <= 3.0), "s")
            d["sim.sweep.cell_s.far"] = (
                sum(c["seconds"] for c in cells if c["range_m"] >= 6.0), "s")
            d["sim.sweep.trials_examined"] = (
                sum(c["trials_examined"] for c in cells), "count")
        if w == "stream_drift":
            service = t["untraced_us"]
            per_packet = metrics["fd.receive_chain.self_us"] + \
                metrics["reader.decode.self_us"]
            d["reader.stream.service_us_p50"] = (median(service), "us")
            d["reader.stream.session_overhead_us"] = (
                statistics.fmean(service) - per_packet, "us")
        return d
    c = res["check"]
    q = tail(latency_blocks(res)[0])[1]
    if w == "fig08_sweep":
        d["sweep_s"] = (res["detail"]["fastest_sweep_s"], "s")
        d["sweep_goodput_mbps"] = (c["sweep_goodput_mbps"], "Mbps")
    elif w in ("trial_fresh", "campaign_robust"):
        d["trials_per_s"] = (metrics["ops_per_s"], "1/s")
        d["trial_p50_us"] = (metrics["op_p50_us"], "us")
        d[f"trial_p{100 * q:.3g}_us"] = (metrics["op_tail_us"], "us")
        d["per"] = (c["per"], "ratio")
    else:
        late, late_q = tail(res["detail"]["gen_late_us"])
        d["stream_pkts_per_s"] = (metrics["ops_per_s"], "1/s")
        d["pkt_latency_p50_us"] = (metrics["op_p50_us"], "us")
        d[f"pkt_latency_p{100 * q:.3g}_us"] = (metrics["op_tail_us"], "us")
        d["per"] = (c["per"], "ratio")
        d["crc_ok"] = (c["crc_ok"], "count")
        d[f"gen.late_p{100 * late_q:.3g}_us"] = (late, "us")
        d["reader.stream.queue_high_water"] = (
            res["detail"]["queue_high_water"], "count")
    return d


# --------------------------------------------------------------- checks

def check_reference(res, reference):
    """(ok, message). fig08_sweep's cells are fixed, so its table is checked
    for every seed; the other pins hold for the reference seed only."""
    if res["smoke"]:
        return True, "reference n/a (smoke sizes)"
    w = res["workload"]
    pinned = reference[w]
    if w != "fig08_sweep" and res["seed"] != reference["seed"]:
        return True, f"reference n/a (seed {res['seed']}, pinned {reference['seed']})"
    got = {k: res["check"][k] for k in pinned}
    if got == pinned:
        return True, "reference ok"
    diff = [k for k in pinned if got[k] != pinned[k]]
    return False, f"reference MISMATCH in {diff}: got {[got[k] for k in diff]}"


def evaluate(res, trace_path, spec, reference):
    """Metrics, detail and correctness of one backfi_bench result."""
    if res["traced"]:
        metrics = layer_metrics(res, trace_path)
        names = spec["per_layer"]
    else:
        metrics = e2e_metrics(res)
        names = spec["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    failed = res["exceptions"] + res["drops"] + res["invalid"]
    ref_ok, ref_msg = check_reference(res, reference)
    return {
        "correct": failed == 0 and ref_ok,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names},
        "detail": detail_metrics(res, metrics),
        "all_metrics": metrics,
        "reference": ref_msg,
    }


def print_result(res, ev):
    mode = "traced" if res["traced"] else "untraced"
    print(f"== {res['workload']} seed={res['seed']} ({mode}, "
          f"{res['attempted']} ops)")
    for name, m in ev["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    for name, (value, unit) in ev["detail"].items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(f"  {ev['reference']}; failed {ev['failed']}"
          + "".join(f"\n  ! {n}" for n in res["notes"]))


def load_json(path):
    with open(path) as f:
        return json.load(f)


def measure(binary, workload, seed, seconds, traced, out_dir, spec,
            reference, smoke=False):
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-{'traced' if traced else 'untraced'}"
    # One trace file per workload (the latest run's): they run to megabytes.
    trace_path = out_dir / f"{workload}-trace.jsonl" if traced else None
    res = run_bench(binary, workload, seed, seconds, trace_path, smoke)
    ev = evaluate(res, trace_path, spec, reference)
    res["manifest"]["git_sha"] = git_sha()
    record = {"manifest": res["manifest"], "workload": workload,
              "seed": seed, "traced": traced,
              **{k: ev[k] for k in ("correct", "attempted", "failed",
                                    "metrics", "reference")},
              "detail": {k: {"value": v, "unit": u}
                         for k, (v, u) in ev["detail"].items()}}
    with open(out_dir / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1)
    return res, ev


# --------------------------------------------------------------- compare

def compare_metric(a, b, bound, better):
    """Verdict for one metric: a = parent runs, b = change runs, paired by
    index (alternating order). bound None means the values must be equal."""
    if bound is None:
        return "identical" if a == b else "differs"
    ma, mb = median(a), median(b)
    q1a, q3a = quartiles(a)
    q1b, q3b = quartiles(b)
    spread = max(ratio(q3a - q1a, abs(ma)), ratio(q3b - q1b, abs(mb)))
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (mb - ma)
    all_better = min(sign * x for x in b) > max(sign * x for x in a)
    if spread > bound:
        return "gain" if all_better else "unresolved"
    if -gain > bound * abs(ma):
        return "regression"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > q3a - q1a:
        return "gain"
    return "no regression"


EXACT = ("per", "sweep_goodput_mbps", "error_rate", "crc_ok")


def compare(a, b, spec):
    """Rows (workload, metric, verdict, parent median, change median)."""
    rows = []
    for w in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][w], b["workloads"][w]
        for m in spec["end_to_end"]:
            name = m["name"]
            verdict = compare_metric(wa["metrics"][name], wb["metrics"][name],
                                     m["bound"], m["better"])
            rows.append((w, name, verdict, median(wa["metrics"][name]),
                         median(wb["metrics"][name])))
        for name in sorted(set(wa["exact"]) & set(wb["exact"])):
            verdict = compare_metric(wa["exact"][name], wb["exact"][name],
                                     None, None)
            rows.append((w, name, verdict, wa["exact"][name][0],
                         wb["exact"][name][0]))
    return rows


# --------------------------------------------------------------- modes

def mode_single(args, spec, reference):
    binary = get_binary(args)
    res, ev = measure(binary, args.workload, args.seed, args.seconds,
                      args.trace == 1, build_root(args.build) / "results",
                      spec, reference)
    print_result(res, ev)
    print(json.dumps({k: ev[k] for k in ("correct", "attempted", "failed",
                                         "metrics")}))
    return 0 if ev["correct"] else 1


def mode_all(args, spec, reference):
    binary = get_binary(args)
    ok = True
    for w in WORKLOADS:
        for traced in (False, True):
            res, ev = measure(binary, w, args.seed, args.seconds, traced,
                              build_root(args.build) / "results", spec,
                              reference)
            print_result(res, ev)
            ok = ok and ev["correct"]
    return 0 if ok else 1


def mode_sets(args, spec, reference):
    binary = get_binary(args)
    out = pathlib.Path(args.out) if args.out else build_root(args.build) / "sets"
    out.mkdir(parents=True, exist_ok=True)
    ok = True
    for s in range(1, args.sets + 1):
        summary = {"git_sha": git_sha(), "runs": args.runs, "workloads": {
            w: {"metrics": {m["name"]: [] for m in spec["end_to_end"]},
                "exact": {}} for w in WORKLOADS}}
        for r in range(args.runs):
            order = WORKLOADS if r % 2 == 0 else WORKLOADS[::-1]
            for w in order:
                res, ev = measure(binary, w, DEFAULT_SEED + r, args.seconds,
                                  False, out / f"set{s}", spec, reference)
                ok = ok and ev["correct"]
                entry = summary["workloads"][w]
                entry["manifest"] = res["manifest"]
                for name, m in ev["metrics"].items():
                    entry["metrics"][name].append(m["value"])
                for name, (value, _) in ev["detail"].items():
                    if name in EXACT:
                        entry["exact"].setdefault(name, []).append(value)
                print(f"set {s} run {r + 1}/{args.runs} {w}: "
                      + ("ok" if ev["correct"] else "INCORRECT"), file=sys.stderr)
        path = out / f"set{s}.json"
        with open(path, "w") as f:
            json.dump(summary, f, indent=1)
        print(f"# set {s} -> {path}")
        for w in WORKLOADS:
            for name, values in summary["workloads"][w]["metrics"].items():
                q1, q3 = quartiles(values)
                print(f"{w:16s} {name:14s} median {median(values):12.6g} "
                      f"q1 {q1:12.6g} q3 {q3:12.6g} n {len(values)}")
    return 0 if ok else 1


def mode_compare(args, spec):
    rows = compare(load_json(args.compare[0]), load_json(args.compare[1]), spec)
    bad = False
    for w, name, verdict, ma, mb in rows:
        print(f"{w:16s} {name:20s} {verdict:14s} parent {ma:12.6g} "
              f"change {mb:12.6g}")
        bad = bad or verdict in ("regression", "unresolved", "differs")
    return 1 if bad else 0


def mode_smoke(args, spec, reference):
    binary = get_binary(args)
    start = time.monotonic()
    ok = True
    with tempfile.TemporaryDirectory(dir=binary.parent) as tmp:
        for w in WORKLOADS:
            for traced in (False, True):
                res, ev = measure(binary, w, DEFAULT_SEED, 1, traced,
                                  pathlib.Path(tmp), spec, reference, smoke=True)
                print_result(res, ev)
                if not ev["correct"]:
                    ok = False
                    print(f"FAIL {w}: correctness checks")
                if traced and ev["all_metrics"]["trace.coverage"] < 0.97:
                    ok = False
                    print(f"FAIL {w}: trace.coverage "
                          f"{ev['all_metrics']['trace.coverage']:.4f} < 0.97")
    print(f"smoke {'passed' if ok else 'FAILED'} in {time.monotonic() - start:.1f} s")
    return 0 if ok else 1


# --------------------------------------------------------------- self-test

class StatisticsTest(unittest.TestCase):
    def test_tail_is_p99_with_ten_beyond(self):
        xs = list(range(1000))
        self.assertEqual(tail(xs), (989, 0.99))
        self.assertEqual(sum(1 for x in xs if x > tail(xs)[0]), 10)

    def test_tail_backs_off_for_small_samples(self):
        value, q = tail(list(range(32)))
        self.assertEqual((value, q), (21, 22 / 32))
        self.assertEqual(sum(1 for x in range(32) if x > value), 10)

    def test_tail_falls_back_to_median(self):
        self.assertEqual(tail(list(range(10))), (4.5, 0.5))
        self.assertEqual(tail(list(range(16))), (7.5, 0.5))
        self.assertEqual(tail([7.0]), (7.0, 0.5))

    def test_median_and_quartiles(self):
        self.assertEqual(median([3, 1, 2, 4]), 2.5)
        self.assertEqual(quartiles([5.0]), (5.0, 5.0))


class CompareTest(unittest.TestCase):
    A = [100.0 + i % 3 for i in range(10)]

    def test_no_regression_within_bound(self):
        b = [x * 1.05 for x in self.A]
        self.assertEqual(compare_metric(self.A, b, 0.10, "lower"), "no regression")

    def test_regression_beyond_bound(self):
        b = [x * 1.2 for x in self.A]
        self.assertEqual(compare_metric(self.A, b, 0.10, "lower"), "regression")
        self.assertEqual(compare_metric(self.A, b, 0.10, "higher"), "gain")

    def test_unresolved_when_spread_exceeds_bound(self):
        a = [80.0, 120.0] * 5
        b = [x * 1.02 for x in a]
        self.assertEqual(compare_metric(a, b, 0.10, "lower"), "unresolved")

    def test_gain_needs_ten_pairs_and_nine_wins(self):
        b = [x * 0.95 for x in self.A]
        self.assertEqual(compare_metric(self.A, b, 0.10, "lower"), "gain")
        self.assertEqual(compare_metric(self.A[:9], b[:9], 0.10, "lower"),
                         "no regression")
        b2 = list(b)
        b2[0] = b2[1] = 200.0
        self.assertNotEqual(compare_metric(self.A, b2, 0.10, "lower"), "gain")

    def test_exact_metrics(self):
        self.assertEqual(compare_metric([0.1, 0.1], [0.1, 0.1], None, None),
                         "identical")
        self.assertEqual(compare_metric([0.1], [0.2], None, None), "differs")


def mode_self_test():
    suite = unittest.TestSuite()
    for case in (StatisticsTest, CompareTest):
        suite.addTests(unittest.defaultTestLoader.loadTestsFromTestCase(case))
    return 0 if unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful() else 1


# --------------------------------------------------------------- main

def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--build", help="build directory root (default "
                   "$CARGO_TARGET_DIR or .bench_build)")
    p.add_argument("--sets", type=int)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--out", help="output directory for --sets")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--bin", help="use this backfi_bench instead of building")
    args = p.parse_args()

    if args.self_test:
        return mode_self_test()
    spec = load_json(SPEC_PATH)
    if args.compare:
        return mode_compare(args, spec)
    reference = load_json(REFERENCE_PATH)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    try:
        if args.smoke:
            return mode_smoke(args, spec, reference)
        if args.sets:
            return mode_sets(args, spec, reference)
        if args.workload:
            return mode_single(args, spec, reference)
        return mode_all(args, spec, reference)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
