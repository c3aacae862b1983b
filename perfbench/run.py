#!/usr/bin/env python3
"""REFILL benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload batch-30d --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a REFILL checkout.  Builds the harness with dune,
generates the workload input from the seed in separate processes (timed as
setup), then runs the timed passes in a fresh process.  Human-readable
progress goes to stdout; the last stdout line is the JSON result.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True

EXE = os.path.join("_build", "default", "perfbench", "refill_bench.exe")
OUT = ".bench_out"
LEDGER = os.path.join(OUT, "ledger.json")
# Dump order per workload: batch reads node-major, stream and serve read
# arrival order.
ORDER = {"batch-30d": "node", "stream-30d": "time", "serve-30d": "time"}
SETUP_REPS = 2  # input generations per untraced run; setup_s is their median
RUN_BUDGET = 170.0  # seconds a run may take once the harness is built


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def check_layout():
    for path in ("dune-project", "lib/refill", "lib/serve", "perfbench/dune",
                 "BENCHMARK.json"):
        if not os.path.exists(path):
            die(f"{path} not found; run from the root of a REFILL checkout")


def build():
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        [dune, "build", "--root", ".", "--cache=disabled",
         "./perfbench/refill_bench.exe"],
        capture_output=True, text=True, env=env, timeout=840)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        die("build failed", 1)


class Clock:
    """The run's remaining time, handed to each child as its timeout."""

    def __init__(self, budget):
        self.end = time.monotonic() + budget

    def left(self):
        return max(5.0, self.end - time.monotonic())


def call(args, clock):
    r = subprocess.run([EXE] + args, capture_output=True, text=True,
                       timeout=clock.left())
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        die(f"{' '.join(args[:1])} exited with {r.returncode}", 1)
    return r.stdout


def generate(scenario, seed, order, dump, reps, clock):
    """Generate the dump [reps] times; returns the wall times."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        call(["gen", "--scenario", scenario, "--seed", str(seed),
              "--order", order, "-o", dump], clock)
        times.append(time.perf_counter() - t0)
    return times


def load_ledger():
    try:
        with open(LEDGER) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def ledger_check(kind, scenario, seed, digest):
    """Repeat runs of one seed must emit the same digest."""
    ledger = load_ledger()
    key = f"{kind}:{scenario}:{seed}"
    prior = ledger.setdefault(key, digest)
    with open(LEDGER, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
    return {"name": "repeat runs agree", "ok": prior == digest,
            "detail": f"{key} {digest} (first seen {prior})"}


def median(xs):
    return statistics.median(xs) if xs else 0.0


def measure(workload, seed, seconds, trace, spec, scenario="default",
            expect=None, extra=(), clock=None):
    """One benchmark run; returns (result, report) where result is the final
    JSON object and report the harness's own per-pass report."""
    clock = clock or Clock(RUN_BUDGET)
    loadavg = open("/proc/loadavg").read().split()[:3]
    dump = os.path.join(OUT, f"{workload}.dump")
    gen_times = generate(scenario, seed, ORDER[workload], dump,
                         1 if trace else SETUP_REPS, clock)
    if workload == "serve-30d" and expect is None:
        # The stream digest of this seed: from an earlier run in this
        # checkout, else from one single-domain stream pass now.
        expect = load_ledger().get(f"stream:{scenario}:{seed}") or call(
            ["reference", "--dump", dump], clock).split()[-1]
    args = ["run", "--workload", workload, "--dump", dump,
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--out", OUT] + list(extra)
    if expect is not None:
        args += ["--expect", expect]
    lines = call(args, clock).splitlines()
    for line in lines[:-1]:
        print(line)
    report = json.loads(lines[-1])
    passes = report["passes"]
    good = [p for p in passes if p["ok"]]
    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    checks = list(report["checks"])
    if good:
        kind = "batch" if workload == "batch-30d" else "stream"
        checks.append(ledger_check(kind, scenario, seed, good[0]["digest"]))

    if trace:
        names = spec["per_layer"]
        layer = lambda k: median([p["layers"].get(k, 0.0) for p in traced])
        values = {m["name"]: layer(m["name"]) for m in names}
        if "trace_overhead" in values:
            plain_wall = median([p["wall_s"] for p in plain])
            values["trace_overhead"] = (
                median([p["wall_s"] for p in traced]) / plain_wall
                if plain_wall else 0.0)
        metric_list = names
    else:
        serve_setup = median([p["serve_setup_s"] for p in plain])
        values = {"setup_s": median(gen_times) + serve_setup}
        for name in ("records_per_s", "emit_lag_p50_ms", "emit_lag_p99_ms"):
            values[name] = median([p[name] for p in plain])
        # Later passes start with memory the allocator kept from earlier
        # ones, so their peaks creep up; the first is what a fresh process
        # reaches.
        values["peak_rss_mb"] = plain[0]["peak_rss_mb"] if plain else 0.0
        metric_list = spec["end_to_end"]
    result = {
        "correct": bool(plain or traced) and all(c["ok"] for c in checks),
        "attempted": sum(p["records"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in metric_list},
    }

    # Noise facts, the failure share and the checks, for the reader.
    print(f"noise: nproc={os.cpu_count()} loadavg={','.join(loadavg)} "
          f"setup runs={['%.3f' % t for t in gen_times]} "
          f"timed wall={median([p['wall_s'] for p in good]):.3f}s "
          f"cpu={median([p['cpu_s'] for p in good]):.3f}s")
    if workload != "batch-30d" and plain:
        print("end-of-input flush: lag p99 "
              f"{median([p['flush_lag_p99_ms'] for p in plain]):.1f} ms over "
              f"{plain[0]['flushed_flows']} flows (kept out of emit_lag_*)")
    failed_passes = [p for p in passes if not p["ok"]]
    print(f"failures: {len(failed_passes)} of {len(passes)} passes failed, "
          f"{result['failed']} of {result['attempted']} records unacknowledged")
    for p in failed_passes:
        print(f"  pass {p['index']}: {'; '.join(p['errors'])}")
    for c in checks:
        print(f"check {c['name']}: {'ok' if c['ok'] else 'FAILED'} "
              f"({c['detail']})")
    if trace:
        cov = result["metrics"].get("coverage", {}).get("value", 0.0)
        flag = (" -- BELOW 0.9: unexplained time"
                if cov < 0.9 and workload != "serve-30d" else "")
        print(f"coverage {cov:.3f}{flag}; trace_overhead "
              f"{values.get('trace_overhead', 0.0):.3f}; chrome trace "
              f"{os.path.join(OUT, 'trace-' + workload + '.json')}")
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    with open(os.path.join(OUT, f"result-{workload}-{seed}-{int(trace)}.json"),
              "w") as f:
        json.dump({"result": result, "checks": checks, "report": report,
                   "setup_runs": gen_times, "loadavg": loadavg,
                   "nproc": os.cpu_count()}, f, indent=1)
    return result, report


def selftest(spec):
    """The harness on the tiny scenario: every check must fire."""
    failures = []

    def expect(cond, what):
        print(f"selftest: {'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            failures.append(what)

    clock = Clock(600)
    r = subprocess.run([EXE, "checks"], capture_output=True, text=True,
                       timeout=60)
    print(r.stdout, end="")
    expect(r.returncode == 0, "each check passes good input and rejects bad")

    tiny = dict(scenario="tiny", clock=clock)
    res, _ = measure("batch-30d", 1, 0, True, spec, **tiny)
    expect(res["correct"], "batch: flows = packet keys, passes agree")
    expect(res["metrics"]["global_flow.s"]["value"] > 0,
           "batch: traced run times the global merge")
    with open(os.path.join(OUT, "trace-batch-30d.json")) as f:
        events = json.load(f)["traceEvents"]
    expect(any(e.get("name") == "reconstruct" for e in events),
           "batch: chrome trace holds the reconstruct span")

    dump = os.path.join(OUT, "stream-30d.dump")
    res, rep = measure("stream-30d", 1, 0, True, spec,
                       extra=["--checkpoint-every", "500"], **tiny)
    expect(res["correct"], "stream: passes agree")
    expect(any(p["layers"].get("stream.checkpoint.bytes", 0) > 0
               for p in rep["passes"]),
           "stream: periodic checkpoints written")
    stream_digest = rep["passes"][0]["digest"]
    ref = subprocess.run([EXE, "reference", "--dump", dump],
                         capture_output=True, text=True, timeout=60)
    expect(ref.stdout.split()[-1] == stream_digest,
           "reference digest = stream digest")

    res, _ = measure("serve-30d", 1, 0, False, spec, **tiny)
    expect(res["correct"] and res["failed"] == 0,
           "serve: digest = stream digest, final ack covers every record")

    corrupt = ("0" if stream_digest[0] != "0" else "1") + stream_digest[1:]
    res, rep = measure("serve-30d", 1, 0, False, spec, expect=corrupt, **tiny)
    expect(not res["correct"] and any(
        c["name"] == "serve digest = stream digest" and not c["ok"]
        for c in rep["checks"]), "serve: a corrupted digest is rejected")

    t0 = time.monotonic()
    res, rep = measure("serve-30d", 1, 0, False, spec,
                       extra=["--deadline", "1", "--frame-records", "8",
                              "--stall", "0.02"], **tiny)
    errors = [e for p in rep["passes"] for e in p["errors"]]
    expect(res["failed"] > 0 and any("watchdog" in e for e in errors)
           and time.monotonic() - t0 < 60,
           "serve: the watchdog stops an overdue pass and counts its "
           "unacknowledged records as failed")

    ledger = load_ledger()
    key = "stream:tiny:1"
    ledger[key] = corrupt
    with open(LEDGER, "w") as f:
        json.dump(ledger, f)
    res, _ = measure("stream-30d", 1, 0, False, spec, **tiny)
    expect(not res["correct"], "a repeat run that disagrees is rejected")
    ledger[key] = stream_digest
    with open(LEDGER, "w") as f:
        json.dump(ledger, f)

    print(f"selftest: {'passed' if not failures else 'FAILED'}")
    return 0 if not failures else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(ORDER))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    check_layout()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build()
    os.makedirs(OUT, exist_ok=True)
    if a.selftest:
        sys.exit(selftest(spec))
    if a.workload is None:
        die("--workload is required")
    try:
        result, _ = measure(a.workload, a.seed, a.seconds, bool(a.trace), spec)
    except subprocess.TimeoutExpired as e:
        die(f"{e.cmd[1]} ran out of time", 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
