#!/usr/bin/env python3
"""Repo benchmark: simulator host cost per request, task and DSE candidate.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench.exe from source with
dune, then:

  --trace 0  runs the workload's untraced iteration in fresh processes for
             S seconds (at least five), checks every output, and reports
             the medians of the end-to-end metrics in BENCHMARK.json;
  --trace 1  runs the traced iteration once and reports every per-layer
             metric in BENCHMARK.json (0 = layer not exercised by this
             workload), writing the harness spans as a Chrome trace to
             .perfbench/<workload>.trace.json.

Human-readable lines go first; the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md
for the workloads, the metrics and what each is predicted to move.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
REFERENCE_EXE = os.path.join(ROOT, "_build", "default", "perfbench", "reference.exe")
# CPU time of reference.exe on the host the bounds were set on (2-core
# x86-64 VM, OCaml 5.1.1): host times are reported at this speed.
REFERENCE_S = 0.25
SCRATCH = os.path.join(ROOT, ".perfbench")
MIN_ITERATIONS = 5
# The workload's own name for units_per_s, by unit of work.
THROUGHPUT = {"req": ("sim_req_per_s", "req/s"), "task": ("tasks_per_s", "tasks/s"),
              "candidate": ("dse_candidates_per_s", "cand/s")}
MAX_MEASURE_S = 150.0  # stop adding iterations past this, whatever --seconds says
ITERATION_TIMEOUT_S = 170.0
SLICE_S = 2.0  # a running iteration is paused this often to sample the reference


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    dune = shutil.which("dune")
    cmd = [dune] if dune else ([shutil.which("opam"), "exec", "--", "dune"] if shutil.which("opam") else None)
    if cmd is None:
        fail("dune not found on PATH")
    p = subprocess.run(cmd + ["build", "--root", ROOT, "./perfbench/perfbench.exe",
                              "./perfbench/reference.exe"],
                       cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0 or not (os.path.exists(EXE) and os.path.exists(REFERENCE_EXE)):
        sys.stderr.write(p.stdout)
        fail("build failed")


def source_revision():
    """The git commit when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if p.returncode == 0:
            return p.stdout.strip()
    h = hashlib.md5()
    for top in ("lib", "bin", "perfbench", "dune-project"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for path in paths:
            if path.endswith((".ml", ".mli", "dune", "dune-project", ".py")):
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def run_exe(workload, seed, mode, commit, sample=None):
    """Run one iteration and return its JSON record.  With [sample], pause
    the process every SLICE_S seconds, call sample() while it is stopped,
    and resume it."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--dir", SCRATCH, "--commit", commit]
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    deadline = time.monotonic() + ITERATION_TIMEOUT_S
    try:
        while True:
            try:
                out, err = p.communicate(timeout=SLICE_S if sample else ITERATION_TIMEOUT_S)
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() > deadline:
                    fail("%s %s iteration timed out" % (workload, mode))
                if sample:
                    p.send_signal(signal.SIGSTOP)
                    try:
                        sample()
                    finally:
                        p.send_signal(signal.SIGCONT)
    finally:
        if p.poll() is None:
            p.kill()
            p.communicate()
    lines = out.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(err)
        fail("%s %s iteration exited with %d" % (workload, mode, p.returncode))
    return json.loads(lines[-1])


def reference_s():
    p = subprocess.run([REFERENCE_EXE], stdout=subprocess.PIPE, text=True,
                       timeout=ITERATION_TIMEOUT_S)
    if p.returncode != 0:
        fail("reference.exe exited with %d" % p.returncode)
    return float(p.stdout.strip())


def pin_to_one_cpu():
    """Run every measured process and every reference on one CPU: on a
    shared host the CPUs of one container can run at different speeds, and
    the reference only tracks the speed of the CPU it runs on.  Returns the
    number of CPUs available before pinning."""
    try:
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        return len(cpus)
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def host_tag(host, nproc):
    """The iteration's host tag, with the CPU count seen before pinning (the
    pinned iteration itself sees one)."""
    return json.dumps(dict(host, nproc=nproc, pinned_cpus=1), sort_keys=True)


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(contract, args, commit):
    start = time.monotonic()
    iterations = []
    ref_before = reference_s()
    while True:
        samples = []
        it = run_exe(args.workload, args.seed, "measure", commit,
                     sample=lambda: samples.append((time.time(), reference_s())))
        ref_after = reference_s()
        # host-speed scale: the references either side of the iteration and
        # those sampled while its measured phase ran
        during = [r for t, r in samples if it["start"] <= t <= it["start"] + it["wall_s"]]
        it["scale"] = REFERENCE_S / statistics.mean([ref_before, ref_after] + during)
        ref_before = ref_after
        iterations.append(it)
        print("iteration %d: %d %s in %.6f s host (x%.4f speed scale, %d references "
              "during), set-up %.3e s, %.0f words, top heap %.3f MB, correct=%s"
              % (len(iterations), it["units"], it["unit"], it["host_s"], it["scale"],
                 len(during), it["setup_s"], it["words"], it["top_heap_mb"], it["correct"]))
        elapsed = time.monotonic() - start
        if not it["correct"] or elapsed >= MAX_MEASURE_S:
            break
        if len(iterations) >= MIN_ITERATIONS and elapsed >= args.seconds:
            break
    med = statistics.median
    values = {
        "units_per_s": med(it["units"] / (it["host_s"] * it["scale"]) for it in iterations),
        "alloc_words_per_unit": med(it["words"] / it["units"] for it in iterations),
        "peak_heap_mb": med(it["top_heap_mb"] for it in iterations),
        "setup_s": med(it["setup_s"] * it["scale"] for it in iterations),
    }
    metrics = {m["name"]: metric(values[m["name"]], m["unit"]) for m in contract["end_to_end"]}
    digests = {it["digest"] for it in iterations}
    correct = all(it["correct"] for it in iterations) and len(digests) == 1
    unit = iterations[0]["unit"]
    print("workload %s, seed %d: %d iterations of %d %s each; host times at reference "
          "speed (raw median %.1f unit/s)"
          % (args.workload, args.seed, len(iterations), iterations[0]["units"], unit,
             med(it["units"] / it["host_s"] for it in iterations)))
    for name, m in metrics.items():
        print("  %-22s %16.6f %s" % (name, m["value"], m["unit"]))
    name, unit_label = THROUGHPUT[unit]
    print("  %-22s %16.6f %s" % (name, values["units_per_s"], unit_label))
    for name, fig in iterations[0]["host_times"].items():
        v = med(it["host_times"][name]["value"] * it["scale"] for it in iterations)
        print("  %-22s %16.6f %s" % (name, v, fig["unit"]))
    for name, fig in iterations[0]["sim"].items():
        v = med(it["sim"][name]["value"] for it in iterations)
        print("  %-22s %16.6f %s (simulated)" % (name, v, fig["unit"]))
    print("  output digest %s%s" % (",".join(sorted(digests)),
                                    "" if len(digests) == 1 else "  (NOT deterministic)"))
    print("  host %s" % host_tag(iterations[0]["host"], args.nproc))
    return {
        "correct": correct,
        "attempted": sum(int(it["attempted"]) for it in iterations),
        "failed": sum(int(it["failed"]) for it in iterations),
        "metrics": metrics,
    }


def trace(contract, args, commit):
    ref = reference_s()
    t = run_exe(args.workload, args.seed, "trace", commit)
    layers = dict(t["layers"])
    layers.update({k: v["value"] for k, v in t["figures"].items()})
    layers.update({
        "trace.untraced_us_per_unit": t["untraced_us_per_unit"],
        "trace.traced_us_per_unit": t["traced_us_per_unit"],
        "trace.overhead_us_per_unit": t["overhead_us_per_unit"],
        "replay.match": 1.0 if t["exact"] else 0.0,
    })
    metrics = {m["name"]: metric(float(layers.get(m["name"], 0.0)), m["unit"])
               for m in contract["per_layer"]}
    print("workload %s, seed %d: traced run over %d units%s"
          % (args.workload, args.seed, t["units"],
             "" if t["exact"] else "  (replay diverged: per-layer numbers are APPROXIMATE)"))
    for name in sorted(layers):
        if name in metrics:
            print("  %-40s %16.6f %s" % (name, metrics[name]["value"], metrics[name]["unit"]))
    print("  accounting: untraced %.3f us/unit = layer self times + remainder %.3f; "
          "tracing overhead %.3f us/unit"
          % (t["untraced_us_per_unit"], layers.get("trace.remainder_us_per_unit", 0.0),
             t["overhead_us_per_unit"]))
    print("  output digest %s" % t["digest"])
    print("  chrome trace %s" % os.path.relpath(
        os.path.join(SCRATCH, args.workload + ".trace.json"), ROOT))
    print("  host %s, reference %.6f s (unscaled host times)"
          % (host_tag(t["host"], args.nproc), ref))
    attempted = int(t["attempted"])
    return {"correct": bool(t["correct"]), "attempted": attempted,
            "failed": 0 if t["correct"] else attempted, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    contract = load_contract()
    if args.workload not in {w["name"] for w in contract["workloads"]}:
        fail("unknown workload %s" % args.workload)
    build()
    args.nproc = pin_to_one_cpu()
    os.makedirs(SCRATCH, exist_ok=True)
    commit = source_revision()
    result = (trace if args.trace else measure)(contract, args, commit)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
