#!/usr/bin/env python3
"""The KumQuat benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload {scan,aggregate,catalog} --seed N \
        --seconds S --trace {0,1}

Builds the kumquat CLI and the kqbench helper from the checkout's sources
(perfbench/CMakeLists.txt) into .bench_build/, generates the workload's
inputs from the seed, computes the reference outputs with GNU tools under
`LC_ALL=C sh`, then measures in whole passes (at least two, more while
another fits in --seconds):

  --trace 0  end-to-end: kumquat (default -k and -k 1) and GNU interleaved,
             one pipeline at a time from this one process (a closed loop
             with one client); every output is compared byte for byte with
             the GNU reference.
  --trace 1  per-layer: `kqbench trace`, an in-process replay that times
             calls into each module's public functions (see README.md).

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}; progress and a per-pipeline summary go to stderr and the full
record to .bench_build/results/<workload>-trace<0|1>.json.
"""

import argparse
import hashlib
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BENCH, "perfbench")
WORK = os.path.join(BENCH, "work")
TMP = os.path.join(BENCH, "tmp")
RESULTS = os.path.join(BENCH, "results")
KQBENCH = os.path.join(BUILD, "kqbench")
KUMQUAT = os.path.join(BUILD, "kumquat", "kumquat")

WORKLOADS = ("scan", "aggregate", "catalog")
SETUPS = 3  # set-ups per run; setup_s is their median
# Whole measurement passes per run: at least this many, then more while
# another still fits in --seconds. Each pass puts every pipeline through
# once per mode, so every pipeline weighs the same in every metric.
MIN_PASSES = 2
MIB = 1024.0 * 1024.0

END_TO_END = [
    ("goodput_mbps", "MiB/s"),
    ("goodput_k1_mbps", "MiB/s"),
    ("speedup_vs_gnu", "ratio"),
    ("pipeline_p50_s", "s"),
    ("pipeline_p90_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_ratio", "ratio"),
    ("setup_s", "s"),
]

KERNELS = ("wc_l", "grep", "grep_v", "wc_w", "tr", "cut_f2_4", "sed", "uniq",
           "uniq_c", "sort", "cut_f2", "sort_rn", "head")
LAYERS = ("bench", "stream", "synth", "compile", "exec", "unixcmd", "combine",
          "spill")
# Units of "count" mark the counts that repeat exactly for a given seed.
PER_LAYER = (
    [("synth.p50_ms", "ms"), ("synth.max_ms", "ms"),
     ("synth.observations", "count"), ("synth.success_ratio", "ratio"),
     ("compile.plan_ms", "ms"), ("compile.lower_ms", "ms")]
    + [("kernel.%s.mbps" % k, "MiB/s") for k in KERNELS]
    + [("regex.search_mbps", "MiB/s"),
       ("combine.folds", "count"), ("combine.mbps", "MiB/s"),
       ("combine.undefined", "count"),
       ("io.read_mbps", "MiB/s"), ("stream.block_read_mbps", "MiB/s"),
       ("stream.channel_hop_us", "us"), ("stream.peak_inflight_mb", "MiB"),
       ("spill.write_mbps", "MiB/s"), ("spill.merge_mbps", "MiB/s"),
       ("spill.bytes", "count"),
       ("exec.split_mbps", "MiB/s"), ("exec.pool_task_us", "us"),
       ("exec.worker_busy_ratio", "ratio"), ("exec.blocked_ms", "ms")]
    + [("share.%s" % layer, "ratio") for layer in LAYERS]
    + [("trace.overhead_ratio", "ratio")])

# xargs options that take a separate value argument.
XARGS_VALUE_OPTS = {"-L", "-n", "-I", "-d", "-P", "-s", "-E", "-a"}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    env["LC_ALL"] = "C"
    env["TMPDIR"] = TMP  # GNU sort temp files and kumquat spill files
    return env


def run_child(argv, stdin_path=None, stdout_path=None, cwd=None):
    """Runs argv to completion; returns (seconds, exit code, peak RSS MiB)."""
    stdin = open(stdin_path, "rb") if stdin_path else subprocess.DEVNULL
    stdout = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    err_path = os.path.join(TMP, "stderr.txt")
    try:
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=stdin, stdout=stdout,
                                    stderr=err, cwd=cwd, env=child_env())
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if stdin_path:
            stdin.close()
        if stdout_path:
            stdout.close()
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def last_stderr():
    try:
        with open(os.path.join(TMP, "stderr.txt"), "rb") as f:
            lines = f.read().decode(errors="replace").strip().splitlines()
        return lines[-1] if lines else ""
    except OSError:
        return ""


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ----------------------------------------------------------------- build --

def build():
    """Builds kumquat and kqbench; exits 1 (printing no result) on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log("run.py: no kumquat sources next to perfbench/; nothing to build")
        sys.exit(1)
    os.makedirs(BENCH, exist_ok=True)
    out = open(os.path.join(BENCH, "build.log"), "ab")
    try:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            rc = subprocess.call(["cmake", "-S", HERE, "-B", BUILD,
                                  "-DCMAKE_BUILD_TYPE=Release"] + gen,
                                 stdout=out, stderr=out)
            if rc != 0:
                log("run.py: cmake configure failed "
                    "(see .bench_build/build.log)")
                sys.exit(1)
        jobs = str(min(os.cpu_count() or 1, 4))
        rc = subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                             stdout=out, stderr=out)
    finally:
        out.close()
    if rc != 0 or not os.path.isfile(KQBENCH) or not os.path.isfile(KUMQUAT):
        log("run.py: build failed (see .bench_build/build.log)")
        sys.exit(1)


# ----------------------------------------------------------------- setup --

def read_manifest(wdir):
    entries = []
    with open(os.path.join(wdir, "manifest.tsv"), encoding="utf-8") as f:
        for line in f:
            size, path, name, pipeline = line.rstrip("\n").split("\t", 3)
            entries.append({"bytes": int(size), "input": path, "name": name,
                            "pipeline": pipeline})
    return entries


def stage_programs(pipeline):
    """The programs a pipeline runs, including the command xargs runs."""
    lexer = shlex.shlex(pipeline, posix=True, punctuation_chars="|")
    lexer.whitespace_split = True
    stages, current = [], []
    for token in lexer:
        if token == "|":
            stages.append(current)
            current = []
        else:
            current.append(token)
    stages.append(current)
    programs = []
    for argv in stages:
        if not argv:
            continue
        programs.append(argv[0])
        if argv[0] == "xargs":
            args = iter(argv[1:])
            for arg in args:
                if arg in XARGS_VALUE_OPTS:
                    next(args, None)
                elif not arg.startswith("-"):
                    programs.append(arg)
                    break
    return programs


def missing_tool(pipeline, which=shutil.which):
    """Why GNU cannot verify this pipeline here (a missing tool), or None."""
    for program in stage_programs(pipeline):
        if which(program) is None:
            return "host tool '%s' not found" % program
    return None


def gnu_argv(pipeline):
    return ["sh", "-c", pipeline]


def gnu_cwd(wdir):
    fs_dir = os.path.join(wdir, "fs")
    return fs_dir if os.path.isdir(fs_dir) else wdir


def setup_once(workload, seed, scale):
    """Generates inputs and GNU reference outputs. Returns the set-up record."""
    start = time.perf_counter()
    wdir = os.path.join(WORK, workload)
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(os.path.join(wdir, "ref"))
    out = subprocess.run([KQBENCH, "gen", workload, str(seed), repr(scale),
                          wdir], stdout=subprocess.PIPE, env=child_env(),
                         check=True)
    props = json.loads(out.stdout)
    entries = read_manifest(wdir)
    unverified = {}
    for i, e in enumerate(entries):
        reason = missing_tool(e["pipeline"])
        ref = os.path.join(wdir, "ref", str(i))
        if reason is None:
            _, rc, _ = run_child(gnu_argv(e["pipeline"]),
                                 os.path.join(wdir, e["input"]), ref,
                                 cwd=gnu_cwd(wdir))
            if rc in (126, 127):  # the shell could not run a stage
                reason = "GNU reference exited %d: %s" % (rc, last_stderr())
        if reason is not None:
            unverified[i] = reason
            if os.path.exists(ref):
                os.remove(ref)
    seconds = time.perf_counter() - start
    hashes = sorted(digest(os.path.join(root, f))
                    for root, _, files in os.walk(wdir) for f in files)
    return {"seconds": seconds, "wdir": wdir, "props": props,
            "entries": entries, "unverified": unverified,
            "digest": hashlib.sha256("".join(hashes).encode()).hexdigest()}


def setup(workload, seed, scale):
    runs = [setup_once(workload, seed, scale) for _ in range(SETUPS)]
    final = runs[-1]
    final["setup_s"] = statistics.median(r["seconds"] for r in runs)
    # The same seed must regenerate byte-identical inputs and references.
    final["deterministic"] = len({r["digest"] for r in runs}) == 1
    return final


# --------------------------------------------------------------- metrics --

def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def latency_quantiles(samples):
    """p50/p90 of (seconds, succeeded) samples. A failed run ranks slower
    than every successful one: it reads as the slowest success plus its own
    time."""
    ok = [s for s, good in samples if good]
    slowest = max(ok) if ok else 0.0
    ranked = ok + [slowest + s for s, good in samples if not good]
    return quantile(ranked, 0.5), quantile(ranked, 0.9), len(ranked)


def goodput(pipelines, mode):
    """Input MiB of runs that matched GNU over the wall seconds of all runs,
    each verified pipeline weighted once (its median time over passes)."""
    matched = seconds = 0.0
    for p in pipelines:
        runs = p[mode]
        if p["unverified"] or not runs:
            continue
        share = sum(r["match"] for r in runs) / len(runs)
        matched += p["bytes"] * share
        seconds += statistics.median(r["seconds"] for r in runs)
    return matched / MIB / seconds if seconds > 0 else 0.0


def score(pipelines, setup_rec, peak_rss_mb):
    """End-to-end metrics plus (correct, attempted, failed)."""
    gnu_bytes = gnu_s = 0.0
    for p in pipelines:
        if not p["unverified"] and p["gnu"]:
            gnu_bytes += p["bytes"]
            gnu_s += statistics.median(r["seconds"] for r in p["gnu"])
    attempted = failed = 0
    correct = setup_rec["deterministic"]
    samples = []
    for p in pipelines:
        for r in p["kq"]:
            samples.append((r["seconds"], r["ok"] and r["match"] is not False))
        if p["unverified"]:
            continue
        for mode in ("kq", "kq1"):
            for r in p[mode]:
                attempted += 1
                if not (r["ok"] and r["match"]):
                    failed += 1
                if r["ok"] and not r["match"]:
                    correct = False  # exit 0 with output that differs
    p50, p90, n = latency_quantiles(samples)
    good = goodput(pipelines, "kq")
    gnu = gnu_bytes / MIB / gnu_s if gnu_s > 0 else 0.0
    metrics = {
        "goodput_mbps": good,
        "goodput_k1_mbps": goodput(pipelines, "kq1"),
        "speedup_vs_gnu": good / gnu if gnu > 0 else 0.0,
        "pipeline_p50_s": p50,
        "pipeline_p90_s": p90,
        "peak_rss_mb": peak_rss_mb,
        "pass_ratio": (attempted - failed) / attempted if attempted else 0.0,
        "setup_s": setup_rec["setup_s"],
    }
    return metrics, correct, attempted, failed, n


# ------------------------------------------------------------ end to end --

def new_pipelines(setup_rec):
    return [{"name": e["name"], "pipeline": e["pipeline"], "bytes": e["bytes"],
             "unverified": setup_rec["unverified"].get(i), "kq": [],
             "kq1": [], "gnu": []}
            for i, e in enumerate(setup_rec["entries"])]


def measure_cli(setup_rec, seconds):
    """scan/aggregate: kumquat at the default -k, at -k 1, and GNU, per
    pipeline in turn, in whole passes (see MIN_PASSES)."""
    wdir = setup_rec["wdir"]
    out_path = os.path.join(wdir, "out.txt")
    pipelines = new_pipelines(setup_rec)
    refs = {}
    for i in range(len(pipelines)):
        ref = os.path.join(wdir, "ref", str(i))
        refs[i] = digest(ref) if os.path.exists(ref) else None
    deadline = time.perf_counter() + seconds
    passes = 0
    last = 0.0
    while passes < MIN_PASSES or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        for i, (e, p) in enumerate(zip(setup_rec["entries"], pipelines)):
            inp = os.path.join(wdir, e["input"])
            for mode, argv in (("kq", [KUMQUAT, "run", e["pipeline"]]),
                               ("kq1", [KUMQUAT, "run", "-k", "1",
                                        e["pipeline"]]),
                               ("gnu", gnu_argv(e["pipeline"]))):
                s, rc, rss = run_child(argv, inp, out_path, cwd=wdir)
                rec = {"seconds": s, "ok": rc == 0, "rss_mb": rss}
                if refs[i] is not None:
                    rec["match"] = rc == 0 and digest(out_path) == refs[i]
                else:
                    rec["match"] = None
                if rc != 0:
                    rec["error"] = last_stderr()
                p[mode].append(rec)
        passes += 1
        last = time.perf_counter() - start
    rss = [statistics.median(r["rss_mb"] for r in p["kq"]) for p in pipelines]
    return pipelines, passes, max(rss)


def measure_catalog(setup_rec, seconds):
    """catalog: `kqbench pass` (in-process compile + kq::Executor), then the
    GNU pipelines, in whole passes (see MIN_PASSES)."""
    wdir = setup_rec["wdir"]
    out_path = os.path.join(wdir, "out.txt")
    pass_out = os.path.join(wdir, "pass.jsonl")
    pipelines = new_pipelines(setup_rec)
    rss = []
    deadline = time.perf_counter() + seconds
    passes = 0
    last = 0.0
    while passes < MIN_PASSES or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        _, rc, peak = run_child([KQBENCH, "pass", wdir], None, pass_out,
                                cwd=wdir)
        if rc != 0:
            raise RuntimeError("kqbench pass failed: " + last_stderr())
        rss.append(peak)
        with open(pass_out, encoding="utf-8") as f:
            for line in f:
                r = json.loads(line)
                p = pipelines[r["i"]]
                compile_s = r["compile_s"]
                p["kq"].append({"seconds": compile_s + r["run_s"],
                                "ok": r["ok"], "match": r.get("match")})
                p["kq1"].append({"seconds": compile_s + r["run_k1_s"],
                                 "ok": r["ok_k1"],
                                 "match": r.get("match_k1")})
        for e, p in zip(setup_rec["entries"], pipelines):
            if p["unverified"]:
                continue
            s, rc, _ = run_child(gnu_argv(e["pipeline"]),
                                 os.path.join(wdir, e["input"]), out_path,
                                 cwd=gnu_cwd(wdir))
            p["gnu"].append({"seconds": s, "ok": True, "match": True})
        passes += 1
        last = time.perf_counter() - start
    return pipelines, passes, statistics.median(rss)


# ----------------------------------------------------------------- trace --

def measure_trace(setup_rec, seconds, workload):
    spans = os.path.join(RESULTS, "%s-spans.json" % workload)
    out = subprocess.run([KQBENCH, "trace", setup_rec["wdir"], repr(seconds),
                          spans], stdout=subprocess.PIPE, env=child_env(),
                         cwd=setup_rec["wdir"], check=True)
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


# ------------------------------------------------------------------ main --

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Input-size multiplier; selftest.py shrinks the inputs with it.
    ap.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    build()
    for d in (WORK, TMP, RESULTS):
        os.makedirs(d, exist_ok=True)
    setup_rec = setup(args.workload, args.seed, args.scale)
    unverified = {setup_rec["entries"][i]["name"]: reason
                  for i, reason in setup_rec["unverified"].items()}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "input": setup_rec["props"], "unverified": unverified}

    if args.trace:
        traced = measure_trace(setup_rec, args.seconds, args.workload)
        metrics = {name: traced["metrics"][name] for name, _ in PER_LAYER}
        units = dict(PER_LAYER)
        correct = traced["correct"] and setup_rec["deterministic"]
        attempted, failed = traced["attempted"], traced["failed"]
        record.update(failures=traced["failures"], spans=traced["spans"],
                      replays=traced["replays"],
                      self_seconds=traced["self_seconds"],
                      exact_counts=[n for n, u in PER_LAYER if u == "count"])
    else:
        if args.workload == "catalog":
            pipelines, passes, rss = measure_catalog(setup_rec, args.seconds)
        else:
            pipelines, passes, rss = measure_cli(setup_rec, args.seconds)
        metrics, correct, attempted, failed, n = score(pipelines, setup_rec,
                                                       rss)
        units = dict(END_TO_END)
        record.update(passes=passes, latency_samples=n, pipelines=pipelines)
        for p in pipelines:
            errors = sorted({r.get("error", "") for m in ("kq", "kq1")
                             for r in p[m] if not r["ok"]})
            bad = sum(1 for m in ("kq", "kq1") for r in p[m]
                      if not (r["ok"] and r["match"]))
            if bad and not p["unverified"]:
                log("  %-40s %d failed run(s) %s" % (p["name"][:40], bad,
                                                     errors))
    for name, reason in unverified.items():
        log("  unverified: %s (%s)" % (name, reason))

    result = {"correct": bool(correct), "attempted": int(attempted),
              "failed": int(failed),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record["result"] = result
    path = os.path.join(RESULTS, "%s-trace%d.json" % (args.workload,
                                                      args.trace))
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
