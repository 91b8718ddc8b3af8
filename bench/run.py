"""Benchmark of the ldp-osc command line: four cold-process workloads.

    python3 bench/run.py --workload mc --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                 # every workload, untraced

Run from anywhere inside a checkout: the package is imported from the
checkout's `src/`, never from an installed copy, and the run stops with a
nonzero exit code if that source is missing.

Untraced run (`--trace 0`): each iteration runs the workload's commands
through `ldp_osc.cli.main` in a fresh interpreter, then times one more fresh
interpreter that only imports `ldp_osc.cli`. Iterations repeat until the
next one would overrun `--seconds`. Reported, as medians over the run:

    setup_s      spawn -> `import ldp_osc.cli` done (every interpreter)
    wall_s       spawn -> last command returned, set-up included
    peak_rss_mb  the worker's peak resident set size (VmHWM)

Every output is checked against an independent reference (see workloads.py)
and must be byte-identical to the first output of the same command in the
run; `failed_ratio` = failed checks / checks is printed with the metrics and
carried by `attempted` and `failed` in the result line. Checks marked as a
known defect in expected_verdicts.json count as failed but leave `correct`
true; any other failed check makes it false.

Traced run (`--trace 1`): one `python -X importtime` probe, then untraced and
traced workers alternate; on `mc` one traced worker runs with
LDP_OSC_THREADS=1 as the single-thread baseline. The per-layer metrics of
layers.py are medians over the traced workers, and the spans are written to
`.bench_build/ldp_osc_bench/`.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics with their units.
"""

from __future__ import annotations

import argparse
import glob
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_build", "ldp_osc_bench")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
import layers  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, commands  # noqa: E402

# a run must exit within 180 s; leave room for reporting
DEADLINE_S = 165.0
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    pass


def nproc():
    return len(os.sched_getaffinity(0))


def _env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["LDP_OSC_THREADS"] = str(threads)
    # sympy's simplification order follows set iteration; pin it per run
    env["PYTHONHASHSEED"] = "0"
    # compile the package from source in every interpreter and write nothing
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(argvs, deadline, trace=False, threads=None):
    """Run one worker; return its report with setup_s, wall_s, peak_rss_mb."""
    spec = json.dumps({"commands": argvs, "trace": trace, "src": SRC})
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, WORKER, spec], cwd=ROOT,
                            env=_env(threads or nproc()),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker overran the run deadline") from None
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        raise BenchError(f"worker exited with {proc.returncode}: "
                         + " | ".join(tail))
    report = json.loads(out)
    report["setup_s"] = report["t_setup"] - t_spawn
    report["wall_s"] = report["t_done"] - t_spawn
    report["peak_rss_mb"] = report["peak_rss_kib"] / 1024.0
    return report


class Checker:
    """Checks every output and that repeats of a command print the same."""

    def __init__(self, cmds):
        self.cmds = cmds
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures = []
        self.worst_gap = None

    def check(self, report, label):
        for i, ((argv, check, known_defect), result) in enumerate(
                zip(self.cmds, report["results"])):
            try:
                ok, detail, gap = check(result["code"], result["stdout"])
            except (ValueError, KeyError, TypeError) as exc:
                ok, detail, gap = False, f"unreadable output: {exc!r}", None
            first = self.first.setdefault(i, result["stdout"])
            if ok and result["stdout"] != first:
                ok, detail = False, "stdout differs from the first run"
            if gap is not None:
                self.worst_gap = max(gap, self.worst_gap or 0.0)
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.unexpected += not known_defect
                if len(self.failures) < 50:
                    self.failures.append({
                        "run": label, "argv": argv, "detail": detail,
                        "known_defect": known_defect,
                        "stderr": result["stderr"][-500:]})


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _summary(values):
    q1, q3 = _quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def _repeat(cycle, end):
    """Call cycle() once, then again while one more is likely to end by end."""
    longest = 0.0
    while True:
        began = time.monotonic()
        cycle()
        now = time.monotonic()
        longest = max(longest, now - began)
        if now + longest > end:
            return


def measure(workload, seed, seconds):
    start = time.monotonic()
    deadline = start + DEADLINE_S
    end = min(start + seconds, deadline)
    cmds = commands(workload, seed)
    argvs = [argv for argv, _, _ in cmds]
    checker = Checker(cmds)
    spawn([], deadline)  # warms the page cache; not measured
    setups, walls, rss = [], [], []

    def cycle():
        report = spawn(argvs, deadline)
        checker.check(report, f"iteration {len(walls) + 1}")
        walls.append(report["wall_s"])
        rss.append(report["peak_rss_mb"])
        setups.append(report["setup_s"])
        setups.append(spawn([], deadline)["setup_s"])

    _repeat(cycle, end)
    # spend what is left of the run on more set-up samples
    while time.monotonic() + 1.5 * max(setups) < end:
        setups.append(spawn([], deadline)["setup_s"])
    stats = {"setup_s": _summary(setups), "wall_s": _summary(walls),
             "peak_rss_mb": _summary(rss)}
    metrics = {name: stats[name]["median"] for name in END_TO_END}
    return metrics, stats, checker, {}


def measure_traced(workload, seed, seconds):
    start = time.monotonic()
    deadline = start + DEADLINE_S
    cmds = commands(workload, seed)
    argvs = [argv for argv, _, _ in cmds]
    checker = Checker(cmds)
    probe = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import ldp_osc.cli"],
        cwd=ROOT, env=_env(nproc()), capture_output=True, text=True,
        timeout=60)
    if probe.returncode != 0:
        raise BenchError("import probe failed: " + probe.stderr[-300:])
    imports = layers.import_metrics(probe.stderr)

    single = None
    if workload == "mc":
        single = spawn(argvs, deadline, trace=True, threads=1)
        checker.check(single, "traced, LDP_OSC_THREADS=1")
    plain, traced = [], []

    def cycle():
        plain.append(spawn(argvs, deadline))
        checker.check(plain[-1], f"untraced {len(plain)}")
        traced.append(spawn(argvs, deadline, trace=True))
        checker.check(traced[-1], f"traced {len(traced)}")

    _repeat(cycle, min(start + seconds, deadline))

    gone = sorted(set().union(*(r["absent"] for r in traced)))
    metrics, absent, split = _layer_metrics(traced, plain, single, checker,
                                            gone)
    metrics.update(imports)
    stats = {"wall_s_untraced": _summary([r["wall_s"] for r in plain]),
             "wall_s_traced": _summary([r["wall_s"] for r in traced])}
    runs = [{"label": f"traced {i + 1}", "threads": nproc(),
             "spans": r["spans"]} for i, r in enumerate(traced)]
    if single is not None:
        runs.append({"label": "traced, LDP_OSC_THREADS=1", "threads": 1,
                     "spans": single["spans"]})
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "runs": runs}, handle)
    extra = {"absent_metrics": sorted(absent),
             "absent_names": gone,
             "sim_self_s_by_thread": split,
             "spans_file": os.path.relpath(path, ROOT)}
    return {name: metrics[name] for name in layers.UNITS}, stats, checker, extra


def _layer_metrics(traced, plain, single, checker, gone):
    """Medians over the traced workers of their per-layer metrics, plus the
    metrics that compare workers: thread speed-up and tracing overhead.
    gone lists the wrapped names the program no longer has."""
    per_worker, absent, split = [], set(), []
    for report in traced:
        own = tracer.self_times(report["spans"])
        values, missing = layers.span_metrics(report["spans"], own)
        per_worker.append(values)
        absent.update(missing)
        split.append(layers.self_time_by_thread(report["spans"], own,
                                                "sim._run_block"))
    metrics = {name: statistics.median(w[name] for w in per_worker)
               for name in per_worker[0]}
    metrics["sim.threads"] = nproc()
    metrics["sim.parallel_speedup"] = 0.0
    if single is not None and metrics["sim.simulate_paths_s"] > 0:
        one, _ = layers.span_metrics(single["spans"],
                                     tracer.self_times(single["spans"]))
        metrics["sim.parallel_speedup"] = \
            one["sim.simulate_paths_s"] / metrics["sim.simulate_paths_s"]
    else:
        absent.add("sim.parallel_speedup")
    metrics["laws.max_rel_err"] = checker.worst_gap or 0.0
    if checker.worst_gap is None:
        absent.add("laws.max_rel_err")
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain) - 1.0)
    metrics["trace.absent_names"] = len(gone)
    absent.update(name for name in metrics
                  if any(name.startswith(g) for g in gone))
    return metrics, absent, split


def _read(path):
    try:
        with open(path, encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        return None


def _git_commit():
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head and head.startswith("ref: "):
        ref = head[5:]
        commit = _read(os.path.join(ROOT, ".git", ref))
        if commit is None:
            packed = _read(os.path.join(ROOT, ".git", "packed-refs")) or ""
            commit = next((line.split()[0] for line in packed.splitlines()
                           if line.endswith(" " + ref)), None)
        return commit or "unknown"
    return head or "unknown (not a git checkout)"


def machine_record(seed):
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level"))
        kind = _read(os.path.join(index, "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(os.path.join(index, "size"))
    mem = None
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemTotal:"):
            mem = f"{int(line.split()[1]) // 1024} MiB"
    versions = {}
    for name in ("numpy", "scipy", "sympy"):
        try:
            versions[name] = importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            versions[name] = "missing"
    return {"nproc": nproc(), "cpu": platform.processor() or platform.machine(),
            "caches": caches, "memory": mem,
            "python": platform.python_version(), **versions,
            "LDP_OSC_THREADS": nproc(), "PYTHONHASHSEED": 0,
            "PYTHONDONTWRITEBYTECODE": 1,
            "commit": _git_commit(), "seed": seed}


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _cpu_ticks():
    """(steal, total) ticks of all CPUs from /proc/stat, or None."""
    fields = (_read("/proc/stat") or "").split("\n")[0].split()
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    ticks = [int(f) for f in fields[1:9]]
    return ticks[7], sum(ticks)


def run_one(workload, seed, seconds, trace):
    measure_fn = measure_traced if trace else measure
    before = _cpu_ticks()
    metrics, stats, checker, extra = measure_fn(workload, seed, seconds)
    after = _cpu_ticks()
    machine = machine_record(seed)
    if before and after and after[1] > before[1]:
        # share of CPU time the hypervisor gave to other guests
        machine["cpu_steal_share"] = \
            (after[0] - before[0]) / (after[1] - before[1])
    units = layers.UNITS if trace else END_TO_END
    ratio = checker.failed / checker.attempted
    known = checker.failed - checker.unexpected
    print(f"== {workload} (seed {seed}, {'traced' if trace else 'untraced'})")
    if trace:
        for name, value in metrics.items():
            note = "  (absent)" if name in extra["absent_metrics"] else ""
            print(f"  {name:38s} {_fmt(value):>14s} {units[name]}{note}")
        if extra["absent_names"]:
            print("  wrapped names absent from the program: "
                  + ", ".join(extra["absent_names"]))
        if any(extra["sim_self_s_by_thread"]):
            print("  sim self time per thread (s): "
                  f"{extra['sim_self_s_by_thread']}")
    else:
        print(f"  {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s}"
              f" {'n':>3s}  unit")
        for name, unit in units.items():
            s = stats[name]
            print(f"  {name:12s} {s['median']:10.4f} {s['q1']:10.4f} "
                  f"{s['q3']:10.4f} {s['n']:3d}  {unit}")
    print(f"  {'failed_ratio':12s} {ratio:10.4f}  ratio "
          f"({checker.failed}/{checker.attempted} checks failed, "
          f"{known} of them known defects)")
    for failure in checker.failures[:5]:
        tag = "known defect" if failure["known_defect"] else "FAILED"
        print(f"  {tag}: {' '.join(failure['argv'])}: {failure['detail']}")
    result = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": machine,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()},
              "stats": stats, "checks": {
                  "attempted": checker.attempted, "failed": checker.failed,
                  "unexpected": checker.unexpected,
                  "failures": checker.failures}, **extra}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(f"  machine: {json.dumps(result['machine'])}")
    print(f"  full result: {os.path.relpath(path, ROOT)}")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ldp_osc", "cli.py")):
        print(f"error: no ldp_osc sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_one(name, args.seed, max(1, args.seconds),
                           bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": value for r in results
                   for name, value in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["checks"]["unexpected"] == 0 for r in results),
        "attempted": sum(r["checks"]["attempted"] for r in results),
        "failed": sum(r["checks"]["failed"] for r in results),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
