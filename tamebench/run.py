"""The tamenorm benchmark: three seeded workloads, every metric by name and unit.

Run from the repository root:

    python3 tamebench/run.py --workload palette --seed 1 --seconds 45 --trace 0

``--trace 0`` runs the workload's round of ops untraced in this process and
reports the end-to-end metrics; ``--trace 1`` runs the same round twice in
fresh processes, untraced and then with every layer wrapped by `tracer`, and
reports the per-layer metrics plus ``trace.overhead_frac``.  Every op's output
is checked by the oracle in `workloads`.  Report lines start with ``#``; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

The load is a closed loop: one client, one op in flight, no threads; for
``cli-cold`` one child process at a time.  A round is fixed work; ``--seconds``
caps it, and a capped run says so in its report.

An op's latency is the CPU time it takes: this process's for the in-process
workloads, the child's user plus system time for ``cli-cold``.  The ops do no
I/O but reading the page-cached sources and writing one small certificate,
so on an idle host this is their wall time; on a shared one it leaves out the
time other tenants hold the core, which would otherwise make up the tail.
Wall-clock figures are printed in the ``# meta`` line.

Times are also host-normalised.  The host this was built on (a shared 2-vCPU
VM) switches between speed states up to a factor of two apart, several times
a second, and these show in CPU time too.  So the benchmark times a fixed
pure-Python reference that does not use tamenorm, after every op and while
each op runs (see `run_ops`), and scales each op's time by ``nominal /
reference time`` at that op (see `host_factors`).  A reported millisecond is
thus a CPU millisecond on a host where the reference takes exactly its
nominal time; the unscaled CPU figures are in ``# meta`` as ``raw``.
Set-up time is wall time, from spawn to ready, scaled in the same way by a
wall-timed fresh interpreter that imports a few stdlib modules, since process
start-up slows differently from interpreted code.  Per-layer self times
(wall time, from the tracer) are scaled by the traced pass's mean factor.

The benchmark writes only under ``.tamebench/`` in the checkout: certificate
files, the per-seed digest store that checks byte-identical certificates
across runs, and span dumps.
"""

import argparse
import bisect
import contextlib
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".tamebench")
sys.path.insert(0, SRC)

import workloads  # noqa: E402  (after the path set-up above)

SETUP_REPEATS = 9
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SETUP_IMPORTS = {
    "palette": ("tamenorm.lfactor",),
    "kernels": ("tamenorm.hecke", "tamenorm.lattice", "tamenorm.classfield"),
    "cli-cold": ("tamenorm.cli",),
}
CHILD_TIMEOUT_S = 150
LOOP_NOMINAL_S = 0.0002  # the loop reference's CPU time on the nominal host
SPAWN_NOMINAL_S = 0.060  # the spawn reference's wall time on the nominal host
SPAWN_REFERENCE = ["-c", "import argparse, csv, dataclasses, fractions, json, random"]
# CPU seconds between the sampler's reference timings: about two inside an
# 8 ms palette op, which halves the spread of its normalised time against
# timings only between ops.  CPU-time timers fire on the kernel's tick, so a
# shorter interval gives no more.
SAMPLE_EVERY_S = 0.004


# ---------------------------------------------------------------------------
# statistics

def tail_percentile(samples):
    """(p, value): the highest ladder percentile with >= 10 samples above it.

    Nearest-rank percentiles; with fewer than 20 samples no ladder step has
    10 beyond it and the median is reported.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 50.0, xs[max(1, math.ceil(n / 2)) - 1]


# ---------------------------------------------------------------------------
# host-speed reference

def reference_kernel():
    """Fixed pure-Python work in the mix tamenorm's kernels use: small-int
    tuples and dicts, Fraction row operations and big-int gcds; about 0.2 ms,
    short enough to be timed several times inside an 8 ms op."""
    acc = 0
    xs = range(1, 40)
    for i in range(6):
        t = tuple((x * i + 7) % 1009 for x in xs)
        d = {v: k for k, v in enumerate(t)}
        acc += math.gcd(sum(t) ** 3, 360 ** 2) + len(d) + sum(d.get(j, 0) for j in range(0, 1009, 23))
    rows = [[Fraction(i * j + 1, i + j + 1) for j in range(4)] for i in range(4)]
    for c in range(3):
        for r in range(c + 1, 4):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return acc + rows[3][3].denominator


def time_loop_reference():
    """(start time, CPU seconds) of one `reference_kernel` run."""
    t0 = time.perf_counter()
    c0 = time.thread_time()
    reference_kernel()
    return t0, time.thread_time() - c0


def time_spawn_reference():
    """Wall seconds of a fresh interpreter importing a few stdlib modules,
    spawn to exit.  It blocks in waitpid: `workloads.wait` polls, which
    would quantise a wall time."""
    t0 = time.perf_counter()
    if subprocess.Popen([sys.executable, *SPAWN_REFERENCE], cwd=ROOT).wait() != 0:
        raise RuntimeError("reference interpreter failed")
    return time.perf_counter() - t0


def host_factors(spans, refs, nominal):
    """nominal / the host's reference time during each (start, end) in
    `spans`; `refs` is a time-sorted list of (time, seconds).

    That time is the mean of the reference timings inside the op and the
    nearest one on either side of it.  The host's speed flickers from one
    millisecond to the next, and the timings right next to an op track its
    flicker (correlation 0.6 on the host this was built on); timings further
    away only add their own.  The sampler takes the ones inside evenly in CPU
    time, so their mean is the op's average speed.
    """
    times = [t for t, _ in refs]
    out = []
    for t0, t1 in spans:
        i = max(0, bisect.bisect_left(times, t0) - 1)
        j = bisect.bisect_right(times, t1) + 1
        out.append(nominal / statistics.fmean(r for _, r in refs[i:j]))
    return out


class Sampler:
    """Times the loop reference into `refs` every SAMPLE_EVERY_S of this
    process's CPU time, from a SIGPROF handler, so that an op running for
    seconds through several host speed states gets speed samples from inside
    it.  ``spent`` is the CPU time the samples took, to take off the op's.
    `take` also times the references between ops and while a ``cli-cold``
    child runs; a sample never nests inside another."""

    def __init__(self, refs):
        self.refs = refs
        self.spent = 0.0
        self.busy = False
        self.old = None

    def take(self):
        if self.busy:
            return
        self.busy = True
        try:
            t0, s = time_loop_reference()
            self.refs.append((t0, s))
            self.spent += s
        finally:
            self.busy = False

    def __enter__(self):
        self.old = signal.signal(signal.SIGPROF, lambda signum, frame: self.take())
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self.old)


# ---------------------------------------------------------------------------
# running ops

def setup(workload, seed, trace=False):
    """What a run does before its first op: import the layers it calls and
    generate its inputs."""
    for name in SETUP_IMPORTS[workload]:
        importlib.import_module(name)
    return workloads.make_ops(workload, seed, trace)


def measure_setup(workload, seed):
    """Median over fresh processes of spawn -> ready to start the first op,
    each host-normalised by the reference timings just before and after it;
    returns (normalised, raw) medians."""
    times = []
    refs = [time_spawn_reference()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--role", "setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or line.strip() != b"ready":
            raise RuntimeError("set-up process failed")
        times.append(t1 - t0)
        refs.append(time_spawn_reference())
    scaled = [t * SPAWN_NOMINAL_S / ((a + b) / 2) for t, a, b in zip(times, refs, refs[1:])]
    return statistics.median(scaled), statistics.median(times)


def run_ops(workload, ops, deadline=None, tracer=None, cli_trace_dir=None):
    """Run ops in order, one at a time, timing the loop reference after each
    op and while it runs; returns the records.  Each record's ``ms`` is the
    host-normalised latency, ``raw_ms`` the CPU time it is made from,
    ``wall_ms`` the wall-clock time.

    In-process ops are sampled from inside by `Sampler`, except in a traced
    pass, whose spans would count the samples' time.  A ``cli-cold`` op is
    sampled from this process while it waits for the child: the host's speed
    states are the same on both cores, so the reference timed on the idle
    one tracks the child's.
    """
    os.makedirs(WORK, exist_ok=True)
    out_path = os.path.join(WORK, f"cert-{os.getpid()}.json")
    records = []
    spans = []
    refs = []
    sampler = Sampler(refs)
    sampler.take()
    in_op = workload != "cli-cold" and tracer is None
    with sampler if in_op else contextlib.nullcontext():
        for i, op in enumerate(ops):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            c0 = time.thread_time()
            spent0 = sampler.spent
            cpu_s = None
            try:
                if workload == "palette":
                    problems, dg = workloads.run_palette(op)
                elif workload == "kernels":
                    problems, dg = workloads.run_kernel(op)
                else:
                    child = ()
                    if cli_trace_dir is not None:
                        child = (os.path.join(HERE, "cli_child.py"),
                                 os.path.join(cli_trace_dir, f"op{i}.json"))
                    problems, dg, cpu_s = workloads.run_cli(
                        op, ROOT, out_path, child_argv=child, timeout=CHILD_TIMEOUT_S,
                        idle=sampler.take)
            except Exception as e:  # an op that raises is a failed op, not a crash
                problems, dg = [f"raised {type(e).__name__}: {e}"], None
            if cpu_s is None:
                cpu_s = time.thread_time() - c0 - (sampler.spent - spent0)
            t1 = time.perf_counter()
            spans.append((t0, t1))
            records.append({"key": workloads.op_key(op),
                            "name": op[1] if op[0] == "cli" else op[0],
                            "raw_ms": cpu_s * 1000.0, "wall_ms": (t1 - t0) * 1000.0,
                            "problems": problems, "digest": dg})
            sampler.take()
    for r, f in zip(records, host_factors(spans, refs, LOOP_NOMINAL_S)):
        r["ms"] = r["raw_ms"] * f
    return records


def check_digests(workload, seed, records):
    """Byte-identical certificates: compare with every earlier run of this seed."""
    path = os.path.join(WORK, "digests", f"{workload}-{seed}.json")
    stored = {}
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh)
    for r in records:
        if r["digest"] is None:
            continue
        old = stored.setdefault(r["key"], r["digest"])
        if old != r["digest"]:
            r["problems"].append("certificate differs from an earlier run with the same seed")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as fh:
        json.dump(stored, fh, sort_keys=True)
    os.replace(path + ".tmp", path)


def tally(records):
    """(failed, contract violations): known probe violations are counted apart."""
    failed = violations = 0
    for r in records:
        if r["problems"]:
            if r["name"] in workloads.KNOWN_VIOLATIONS:
                violations += 1
            else:
                failed += 1
    return failed, violations


# ---------------------------------------------------------------------------
# the passes

def pass_main(role, workload, seed):
    """A child pass of a traced run: run the traced round, print one JSON line."""
    ops = setup(workload, seed, trace=True)
    tracer = None
    cli_dir = None
    if role == "traced":
        if workload == "cli-cold":
            cli_dir = os.path.join(WORK, f"trace-{os.getpid()}")
            os.makedirs(cli_dir, exist_ok=True)
        else:
            from tracer import Tracer
            tracer = Tracer().install()
    records = run_ops(workload, ops, tracer=tracer, cli_trace_dir=cli_dir)
    dumps = []
    if tracer is not None:
        tracer.uninstall()
        dumps.append(tracer.dump())
    if cli_dir is not None:
        for i in range(len(records)):
            path = os.path.join(cli_dir, f"op{i}.json")
            if os.path.exists(path):
                with open(path) as fh:
                    dumps.append(json.load(fh))
                os.remove(path)
        os.rmdir(cli_dir)
    if dumps:
        with open(os.path.join(WORK, f"spans-{workload}-{seed}.jsonl"), "w") as fh:
            for op_index, d in enumerate(dumps):
                for span in d.pop("spans"):
                    if cli_dir is not None:
                        span[2] = op_index
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps({"total": sum(r["ms"] for r in records) / 1000.0,
                      "raw_total": sum(r["raw_ms"] for r in records) / 1000.0,
                      "records": records, "dumps": dumps}))


def spawn_pass(role, workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--role", role,
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=4 * CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} pass exited {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def end_to_end(workload, seed, seconds):
    setup_s, raw_setup_s = measure_setup(workload, seed)
    ops = setup(workload, seed)
    records = run_ops(workload, ops, deadline=time.perf_counter() + seconds)
    check_digests(workload, seed, records)
    lat = [r["ms"] for r in records]
    raw = [r["raw_ms"] for r in records]
    wall = [r["wall_ms"] for r in records]
    p, tail = tail_percentile(lat)
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    failed, violations = tally(records)
    n = len(records)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / (sum(lat) / 1000.0), "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_tail_ms": (tail, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_frac": ((n - failed - violations) / n, "ratio"),
    }
    info = {"ops": n, "ops_in_round": len(ops), "capped": n < len(ops),
            "op_tail_percentile": p, "op_tail_samples_beyond": n - math.ceil(p / 100 * n),
            "error_frac": (failed + violations) / n,
            "raw": {"setup_s": raw_setup_s, "ops_per_s": n / (sum(raw) / 1000.0),
                    "op_p50_ms": statistics.median(raw), "op_tail_ms": tail_percentile(raw)[1]},
            "wall": {"ops_per_s": n / (sum(wall) / 1000.0), "op_p50_ms": statistics.median(wall),
                     "op_tail_ms": tail_percentile(wall)[1]}}
    return records, metrics, info


def traced(workload, seed):
    from tracer import layer_metrics

    plain = spawn_pass("untraced", workload, seed)
    wrapped = spawn_pass("traced", workload, seed)
    base = {r["key"]: r for r in plain["records"]}
    for r in wrapped["records"]:
        r["problems"] += [p for p in base[r["key"]]["problems"] if p not in r["problems"]]
        if base[r["key"]]["digest"] != r["digest"]:
            r["problems"].append("traced certificate differs from the untraced one")
    records = wrapped["records"]
    check_digests(workload, seed, records)
    metrics = layer_metrics(wrapped["dumps"])
    factor = wrapped["total"] / wrapped["raw_total"]
    for name, (value, unit) in metrics.items():
        if unit == "s":
            metrics[name] = (value * factor, unit)
    metrics["trace.overhead_frac"] = (wrapped["total"] / plain["total"] - 1.0, "ratio")
    failed, violations = tally(records)
    info = {"ops": len(records), "untraced_s": plain["total"],
            "traced_s": wrapped["total"], "raw": {"untraced_s": plain["raw_total"],
                                                 "traced_s": wrapped["raw_total"]},
            "error_frac": (failed + violations) / len(records)}
    return records, metrics, info


# ---------------------------------------------------------------------------
# metadata and output

def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "tamenorm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "setup", "untraced", "traced"), default="main",
                    help="internal: the child processes a run starts")
    args = ap.parse_args(argv)
    import tamenorm  # fails here, before any output, without the program

    if not os.path.abspath(tamenorm.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"tamenorm was imported from {tamenorm.__file__}, not from {SRC}")

    if args.role == "setup":
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.role in ("untraced", "traced"):
        pass_main(args.role, args.workload, args.seed)
        return 0

    if args.trace:
        records, metrics, info = traced(args.workload, args.seed)
    else:
        records, metrics, info = end_to_end(args.workload, args.seed, args.seconds)
    failed, violations = tally(records)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "failed_ops": [[r["key"], r["problems"]] for r in records
                       if r["problems"] and r["name"] not in workloads.KNOWN_VIOLATIONS],
        "contract_violations": sorted({r["name"] for r in records if r["problems"]
                                       and r["name"] in workloads.KNOWN_VIOLATIONS}),
        "contract_violation_ops": violations,
        **info,
    }
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {name:36s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
