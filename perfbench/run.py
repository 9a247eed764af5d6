"""Outside-in benchmark of the gausscap command line.

    python3 perfbench/run.py --workload mc-passive-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root (or any checkout of it).  One run is one fresh
interpreter: it imports the package from ``src/``, times ``set-up`` in
separate probe interpreters, makes one untimed warm-up call, then drives
``gausscap.cli.main(argv)`` in-process in a closed loop until the calls' own
time adds up to ``--seconds`` seconds.  Outside the calls' timing, every
output is checked against an independent numpy reference (see
``bench_reference``); a call fails on a nonzero exit, an exception or a
failed check.

With ``--trace 0`` the last stdout line reports the end-to-end metrics named
in ``BENCHMARK.json``.  Their times are in "cal": each call's time divided by
the time of a fixed calibration kernel run right after the calls around it,
which cancels the host's speed drift; the same figures in seconds are in the
detail.  With ``--trace 1`` it reports the per-layer metrics of a traced run
(see ``bench_trace``), which first measures an untraced third of the run so
the tracing overhead can be reported.  The lines before it give each metric
with its unit and a ``detail:`` JSON line with the machine and configuration
block.  Spans and the detail block are also written to ``.perfbench_out/``
under the checkout.
"""

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import bench_reference
import bench_trace
import bench_workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
TAIL_CALLS = 10
CHECK_BATCH = 32
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "GAUSSCAP_THREADS", "GAUSSCAP_BACKEND")


@dataclass
class Record:
    call: object
    t0: float
    t1: float
    cpu_s: float
    cal_s: float
    ok: bool


def items_done(records):
    return sum(r.call.items for r in records if r.ok)


def load_package():
    """Import gausscap.cli from this checkout's src/, or exit with an error."""
    if not (SRC / "gausscap" / "cli.py").is_file():
        sys.exit("perfbench: no gausscap sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import gausscap
    from gausscap import cli
    if Path(gausscap.__file__).resolve().parent != SRC / "gausscap":
        sys.exit("perfbench: imported gausscap from %s, not %s"
                 % (gausscap.__file__, SRC))
    return gausscap, cli


def make_invoke(cli, errors):
    """invoke(argv) -> (exit code or None, stdout text), the CLI run in-process."""

    def invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        if rc != 0 and len(errors) < 3:
            errors.append("%s -> %r\n%s" % (" ".join(argv), rc, err.getvalue()))
        return rc, out.getvalue()

    return invoke


def setup_probe(workload_name, seed):
    """Body of one set-up probe interpreter: import, parser, warm-up call.

    Prints the wall-clock time at which it became ready.
    """
    _, cli = load_package()
    cli.build_parser()
    call = bench_workloads.WORKLOADS[workload_name](seed).next_call()
    invoke = make_invoke(cli, [])
    for argv in call.argvs:
        invoke(argv)
    print("ready %r" % time.time(), flush=True)


def measure_setup(workload_name, seed):
    """Median wall time from interpreter start to ready over the probes."""
    times = []
    for k in range(SETUP_PROBES):
        t0 = time.time()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed + k)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            sys.exit("perfbench: set-up probe did not finish in %d s" % PROBE_TIMEOUT_S)
        fields = out.split()
        if proc.returncode != 0 or len(fields) != 2 or fields[0] != "ready":
            sys.exit("perfbench: set-up probe failed:\n%s" % err)
        times.append(float(fields[1]) - t0)
    return statistics.median(times), times


def timed_loop(workload, invoke, seconds, failures):
    """Closed loop of calls until their own time adds up to ``seconds``.

    After each call, outside its timing, the calibration kernel is timed.
    Outputs are checked in batches of ``CHECK_BATCH`` calls and then dropped:
    the reference arithmetic stays out of the gaps between most calls, and
    the stored outputs stay small, so a faster program does not raise the
    peak RSS by storing more of them.  The loop also ends after 3 x
    ``seconds`` of wall time, which only calls that fail at once can reach.
    """
    records, pending, busy = [], [], 0.0
    deadline = time.perf_counter() + 3.0 * seconds
    while busy < seconds and time.perf_counter() < deadline:
        call = workload.next_call()
        cpu0, t0 = time.process_time(), time.perf_counter()
        results = [invoke(argv) for argv in call.argvs]
        t1, cpu1 = time.perf_counter(), time.process_time()
        bench_reference.calibrate()
        records.append(Record(call, t0, t1, cpu1 - cpu0, time.perf_counter() - t1, False))
        pending.append((records[-1], results))
        busy += t1 - t0
        if len(pending) == CHECK_BATCH:
            check_calls(workload, pending, failures)
    check_calls(workload, pending, failures)
    return records


def check_calls(workload, pending, failures):
    """Set each pending record's ``ok`` from its call's results, then clear."""
    for record, results in pending:
        record.ok = check_call(workload, record.call, results, failures)
    pending.clear()


def check_call(workload, call, results, failures):
    """Exit codes and output check of one call; note the first few failures."""
    outputs = [out for _, out in results]
    error = None
    try:
        ok = all(rc == 0 for rc, _ in results) and bool(workload.check(call, outputs))
    except Exception:
        ok, error = False, traceback.format_exc()
    if not ok and len(failures) < 3:
        failures.append({"argvs": call.argvs, "outputs": outputs, "error": error})
    return ok


def latency_stats(latencies):
    """Median and the highest percentile with TAIL_CALLS calls beyond it."""
    lat = sorted(latencies)
    beyond = min(TAIL_CALLS, len(lat) - 1)
    return {"p50": statistics.median(lat), "tail": lat[len(lat) - 1 - beyond],
            "tail_percentile": round(100.0 * (len(lat) - beyond) / len(lat), 2),
            "calls_beyond_tail": beyond, "calls": len(lat)}


def host_speed(records):
    """Per call, the median calibration time of the 5 calls around it."""
    cal = [r.cal_s for r in records]
    return [statistics.median(cal[max(0, i - 2):i + 3]) for i in range(len(cal))]


def busy_cal(records, cal):
    """Total call time in cal."""
    return sum((r.t1 - r.t0) / c for r, c in zip(records, cal))


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "gausscap").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def blas_block(np):
    import ctypes
    import glob
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            info["threads"] = fn()
            break
    return info


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_block(gausscap, args):
    import importlib.util

    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_block(np),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "gausscap_backend": getattr(gausscap, "BACKEND", None),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def write_out(name, payload, compress=False):
    OUT_DIR.mkdir(exist_ok=True)
    data = json.dumps(payload).encode()
    if compress:
        (OUT_DIR / (name + ".json.gz")).write_bytes(gzip.compress(data))
    else:
        (OUT_DIR / (name + ".json")).write_bytes(data)


def end_to_end(workload, invoke, args, detail):
    """End-to-end metrics; times are in cal, the adjacent calibration time.

    The same figures in seconds go to ``detail["seconds"]``.
    """
    setup_s, probe_times = measure_setup(args.workload, args.seed)
    recs = timed_loop(workload, invoke, args.seconds, detail["failed_calls"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    extra_attempted, extra_failed = workload.untimed_checks(invoke, recs)
    items = items_done(recs)
    cal = host_speed(recs)
    lat = latency_stats((r.t1 - r.t0) / c for r, c in zip(recs, cal))
    lat_s = latency_stats(r.t1 - r.t0 for r in recs)
    busy_s = sum(r.t1 - r.t0 for r in recs)
    cpu_s = sum(r.cpu_s for r in recs)
    detail.update(setup_probe_s=probe_times, items=items, latency_cal=lat, seconds={
        "items_per_s": items / busy_s, "call_p50_s": lat_s["p50"],
        "call_tail_s": lat_s["tail"], "cpu_ms_per_item": 1e3 * cpu_s / items if items else 0.0,
        "cal_ms_median": 1e3 * statistics.median(r.cal_s for r in recs),
        "latency": lat_s})
    metrics = {
        "setup_s": setup_s,
        "items_per_cal": items / busy_cal(recs, cal),
        "call_p50_cal": lat["p50"],
        "call_tail_cal": lat["tail"],
        "cpu_cal_per_item": sum(r.cpu_s / c for r, c in zip(recs, cal)) / items if items else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    failed = sum(not r.ok for r in recs) + extra_failed
    return metrics, len(recs) + extra_attempted, failed


def per_layer(workload, invoke, args, detail):
    import gausscap
    failures = detail["failed_calls"]
    plain = timed_loop(workload, invoke, args.seconds / 3.0, failures)
    tracer = bench_trace.Tracer(gausscap)
    with tracer:
        traced = timed_loop(workload, invoke, args.seconds - args.seconds / 3.0, failures)
    extra_attempted, extra_failed = workload.untimed_checks(invoke, plain + traced)
    attempted = len(plain) + len(traced) + extra_attempted
    failed = sum(not r.ok for r in plain + traced) + extra_failed
    items = items_done(traced)
    layers = bench_trace.layer_metrics(tracer.spans, tracer.counts, items) if items else {}
    # Both rates are in cal, so host speed drift between the phases cancels.
    plain_rate = items_done(plain) / busy_cal(plain, host_speed(plain))
    traced_rate = items / busy_cal(traced, host_speed(traced))
    layers["trace.overhead_frac"] = plain_rate / traced_rate - 1.0 if traced_rate else 0.0
    layers["failed_frac"] = failed / attempted
    detail.update(items=items, spans=len(tracer.spans),
                  untraced_items_per_cal=plain_rate, traced_items_per_cal=traced_rate)
    names = sorted({s[2] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    write_out("%s-seed%d-spans" % (args.workload, args.seed), {
        "names": names,
        "columns": ["id", "parent", "name", "start_s", "end_s", "thread", "raised"],
        "spans": [[sid, parent, index[name], t0 - traced[0].t0, t1 - traced[0].t0, tid,
                   int(raised)] for sid, parent, name, t0, t1, tid, raised in tracer.spans],
    }, compress=True)
    return layers, attempted, failed


def run_one(args):
    gausscap, cli = load_package()
    spec = load_spec()
    cli.build_parser()
    workload = bench_workloads.WORKLOADS[args.workload](args.seed)
    errors = []
    invoke = make_invoke(cli, errors)
    # The warm-up call comes from another seed, so it repeats no timed call.
    for argv in bench_workloads.WORKLOADS[args.workload](args.seed + 1).next_call().argvs:
        invoke(argv)
    for _ in range(5):
        bench_reference.calibrate()
    detail = {"machine": machine_block(gausscap, args), "failed_calls": []}
    if args.trace:
        values, attempted, failed = per_layer(workload, invoke, args, detail)
        wanted = spec["per_layer"]
    else:
        values, attempted, failed = end_to_end(workload, invoke, args, detail)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    detail["errors"] = errors
    write_out("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace),
              {"detail": detail, "metrics": metrics})
    for err in errors:
        print(err, file=sys.stderr)
    for name, m in metrics.items():
        print("%-48s %14.6g %s" % (name, m["value"], m["unit"]))
    if "seconds" in detail:
        sec = detail["seconds"]
        lat = sec["latency"]
        print("tail at p%.2f: %d of %d calls beyond it"
              % (lat["tail_percentile"], lat["calls_beyond_tail"], lat["calls"]))
        for name, unit in (("items_per_s", "1/s"), ("call_p50_s", "s"),
                           ("call_tail_s", "s"), ("cpu_ms_per_item", "ms"),
                           ("cal_ms_median", "ms")):
            print("%-48s %14.6g %s" % (name + " (detail)", sec[name], unit))
    print("detail: " + json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def run_all(args):
    """Each workload in its own interpreter; a table, then all results as JSON."""
    results = {}
    for name in bench_workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            sys.exit("perfbench: %s failed:\n%s" % (name, done.stderr))
        lines = done.stdout.splitlines()
        res = results[name] = json.loads(lines[-1])
        print("%s: correct=%s attempted=%d failed=%d"
              % (name, res["correct"], res["attempted"], res["failed"]))
        for line in lines[:-1]:
            if not line.startswith("detail: "):
                print("  " + line)
    print(json.dumps(results))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(bench_workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
    elif args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
