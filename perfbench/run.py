"""graspsim benchmark: sweep, record and student workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

``--trace 0`` measures the end-to-end metrics with no tracing installed,
reading times from the host-speed-corrected clock of ``hostclock.py``.
``--trace 1`` makes an untraced pass and then a traced pass over the same
fixed amount of work, and reports the per-layer metrics plus the tracing
overhead.
The last line of output is one JSON object (correct, attempted, failed,
metrics); the lines before it give every metric with its unit and sample
count, and the host the numbers were taken on.

The package is imported from ``src/`` of the checkout this file sits in,
never from an installed copy; without it the benchmark exits with code 1
and prints no result.
``--write-reference`` regenerates ``reference.json``, the per-episode and
kd_loss reference for the default seed.
"""

import os

# Pin the BLAS / OpenMP pools to one thread before numpy loads, removing a
# source of scheduler noise; the set-up and recording processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from hostclock import HostClock  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
SCRATCH = os.path.join(ROOT, ".perfbench_scratch")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
# Work of each pass of a traced run, per second of --seconds: run_benchmark
# calls (sweep), episodes (record) or dataset records (student).  It depends
# on --seconds alone, never on the clock, so at a given seed and --seconds
# every traced count is the same on every commit, and the self times of two
# commits cover the same work.  Each pass takes about half of --seconds on a
# 2-vCPU x86 host.
TRACE_WORK_PER_SECOND = {"sweep": 0.5, "record": 2.8, "student": 30}
# Lower limit on the share of the traced timed wall that the spans' self
# times cover; every timed call is a traced entry point, so anything lower
# means time escaped the spans, and a share above 1 means double counting.
MIN_SELF_SHARE = 0.95


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "graspsim", "__init__.py")):
        sys.exit(f"error: no graspsim source under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import graspsim
    where = os.path.dirname(os.path.abspath(graspsim.__file__))
    if where != os.path.join(SRC, "graspsim"):
        sys.exit(f"error: graspsim imported from {where}, not from {SRC}")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def _environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def _child(*args) -> float:
    """Run this file in a fresh process; returns the corrected seconds it
    reports on its last line of output."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), *args],
                          check=True, timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.PIPE, text=True)
    return float(json.loads(proc.stdout.splitlines()[-1])["seconds"])


def _time_setup(workload: str) -> list:
    """Corrected seconds of fresh processes that import and set up, then exit."""
    return [_child("--setup-only", "--workload", workload)
            for _ in range(SETUP_REPEATS)]


def _setup_child(args) -> int:
    """Body of a set-up process: import graspsim and ``prepare`` or, with
    ``--record-dataset``, record the student dataset, under a host-speed-
    corrected clock; print the corrected seconds that work took."""
    clock = HostClock()
    clock.start()
    try:
        t0 = clock.now()
        _import_package()
        import workloads as w
        ctx = w.prepare(args.workload)
        if args.record_dataset:
            t0 = clock.now()
            w.save_manifest(args.record_dataset, w.record_student_dataset(
                ctx, args.seed, args.record_dataset, args.records))
        seconds = clock.now() - t0
    finally:
        clock.stop()
    print(json.dumps({"seconds": seconds}))
    return 0


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered) / 100) - 1)]


def _load_expect(workload: str, seed: int):
    from workloads import DEFAULT_SEED, Expect
    if seed != DEFAULT_SEED or not os.path.isfile(REFERENCE):
        return Expect()
    with open(REFERENCE, encoding="utf-8") as fh:
        return Expect(json.load(fh)[workload])


def _open_stream(workload, ctx, seed, scratch, n_records):
    """Set up the workload's input; returns (make_units, recording_s, repeats).

    ``make_units(expect, clock)`` starts the unit generator over the same
    inputs each time it is called.  Only student has set-up beyond
    ``prepare``: a separate process records its dataset of about
    ``n_records`` records, so that recording leaves no trace in this
    process's peak RSS, and ``repeats`` counts the records skipped because
    their input repeats an earlier one.
    """
    import workloads as w
    if workload == "sweep":
        return (lambda expect, clock: w.sweep(ctx, seed, expect, clock)), 0.0, None
    if workload == "record":
        return (lambda expect, clock: w.record(ctx, seed, scratch, expect, clock)), \
            0.0, None
    recording = _child("--workload", workload, "--seed", str(seed),
                       "--records", str(n_records), "--record-dataset", scratch)
    files = w.load_manifest(scratch)
    return (lambda expect, clock: w.student(ctx, files, expect, clock)), recording, \
        sum(len(f.repeats) for f in files)


def _make_scratch(prefix: str) -> str:
    os.makedirs(SCRATCH, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"{prefix}-", dir=SCRATCH)


def _remove_scratch(path: str) -> None:
    """Delete this run's scratch directory, and the shared parent if empty."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(SCRATCH)
    except OSError:
        pass


def _line(name, value, unit, note):
    print(f"  {name:<32} {value:>14.6g} {unit:<14} {note}")


def run(args) -> int:
    import workloads as w
    from tracer import Tracer, layer_metrics

    e2e, per_layer = _declared()
    setup = [] if args.trace else _time_setup(args.workload)
    ctx = w.prepare(args.workload)
    scratch = _make_scratch(args.workload)
    # Traced passes do a fixed amount of work; student's is its whole dataset.
    work = math.ceil(args.seconds / 2 * TRACE_WORK_PER_SECOND[args.workload])
    n_records = work if args.trace else w.student_records(args.seconds)
    count = work if args.workload != "student" else None
    try:
        make_units, recording, repeats = _open_stream(
            args.workload, ctx, args.seed, scratch, n_records)
        checks = {}
        if args.trace:
            # Both passes run the same units, so the two rates compare the
            # same work and every count is fixed by seed and --seconds.
            untraced = w.measure(make_units(_load_expect(args.workload, args.seed),
                                            time.perf_counter), count=count)
            tracer = Tracer()
            try:
                wrapped = tracer.install()
                result = w.measure(make_units(_load_expect(args.workload, args.seed),
                                              time.perf_counter), count=count)
            finally:
                tracer.uninstall()
            checks["tracer restored every original"] = tracer.restored()
            checks["both passes ran the same units"] = (
                untraced.units == result.units and untraced.steps == result.steps)
            values = layer_metrics(tracer, result.steps, result.busy,
                                   untraced.steps_per_s, result.steps_per_s)
            share = values["trace.self_share"]
            checks[f"self times cover {MIN_SELF_SHARE:.0%}-100% of the traced wall"] = (
                MIN_SELF_SHARE <= share <= 1.0 + 1e-9)
            attempted = untraced.attempted + result.attempted
            failed = untraced.failed + result.failed
        else:
            clock = HostClock()
            clock.start()
            try:
                result = w.measure(make_units(_load_expect(args.workload, args.seed),
                                              clock.now), seconds=args.seconds)
            finally:
                clock.stop()
            attempted, failed = result.attempted, result.failed
    finally:
        _remove_scratch(scratch)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"workload {args.workload}: seed {args.seed}, {args.seconds:g} s budget, "
          f"closed loop, one caller, trace {args.trace}")
    print(f"  env {json.dumps(_environment(), sort_keys=True)}")
    if not args.trace:
        print(f"  host speed {clock.speed():.4f} of reference (median of "
              f"{len(clock.samples)} kernel samples); every time below is in "
              "reference seconds")
    if args.trace:
        print(f"  untraced pass: {untraced.steps} steps in {untraced.busy:.3f} s "
              f"= {untraced.steps_per_s:.4f} steps/s")
        print(f"  traced pass:   {result.steps} steps in {result.busy:.3f} s "
              f"= {result.steps_per_s:.4f} steps/s ({wrapped} names wrapped)")
        print(f"  tracing overhead {values['trace.overhead']:.2%}; "
              f"self times cover {values['trace.self_share']:.2%} of the traced wall")
        ranked = sorted(((n, s) for n, s in tracer.stats.items() if s.calls),
                        key=lambda ns: -ns[1].self_time)
        for name, s in ranked[:15]:
            print(f"    {name:<36} calls {s.calls:>9} self {s.self_time:9.4f} s "
                  f"({s.self_time / result.busy:6.2%})")
        declared = per_layer
    else:
        lat = result.latencies
        values = {
            "setup_s": statistics.median(setup) + recording,
            "steps_per_s": result.steps_per_s,
            "peak_rss_mb": rss_mb,
        }
        notes = {
            "setup_s": f"(median of {len(setup)} fresh set-ups"
                       + (f" + {recording:.3f} s recording the dataset)" if recording
                          else ")"),
            "steps_per_s": f"(n={result.steps} steps in {result.busy:.3f} s)",
            "peak_rss_mb": "(n=1 process high-water mark)",
        }
        declared = e2e
    if args.workload == "student" and not args.trace:
        extra = [("infer_per_s", result.steps_per_s, "records/s",
                  f"(n={result.steps} distinct inputs, {repeats} repeats skipped;"
                  " the steps_per_s of this workload)"),
                 ("infer_ms_p50", 1e3 * statistics.median(lat), "ms", f"(n={len(lat)})"),
                 ("infer_ms_p99", 1e3 * _percentile(lat, 99), "ms",
                  f"(n={len(lat)}, {len(lat) // 100} beyond)")]
    else:
        extra = []
    extra.append(("error_rate", failed / attempted if attempted else 1.0, "fraction",
                  f"({failed} failed of {attempted} attempted)"))

    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise KeyError(f"benchmark does not compute declared metric {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        if not args.trace:
            _line(m["name"], values[m["name"]], m["unit"], notes[m["name"]])
    for name, value, unit, note in extra:
        _line(name, value, unit, note)
    for name, ok in checks.items():
        print(f"  check: {name}: {'ok' if ok else 'FAILED'}")

    correct = failed == 0 and attempted > 0 and all(checks.values())
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    import workloads as w
    status = 0
    for workload in w.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], timeout=CHILD_TIMEOUT_S + 300)
        status = status or proc.returncode
    return status


def write_reference() -> int:
    """Record the default-seed reference, generously past one run's reach."""
    import workloads as w
    out = {}
    # Episodes for sweep and record; for student, the dataset of a 60 s run.
    for workload, episodes in (("sweep", 160), ("record", 120), ("student", None)):
        ctx = w.prepare(workload)
        expect = w.Expect(learn=True)
        scratch = _make_scratch("reference")
        try:
            make_units, _, _ = _open_stream(workload, ctx, w.DEFAULT_SEED, scratch,
                                            w.student_records(60))
            done = 0
            units = make_units(expect, time.perf_counter)
            for u in units:
                done += u.attempted
                if episodes is not None and done >= episodes:
                    break
            units.close()
        finally:
            _remove_scratch(scratch)
        out[workload] = expect.values
        print(f"{workload}: {len(expect.values)} reference values")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(
            f"{json.dumps(k)}: [\n" + ",\n".join(json.dumps(v) for v in values) + "\n]"
            for k, values in out.items()) + "\n}\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   choices=("sweep", "record", "student", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record-dataset", metavar="DIR", help=argparse.SUPPRESS)
    p.add_argument("--records", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.setup_only or args.record_dataset:
        return _setup_child(args)
    _import_package()
    if args.write_reference:
        return write_reference()
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
