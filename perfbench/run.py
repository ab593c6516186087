"""photonflow benchmark: one workload, one seed, closed loop with one client.

Run from the repository root:

    python3 perfbench/run.py --workload probe|streamlines|maps --seed N \
        --seconds S --trace 0|1

Each job starts when the previous one ends.  The job list of one pass comes
from the seed (see workloads.py); the run repeats whole passes until
`--seconds` have gone by and the 90th percentile has at least ten jobs above
it.  Outputs of the last pass are then checked (checks.py), outside the
timed region.

`--trace 0` prints the end-to-end metrics; `--trace 1` first repeats the
untraced loop for half the time, then runs it again with spans installed
(spans.py) and prints the per-layer metrics.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import os

# One BLAS/OpenMP thread: the figures describe the single-threaded program.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
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
import time  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
MIN_ABOVE_P90 = 10
FAILED_LATENCY_MS = 1e12     # a failed job's latency; stands for +infinity in JSON

END_TO_END = (("setup_s", "s"), ("samples_per_s", "1/s"), ("job_p50_ms", "ms"),
              ("job_p90_ms", "ms"), ("peak_rss_mb", "MB"))


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_program(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "photonflow", "__init__.py")):
        _fail(f"no photonflow sources under {src}; run from the repository root")
    sys.path[:0] = [src, HERE]
    import photonflow
    import photonflow.cli  # noqa: F401  (the CLI is not imported by the package)
    if not os.path.abspath(photonflow.__file__).startswith(src + os.sep):
        _fail(f"photonflow was imported from {photonflow.__file__}, not from {src}")
    return photonflow


def stamp(root, seed):
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit,
            "seed": seed, "threads": os.environ["OMP_NUM_THREADS"]}


def setup_seconds(root, workload, seed):
    """Median over fresh interpreters of import + input generation time."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_child.py"),
                               workload, str(seed)], cwd=root, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            _fail(f"set-up child failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


# ------------------------------------------------------------ the closed loop

class Loop:
    """Latency, samples and outcome of every job executed in one phase."""

    def __init__(self, preps):
        self.preps = preps
        self.latency = []      # seconds, one per execution
        self.samples = []
        self.job_index = []
        self.error = []        # None or reason
        self.outputs = [None] * len(preps)
        self.passes = 0
        self.codes = {}

    def run(self, seconds, workloads, pf, tracer=None):
        clock = time.perf_counter
        start = clock()
        while True:
            for idx, prep in enumerate(self.preps):
                if tracer is not None:
                    tracer.job = idx
                t0 = clock()
                try:
                    code, samples, out = workloads.execute(prep, pf)
                    err = None if code == 0 else f"exit {code}: {_last_line(out)}"
                except Exception as exc:  # a raising job is a failed job; keep going
                    code, samples, out, err = None, 0, None, f"{type(exc).__name__}: {exc}"
                t1 = clock()
                self.latency.append(t1 - t0)
                self.samples.append(samples)
                self.job_index.append(idx)
                self.error.append(err)
                self.outputs[idx] = out
                self.codes[code] = self.codes.get(code, 0) + 1
            self.passes += 1
            n = len(self.latency)
            if clock() - start >= seconds and n - math.ceil(0.9 * n) >= MIN_ABOVE_P90:
                return

    def mark_failed(self, idx, reason):
        for k, j in enumerate(self.job_index):
            if j == idx and self.error[k] is None:
                self.error[k] = reason

    def summary(self):
        ok = [e is None for e in self.error]
        busy = sum(self.latency)
        lat_ms = sorted(l * 1e3 if good else math.inf for l, good in zip(self.latency, ok))
        n = len(lat_ms)
        p50_rank = math.ceil(0.5 * n) - 1
        p90_rank = math.ceil(0.9 * n) - 1
        return {
            "jobs": n,
            "failed": ok.count(False),
            "samples": sum(s for s, good in zip(self.samples, ok) if good),
            "busy_s": busy,
            "samples_per_s": sum(s for s, good in zip(self.samples, ok) if good) / busy,
            "p50_ms": lat_ms[p50_rank],
            "p90_ms": lat_ms[p90_rank],
            "above_p50": sum(1 for v in lat_ms if v > lat_ms[p50_rank]),
            "above_p90": sum(1 for v in lat_ms if v > lat_ms[p90_rank]),
            "passes": self.passes,
            "job_median_ms": self.job_medians(),
        }

    def job_medians(self):
        per_job = {}
        for idx, lat in zip(self.job_index, self.latency):
            per_job.setdefault(self.preps[idx].job.name, []).append(lat * 1e3)
        return {name: statistics.median(v) for name, v in per_job.items()}


def _last_line(text):
    lines = (text or "").strip().splitlines()
    return lines[-1] if lines else ""


def warm_up(preps, workloads, pf):
    """Run one small job per job class, untimed, so lazy set-up is done."""
    seen = set()
    for prep in sorted(preps, key=lambda p: p.job.payload.get("cells", 0)):
        key = (prep.kind, prep.argv[0] if prep.kind == "cli" else "")
        if key in seen or key == ("cli", "render"):
            continue
        seen.add(key)
        try:
            workloads.execute(prep, pf)
        except Exception:  # warm-up outcome does not count
            pass


def run_checks(loop, checks, pf, seed):
    import numpy as np
    rng = np.random.default_rng([7, seed])
    failures = {}
    for idx, err in zip(loop.job_index, loop.error):
        if err:
            failures[loop.preps[idx].job.name] = err
    for idx, prep in enumerate(loop.preps):
        if prep.job.name in failures:
            continue
        try:
            reason = checks.check(prep, loop.outputs[idx], rng, pf)
        except Exception as exc:  # a check that cannot read the output fails the job
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            failures[prep.job.name] = reason
            loop.mark_failed(idx, "wrong output: " + reason)
    return failures


def rerun_identical(loop, workloads, pf, failures):
    """Re-run the first good job of each CLI command; its file must not change."""
    seen = {}
    for prep in loop.preps:
        if (prep.kind == "cli" and prep.argv[0] not in seen
                and prep.job.name not in failures):
            seen[prep.argv[0]] = prep
    bad = {}
    for cmd, prep in seen.items():
        with open(prep.out, "rb") as fh:
            before = fh.read()
        code, _, _ = workloads.execute(prep, pf)
        with open(prep.out, "rb") as fh:
            if code != 0 or fh.read() != before:
                bad[prep.job.name] = f"{cmd} re-run did not give byte-identical output"
    return bad


def report_known_faults(workloads, checks, pf, seed, workdir):
    """Reproduce the known faults (workloads.known_faults); name -> outcome."""
    import numpy as np
    rng = np.random.default_rng([8, seed])
    outcome = {}
    for job in workloads.known_faults(seed):
        prep = workloads.Prepared(job, workdir, pf)
        code, _, text = workloads.execute(prep, pf)
        if code != 0:
            outcome[job.name] = f"reproduced (exit {code}: {_last_line(text)})"
            continue
        reason = checks.check(prep, text, rng, pf)
        if reason:
            outcome[job.name] = f"reproduced ({reason})"
            continue
        with open(prep.out, encoding="utf-8") as fh:
            layers = json.load(fh).get("layers", {})
        cells = [c for rows in layers.values() for row in rows for c in row]
        singular = cells.count("singular")
        outcome[job.name] = (f"reproduced ({singular}/{len(cells)} cells singular where the "
                             "analytic momentum is finite)" if singular else "not reproduced")
    return outcome


# ------------------------------------------------------------ per-layer figures

GRID_COMMANDS = ("fieldmap", "stokes", "force", "anomaly")
CLI_COMMANDS = ("fieldmap", "stokes", "force", "anomaly", "trace", "render")
STOP_CAUSES = ("left-domain", "max-steps", "vortex-proximity", "singular-amplitude")


def layer_metrics(tracer, loop, untraced, traced, families):
    """Per-layer figures of the traced phase, per pass of the job list."""
    passes = loop.passes
    calls, self_t, total = tracer.calls, tracer.self_time, tracer.total
    m = {}

    def per_pass(value):
        return value / passes

    def group(prefix):
        names = [n for n in calls if n.startswith(prefix)]
        return sum(calls[n] for n in names), sum(total[n] for n in names)

    n, t = group("fields.point.")
    m["fields.point.calls"] = (per_pass(n), "count")
    m["fields.point.us_per_call"] = (t / n * 1e6 if n else 0.0, "us")
    for fam in families:
        name = "fields.point." + fam
        c = calls.get(name, 0)
        m[name + ".us_per_call"] = (total.get(name, 0.0) / c * 1e6 if c else 0.0, "us")
    n, t = group("fields.grid.")
    pts = sum(tracer.points.values())
    m["fields.grid.calls"] = (per_pass(n), "count")
    m["fields.grid.points"] = (per_pass(pts), "count")
    m["fields.grid.ns_per_point"] = (t / pts * 1e9 if pts else 0.0, "ns")
    for fam in families:
        name = "fields.grid." + fam
        p = tracer.points.get(name, 0)
        m[name + ".ns_per_point"] = (total.get(name, 0.0) / p * 1e9 if p else 0.0, "ns")

    m["grids.mesh.calls"] = (per_pass(calls.get("grids.mesh", 0)), "count")
    m["grids.mesh.self_s"] = (per_pass(self_t.get("grids.mesh", 0.0)), "s")

    def grid_evals(cmd):
        evals = sum(c for (root, name), c in tracer.by_root.items()
                    if root == "cli." + cmd and name.startswith("fields.grid."))
        return evals, calls.get("cli." + cmd, 0)

    evals = [grid_evals(cmd) for cmd in GRID_COMMANDS]
    jobs = sum(j for _, j in evals)
    m["cli.grid_evals_per_job"] = (sum(e for e, _ in evals) / jobs if jobs else 0.0, "ratio")
    for cmd in ("fieldmap", "anomaly"):
        e, j = grid_evals(cmd)
        m[f"cli.{cmd}.grid_evals_per_job"] = (e / j if j else 0.0, "ratio")

    m["anomaly.winding.self_s"] = (per_pass(self_t.get("anomaly.detect_vortices", 0.0)), "s")
    m["anomaly.labels.self_s"] = (per_pass(self_t.get("anomaly.classify_anomalies", 0.0)), "s")
    refine = sum(c for (parent, child), c in tracer.child_calls.items()
                 if parent == "anomaly.detect_vortices" and child.startswith("fields.point."))
    m["anomaly.refine.point_evals"] = (per_pass(refine), "count")
    vortices = 0
    for prep in loop.preps:
        if prep.kind == "cli" and prep.argv[0] == "anomaly":
            with open(prep.out, encoding="utf-8") as fh:
                vortices += len(json.load(fh)["vortices"])
    m["anomaly.vortices"] = (vortices, "count")

    for metric, names in (
            ("observables.momentum", ("observables.local_momentum",)),
            ("observables.poynting", ("observables.poynting_decomposition",)),
            ("weakmeasure.readout", ("weakmeasure.apply_calcite", "weakmeasure.exact_stokes",
                                     "weakmeasure.predicted_stokes",
                                     "weakmeasure.momentum_from_stokes")),
            ("forces.force", ("forces.force_from_sample", "forces.optical_force",
                              "forces.normalized_forces"))):
        m[metric + ".calls"] = (per_pass(sum(calls.get(n, 0) for n in names)), "count")
        m[metric + ".self_s"] = (per_pass(sum(self_t.get(n, 0.0) for n in names)), "s")

    tracing = ("tracing.trace_streamline", "tracing.trace_bessel_helix")
    m["tracing.self_s"] = (per_pass(sum(self_t.get(n, 0.0) for n in tracing)), "s")
    points, stops = 0, dict.fromkeys(STOP_CAUSES, 0)
    for prep, out in zip(loop.preps, loop.outputs):
        if prep.kind == "helix" and out is not None:
            points += len(out.params)
            stops[out.termination] += 1
        elif prep.kind == "cli" and prep.argv[0] == "trace" and out:
            for line in out.splitlines():
                if line.startswith("trajectory "):       # "trajectory i: n points, cause"
                    points += int(line.split()[2])
                    stops[line.rsplit(", ", 1)[1]] += 1
    field_calls = sum(c for (parent, child), c in tracer.child_calls.items()
                      if parent == "tracing.trace_streamline" and child.startswith("fields.point."))
    m["tracing.points"] = (points, "count")
    m["tracing.field_calls_per_point"] = (per_pass(field_calls) / points if points else 0.0,
                                          "ratio")
    for cause in STOP_CAUSES:
        m["tracing.stop." + cause] = (stops[cause], "count")

    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.self_s"] = (per_pass(self_t.get("cli." + cmd, 0.0)), "s")
    enc = self_t.get("cli.encode", 0.0)
    m["cli.encode.self_s"] = (per_pass(enc), "s")
    m["cli.encode.bytes"] = (per_pass(tracer.bytes), "B")
    m["cli.encode.MB_per_s"] = (tracer.bytes / enc / 1e6 if enc else 0.0, "MB/s")
    m["cli.exit1"] = (per_pass(loop.codes.get(1, 0)), "count")
    m["cli.exit2"] = (per_pass(loop.codes.get(2, 0)), "count")

    m["bench.untraced.samples_per_s"] = (untraced["samples_per_s"], "1/s")
    m["bench.traced.samples_per_s"] = (traced["samples_per_s"], "1/s")
    m["bench.trace_overhead_pct"] = (
        100.0 * (untraced["samples_per_s"] / traced["samples_per_s"] - 1.0), "%")
    return m


# ------------------------------------------------------------ main

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("probe", "streamlines", "maps"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        _fail("--seconds must be > 0")

    root = os.getcwd()
    pf = _load_program(root)
    import checks
    import spans
    import workloads

    base = os.path.join(root, ".perfbench")
    workdir = os.path.join(base, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = measure(args, root, base, workdir, pf, checks, spans, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


def measure(args, root, base, workdir, pf, checks, spans, workloads):
    info = stamp(root, args.seed)
    setup_s, setup_all = setup_seconds(root, args.workload, args.seed)
    preps = [workloads.Prepared(job, workdir, pf) for job in workloads.generate(args.workload,
                                                                               args.seed)]
    warm_up(preps, workloads, pf)

    if args.trace:
        untraced = Loop(preps)
        untraced.run(args.seconds / 2.0, workloads, pf)
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            loop = Loop(preps)
            loop.run(args.seconds / 2.0, workloads, pf, tracer)
        finally:
            uninstall()
    else:
        loop = Loop(preps)
        loop.run(args.seconds, workloads, pf)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = run_checks(loop, checks, pf, args.seed)
    failures.update(rerun_identical(loop, workloads, pf, failures))
    faults = {}
    if args.workload == "maps":
        faults = report_known_faults(workloads, checks, pf, args.seed, workdir)
    s = loop.summary()

    if args.trace:
        u = untraced.summary()
        layer = layer_metrics(tracer, loop, u, s, workloads.FAMILIES)
        tracer.save(os.path.join(base, f"spans-{args.workload}-{args.seed}.npz"))
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in layer.items()}
    else:
        values = {"setup_s": setup_s, "samples_per_s": s["samples_per_s"],
                  "job_p50_ms": min(s["p50_ms"], FAILED_LATENCY_MS),
                  "job_p90_ms": min(s["p90_ms"], FAILED_LATENCY_MS),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    record = {"workload": args.workload, "trace": args.trace, "stamp": info,
              "setup_s_runs": setup_all, "summary": s, "error_rate": s["failed"] / s["jobs"],
              "failed_jobs": failures, "known_faults": faults, "metrics": metrics}
    with open(os.path.join(base, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload} seed {args.seed}: {s['jobs']} jobs in {s['passes']} passes, "
          f"{s['samples']} samples; p50 over {s['jobs']} jobs ({s['above_p50']} above), "
          f"p90 over {s['jobs']} jobs ({s['above_p90']} above); "
          f"setup_s median of {len(setup_all)}")
    print("stamp " + json.dumps(info, sort_keys=True))
    print(f"error_rate {s['failed'] / s['jobs']:.6g} ({s['failed']}/{s['jobs']})"
          + "".join(f"\n  failed {name}: {why}" for name, why in sorted(failures.items())))
    for name, outcome in sorted(faults.items()):
        print(f"known fault {name}: {outcome}")
    if args.trace:
        print("unmeasured: " + (", ".join(tracer.unmeasured) or "none"))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {"correct": not failures, "attempted": s["jobs"], "failed": s["failed"],
            "metrics": metrics}


if __name__ == "__main__":
    main()
