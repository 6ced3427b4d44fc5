"""simkbm benchmark: real CLI invocations, timed end to end and traced per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {compare,kbm,sweep,operator} \
        --seed N --seconds S --trace {0,1}

Every invocation runs one `simkbm` command in a fresh Python process with
`src/` on the path and one BLAS/OpenMP thread per process.  The seed reaches
the program through `--seed` (taken modulo REFERENCE_SEEDS, the number of
seeds the stored references cover).

--trace 0 alternates setup probes (perfbench/setup_probe.py) with untraced
invocations for about S seconds and reports medians of wall_s, cpu_s,
peak_rss_mb and setup_s.  --trace 1 alternates untraced invocations with
invocations under perfbench/traced.py and reports the per-layer metrics,
each the median over the traced invocations.

Per-layer names are <module>.<function>.<stat>: calls, self_s (time not
spent in a traced callee), s (inclusive time), and p50/p99 of the per-call
self time (p99 reads 0 below 1000 calls).  Spans from sweep workers count
towards the layer totals; trace.coverage is the share of the traced wall
that the main process's layers, interpreter start-up and interpreter exit
account for, and trace.overhead is the median traced wall over the median
untraced wall, minus one.

Every invocation is checked: exit code 0, output values equal to
perfbench/reference.json within RTOL relative plus ATOL absolute, and output
files byte-identical to the first invocation of the run.  Traced invocations
must also reproduce exact call counts and a trace coverage of at least
MIN_COVERAGE.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import hashlib
import json
import os
import pickle
import platform
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TRACED = os.path.join(HERE, "traced.py")
SETUP_PROBE = os.path.join(HERE, "setup_probe.py")
REFERENCE = os.path.join(HERE, "reference.json")
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# Admits roundoff-level changes (a different FFT length moves the compare
# suprema by about 2e-13 relative and the residual suprema by about 2e-11),
# flags any change in the numerics.  ATOL is the floor for quantities that
# sit at roundoff themselves, such as min_density and the mass-leak rate.
RTOL = 1e-9
ATOL = 1e-12
REFERENCE_SEEDS = 16
MIN_COVERAGE = 0.9
INVOCATION_TIMEOUT_S = 150.0
MIN_INVOCATIONS = {0: 3, 1: 1}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# The standard cadence; every workload's t_end is a multiple of SNAPSHOT_DT.
DT = 0.002
SNAPSHOT_DT = 0.05
# The console script `simkbm` resolves to this call.
ENTRY = "import sys; from simkbm.cli import main; sys.exit(main())"


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str
    space_points: int
    trait_points: int
    t_end: float
    gamma: float | None = 8.0
    gamma_list: tuple | None = None
    jobs: int = 1

    @property
    def steps(self) -> int:
        return round(self.t_end / DT)

    @property
    def snapshots(self) -> int:
        return round(self.t_end / SNAPSHOT_DT) + 1

    @property
    def members(self) -> int:
        return len(self.gamma_list) if self.gamma_list else 1

    def config(self) -> dict:
        """The standard heterogeneous configuration of the acceptance suite, resized."""
        physical = {
            "A": 1.0,
            "env": {"kind": "sinusoidal_in_x", "offset": 0.0, "amplitude": 0.5, "wavenumber": 1},
            "initial": {
                "N0": {"kind": "constant", "value": 1.0},
                "Z0": {"kind": "constant", "value": 0.0},
                "V0": "auto",
            },
        }
        if self.gamma_list:
            physical["gamma_list"] = list(self.gamma_list)
        else:
            physical["gamma"] = self.gamma
        return {
            "physical": physical,
            "numerical": {
                "space_points": self.space_points,
                "trait_bounds": "auto",
                "trait_points": self.trait_points,
                "dt": DT,
                "t_end": self.t_end,
                "snapshot_dt": SNAPSHOT_DT,
            },
            "output": {"directory": "out"},
        }

    def cli_args(self, config_path: str, out_dir: str, seed: int) -> list:
        args = [self.command, "--config", config_path, "--out", out_dir, "--seed", str(seed)]
        if self.jobs > 1:
            args += ["--jobs", str(self.jobs)]
        return args

    def expected_counts(self) -> dict:
        """Exact call counts a traced invocation must reproduce."""
        steps, snaps, members = self.steps, self.snapshots, self.members
        if self.command == "simulate-kbm":
            return {"kbm_solver.kbm_step": steps, "output.write_snapshot": snaps}
        if self.command == "check-operator":
            return {
                "property_checks.run_all": 1,
                "infinitesimal.apply_T_oracle": 10,
                "measures.wasserstein_oracle": 300,
                "property_checks.tanaka_w2": 1,
                "property_checks.tanaka_w4": 1,
            }
        counts = {
            "sim_solver.sim_step": members * steps,
            "infinitesimal.apply_to_profiles": members * steps,
            "kbm_solver.kbm_step": members * steps,
            "diagnostics.gaussian_deviation": members * snaps,
            "experiments.run_compare": members,
        }
        if self.jobs > 1:
            counts["experiments.sweep.member"] = members
            counts["diagnostics.fit_power_law"] = 5
        return counts

    def working_set_mb_computed(self) -> float:
        """Bytes of the density plus the B substep's FFT buffers, from array sizes."""
        if self.command == "simulate-kbm":
            return 3 * self.space_points * 8 / 2**20
        rows = 1 if self.command == "check-operator" else self.space_points
        m = self.trait_points
        nfft = 1
        while nfft < 6 * m:
            nfft *= 2
        return (rows * m * 8 + 2 * rows * (nfft // 2 + 1) * 16 + rows * nfft * 8) / 2**20


# Why each workload: see the `why` fields of BENCHMARK.json.
WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("compare", "compare", 64, 512, t_end=0.5),
        Workload("kbm", "simulate-kbm", 64, 512, t_end=20.0),
        Workload(
            "sweep", "gamma-sweep", 32, 256, t_end=1.0, gamma=None,
            gamma_list=(2.0, 4.0, 8.0, 16.0), jobs=2,
        ),
        Workload("operator", "check-operator", 64, 256, t_end=1.0),
    )
}


# ---------------------------------------------------------------- correctness


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _last_snapshot_rows(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        payload = fh.read()
    rows, cols = header["rows"], header["cols"]
    flat = struct.unpack(f"<{rows * cols}d", payload)
    return [list(flat[r * cols:(r + 1) * cols]) for r in range(rows)]


def observe(wl: Workload, out_dir: str) -> dict:
    """The output values the correctness gate compares, flattened to name -> number."""
    if wl.command == "compare":
        sups = _read_json(os.path.join(out_dir, "compare_summary.json"))["sups"]
        # positivity_clips counts roundoff-level clamps, not a supremum.
        return {f"sups.{k}": v for k, v in sups.items() if k != "positivity_clips"}
    if wl.command == "simulate-kbm":
        snap_dir = os.path.join(out_dir, "snapshots")
        last = sorted(f for f in os.listdir(snap_dir) if f.startswith("kbm_"))[-1]
        N, _, Z = _last_snapshot_rows(os.path.join(snap_dir, last))
        obs = {f"final_N.{i}": v for i, v in enumerate(N)}
        obs.update({f"final_Z.{i}": v for i, v in enumerate(Z)})
        return obs
    if wl.command == "gamma-sweep":
        summary = _read_json(os.path.join(out_dir, "sweep_summary.json"))
        obs = {f"theta_hat.{k}": v for k, v in summary["theta_hat"].items()}
        for family, vals in summary["errors"].items():
            obs.update({f"errors.{family}.{i}": v for i, v in enumerate(vals)})
        return obs
    report = _read_json(os.path.join(out_dir, "operator_report.json"))
    obs = {"all_passed": float(report["all_passed"])}
    obs.update({f"worst.{c['name']}": float(c["worst"]) for c in report["checks"]})
    return obs


def reference_for(references: dict, wl: Workload, seed: int) -> dict:
    ref = references[wl.name]
    return ref[str(seed)] if wl.command == "check-operator" else ref


def gate(observed: dict, reference: dict) -> list:
    """Names and values of every observed value that misses its reference."""
    misses = []
    for key, want in reference.items():
        got = observed.get(key)
        if got is None or not abs(got - want) <= RTOL * abs(want) + ATOL:
            misses.append(f"{key}: got {got!r}, reference {want!r}")
    misses += [f"{key}: not in the reference" for key in observed.keys() - reference.keys()]
    return misses


def digest_tree(root: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


# -------------------------------------------------------------------- tracing


def load_spans(span_dir: str) -> list:
    """One span record per process, the main process first.  The files are
    pickles that perfbench/traced.py wrote for this invocation."""
    names = sorted(
        (n for n in os.listdir(span_dir) if n.endswith(".pickle")),
        key=lambda n: (n != "main.pickle", n),
    )
    processes = []
    for name in names:
        with open(os.path.join(span_dir, name), "rb") as fh:
            processes.append(pickle.load(fh))
    return processes


def aggregate(processes: list) -> dict:
    """Per span name: calls, inclusive seconds, self seconds (sum and per call), extras."""
    agg = {}
    for p in processes:
        names, starts, ends, parents, extras = (
            p["names"], p["starts"], p["ends"], p["parents"], p["extras"]
        )
        child = [0.0] * len(names)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        for i, name in enumerate(names):
            a = agg.get(name)
            if a is None:
                a = agg[name] = {
                    "calls": 0, "s": 0.0, "self_s": 0.0, "self": [], "extra": 0.0, "extra_max": 0.0
                }
            duration = ends[i] - starts[i]
            own = duration - child[i]
            a["calls"] += 1
            a["s"] += duration
            a["self_s"] += own
            a["self"].append(own)
            a["extra"] += extras[i]
            a["extra_max"] = max(a["extra_max"], extras[i])
    return agg


def _percentile(values, q, min_calls):
    if len(values) < min_calls:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _layer_value(agg: dict, span: str, stat: str) -> float:
    a = agg.get(span)
    if a is None:
        return 0.0
    scale = {"us": 1e6, "ms": 1e3}
    if stat in ("calls", "s", "self_s"):
        return float(a[stat])
    if stat == "rows":
        return float(a["extra"])
    if stat == "mb_moved_computed":
        return a["extra"] / 2**20
    if stat == "retained_mb_computed":
        return a["extra_max"] / 2**20
    pct, unit = stat.split("_")
    # p99 needs ten samples beyond it; functions with fewer calls report 0.
    min_calls = 1000 if pct == "p99" else 1
    return _percentile(a["self"], int(pct[1:]) / 100, min_calls) * scale[unit]


def layer_metrics(names: list, span_dir: str, start: float, end: float, jobs: int) -> dict:
    """Every per-layer metric of BENCHMARK.json for one traced invocation that
    was spawned at `start` and reaped at `end` (perf_counter readings, which
    share one clock with the spans)."""
    processes = load_spans(span_dir)
    agg = aggregate(processes)
    main = aggregate(processes[:1])
    with open(os.path.join(span_dir, "exit_start")) as fh:
        exit_start = float(fh.read())
    member_s = agg.get("experiments.sweep.member", {}).get("s", 0.0)
    sweep_wall = main.get("experiments.run_gamma_sweep", {}).get("s", 0.0)
    startup = processes[0]["starts"][processes[0]["names"].index("package.import")] - start
    layers_s = sum(a["self_s"] for n, a in main.items() if n != "cli.main")
    special = {
        "process.startup_s": startup,
        "process.exit_s": end - exit_start,
        "package.import_s": main.get("package.import", {}).get("s", 0.0),
        "experiments.sweep.member_s": member_s,
        "experiments.sweep.parallel_eff": member_s / (jobs * sweep_wall) if sweep_wall else 0.0,
        "output.bytes_written": float(
            sum(agg.get(f"output.{w}", {}).get("extra", 0) for w in ("write_snapshot", "write_csv", "write_json"))
        ),
        # Share of the traced wall that named layers and interpreter start and
        # exit account for; cli.main's own time and the span dump are the rest.
        "trace.coverage": (startup + layers_s + end - exit_start) / (end - start),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name != "trace.overhead":
            span, stat = name.rsplit(".", 1)
            out[name] = _layer_value(agg, span, stat)
    out["_counts"] = {n: a["calls"] for n, a in agg.items()}
    return out


def trace_misses(wl: Workload, layers: dict) -> list:
    misses = []
    for span, want in wl.expected_counts().items():
        got = layers["_counts"].get(span, 0)
        if got != want:
            misses.append(f"trace count {span}: got {got}, expected {want}")
    if layers["trace.coverage"] < MIN_COVERAGE:
        misses.append(f"trace coverage {layers['trace.coverage']:.3f} < {MIN_COVERAGE}")
    return misses


# ---------------------------------------------------------------- processes


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def spawn(cmd: list, env: dict, log_path: str):
    """Run cmd to completion; its start and end clock readings, the CPU seconds
    and peak RSS (MiB) of the process and every child it reaped, and the exit code."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.DEVNULL, stderr=log, env=env, start_new_session=True
        )
        timer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)
    return start, end, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


@dataclasses.dataclass
class Context:
    work: str
    env: dict
    wl: Workload
    seed: int
    reference: dict | None
    config_path: str
    layer_names: list = dataclasses.field(default_factory=list)
    first_digest: str | None = None
    count: int = 0


def make_context(root: str, wl: Workload, seed: int, reference: dict | None, layer_names=()):
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    work = os.path.join(root, ".perfbench_work", f"{wl.name}-{os.getpid()}")
    os.makedirs(work)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w") as fh:
        json.dump(wl.config(), fh)
    return Context(work, env, wl, seed, reference, config_path, list(layer_names))


def setup_probe(ctx: Context) -> dict:
    proc = subprocess.run(
        [sys.executable, SETUP_PROBE, ctx.config_path],
        env=ctx.env, capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S,
    )
    if proc.returncode != 0:
        return {"error": proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def invoke(ctx: Context, traced: bool) -> dict:
    """One CLI invocation, checked; returns its timings, observed values and misses."""
    ctx.count += 1
    inv = os.path.join(ctx.work, f"inv-{ctx.count}")
    # One output path for all invocations: outputs echo the resolved config, directory included.
    out_dir = os.path.join(ctx.work, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(inv)
    argv = ctx.wl.cli_args(ctx.config_path, out_dir, ctx.seed)
    if traced:
        span_dir = os.path.join(inv, "spans")
        os.makedirs(span_dir)
        cmd = [sys.executable, TRACED, span_dir] + argv
    else:
        cmd = [sys.executable, "-c", ENTRY] + argv
    log_path = os.path.join(inv, "stderr.txt")
    start, end, cpu, rss, rc = spawn(cmd, ctx.env, log_path)
    result = {"wall_s": end - start, "cpu_s": cpu, "peak_rss_mb": rss, "misses": [], "observed": {}}
    if rc != 0:
        with open(log_path) as fh:
            tail = fh.read().strip().splitlines()[-1:]
        result["misses"].append(f"exit code {rc}: {' '.join(tail)}")
    else:
        try:
            result["observed"] = observe(ctx.wl, out_dir)
        except (OSError, KeyError, IndexError, ValueError, struct.error) as exc:
            result["misses"].append(f"unreadable outputs: {exc!r}")
        if ctx.reference is not None:
            result["misses"] += gate(result["observed"], ctx.reference)
        digest = digest_tree(out_dir)
        if ctx.first_digest is None:
            ctx.first_digest = digest
        elif digest != ctx.first_digest:
            result["misses"].append("output files differ from the run's first invocation")
        if traced:
            try:
                layers = layer_metrics(ctx.layer_names, span_dir, start, end, ctx.wl.jobs)
            except (OSError, EOFError, KeyError, ValueError, pickle.UnpicklingError) as exc:
                result["misses"].append(f"unreadable spans: {exc!r}")
            else:
                result["layers"] = layers
                result["misses"] += trace_misses(ctx.wl, layers)
    shutil.rmtree(inv)
    return result


# ------------------------------------------------------------------ reporting


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _lscpu_caches() -> dict:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    caches = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip().split()[0]] = value.strip()
    return caches


def _git_sha(root: str):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def environment_block(root: str, wl: Workload, seed: int, probe: dict) -> dict:
    src_hash = hashlib.sha256()
    pkg = os.path.join(root, "src", "simkbm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": _git_sha(root),
        "src_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": probe.get("numpy"),
        "scipy": probe.get("scipy"),
        "thread_pin": {var: "1" for var in THREAD_VARS},
        "caches": _lscpu_caches(),
        "workload": wl.name,
        "program_seed": seed,
        "config": wl.config(),
        "working_set_mb_computed": wl.working_set_mb_computed(),
    }


def measure(ctx: Context, trace: int, seconds: float, probe: dict) -> dict:
    """Repeat rounds of invocations until the next round would end after `seconds`.

    A --trace 0 round is a setup probe and an untraced invocation; a --trace 1
    round is an untraced and a traced invocation.  `probe` is the setup probe
    that already ran.
    """
    deadline = time.perf_counter() + seconds
    samples = {"setup_s": [probe["setup_s"]]}
    misses = []
    attempted, failed, rounds = 1, 0, 0
    while True:
        t0 = time.perf_counter()
        if trace:
            plain, traced = invoke(ctx, traced=False), invoke(ctx, traced=True)
            batch = [plain, traced]
            samples.setdefault("_plain_wall", []).append(plain["wall_s"])
            samples.setdefault("_traced_wall", []).append(traced["wall_s"])
            for name, value in traced.get("layers", {}).items():
                samples.setdefault(name, []).append(value)
        else:
            if rounds:
                extra = setup_probe(ctx)
                attempted += 1
                if "error" in extra:
                    failed += 1
                    misses.append(f"setup probe: {extra['error']}")
                else:
                    samples["setup_s"].append(extra["setup_s"])
            batch = [invoke(ctx, traced=False)]
            for key in ("wall_s", "cpu_s", "peak_rss_mb"):
                samples.setdefault(key, []).append(batch[0][key])
        for inv in batch:
            attempted += 1
            if inv["misses"]:
                failed += 1
                misses += inv["misses"]
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_INVOCATIONS[trace] and now + (now - t0) > deadline:
            break
    if trace:
        samples["trace.overhead"] = [
            statistics.median(samples["_traced_wall"]) / statistics.median(samples["_plain_wall"]) - 1.0
        ]
    return {"attempted": attempted, "failed": failed, "samples": samples, "misses": misses}


def summarize(spec: dict, measured: dict, trace: int):
    """Human-readable lines (median, quartiles, sample count per metric) and the result object."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    samples = measured["samples"]
    lines, metrics = [], {}
    for m in wanted:
        # A metric with no sample (every traced invocation failed) reads 0.
        values = samples.get(m["name"]) or [0.0]
        q1, med, q3 = _quartiles(values)
        lines.append(
            f"{m['name']:<52} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
            f"n {len(values)} {m['unit']}"
        )
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
    attempted, failed = measured["attempted"], measured["failed"]
    lines.append(f"fail_rate {failed / attempted:.4f} ({failed} of {attempted} invocations)")
    lines += [f"MISS {miss}" for miss in measured["misses"][:20]]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "simkbm", "cli.py")):
        print(f"perfbench: no simkbm sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    with open(REFERENCE) as fh:
        references = json.load(fh)
    # The build: byte-compile the package so no invocation pays for it.
    compileall.compile_dir(src, quiet=1)

    wl = WORKLOADS[args.workload]
    seed = args.seed % REFERENCE_SEEDS
    layer_names = [m["name"] for m in spec["per_layer"]]
    ctx = make_context(root, wl, seed, reference_for(references, wl, seed), layer_names)
    try:
        probe = setup_probe(ctx)
        if "error" in probe or not os.path.abspath(probe["package_file"]).startswith(src + os.sep):
            print(f"perfbench: setup probe failed or imported simkbm from elsewhere: {probe}", file=sys.stderr)
            return 2
        print("env " + json.dumps(environment_block(root, wl, seed, probe), sort_keys=True))
        measured = measure(ctx, args.trace, args.seconds, probe)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(ctx.work))
        except OSError:
            pass
    lines, result = summarize(spec, measured, args.trace)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
