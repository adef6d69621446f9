"""End-to-end benchmark of mcoutput: the demo, analyze and stopping workloads.

    python3 perfbench/run.py --workload demo|analyze|stopping --seed N
                             --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a checkout; the program under test is always the
checkout's own ``src/mcoutput``. Each workload repeats its op until
``--seconds`` have passed, checks every op's output against numpy-only
reference values, prints each metric with its unit and sample count, and
ends with one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs every op
twice, plain and traced, asserts that both give byte-identical outputs and
reports the per-layer metrics of the traced run plus the tracing overhead.
``--smoke`` shrinks every input so the whole run takes seconds.

Generated inputs are cached per seed, and every op writes its artifacts,
under ``perfbench/.work`` (or ``--work-dir``).
"""

import os

# Pin the BLAS/OpenMP pools before numpy loads, here and in every child.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

WORKLOADS = ("demo", "analyze", "stopping")
# every process the run starts is killed once the run has lasted this
# long, so a hung op cannot hold it past the 180 s a run is allowed
RUN_DEADLINE_S = 170.0
SIZES = {
    "full": {
        "setup_repeats": 5,
        "demo_args": [],
        "analyze": {"n": 1_000_000, "p": 10, "rho": 0.9},
    },
    "smoke": {
        "setup_repeats": 1,
        "demo_args": ["--max-n", "8000", "--grid-points", "21"],
        "analyze": {"n": 2_000, "p": 3, "rho": 0.5},
    },
}


class Run:
    """One benchmark run: settings, op records and the child environment."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.size_name = "smoke" if args.smoke else "full"
        self.size = SIZES[self.size_name]
        self.work = Path(args.work_dir).resolve()
        self.scratch = self.work / "ops" / f"{args.workload}-{os.getpid()}"
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.ops = []
        self.layers = []
        self.overheads = []
        self.spans = []

    def python(self, *argv):
        return [sys.executable, *map(str, argv)]

    def child(self, argv, stdout=None, stderr=None):
        return run_child(argv, self.env, self.deadline, stdout, stderr)

    def done(self, start, min_ops):
        measured = sum(1 for op in self.ops if not op.get("traced"))
        if self.size_name == "smoke":
            return measured >= min_ops
        return measured >= min_ops and time.monotonic() - start >= self.seconds


def child_env():
    # op processes may cache bytecode, as an installed package does; the
    # first cold import in a fresh checkout pays for it, the median not
    unset = ("MCOUTPUT_OUT_DIR", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = str(SRC)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    return env


def run_child(argv, env, deadline, stdout=None, stderr=None):
    """Run a process to completion; returns (wall s, peak RSS MB, exit code).

    Peak RSS comes from the kernel's rusage for that process alone. The
    process is killed if it is still running at ``deadline`` (monotonic).
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                            stdout=stdout or subprocess.DEVNULL,
                            stderr=stderr or subprocess.DEVNULL)
    timer = threading.Timer(deadline - time.monotonic(), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.waitpid(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def attempt(fn, *args):
    """Run one op; an exception marks it failed instead of ending the run."""
    try:
        return {"ok": True, **fn(*args)}
    except (inputs.CheckError, OSError, ValueError, KeyError, TypeError) as exc:
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


# ---------------------------------------------------------------------------
# set-up: cold import of the CLI


def measure_setup(run):
    """Cold ``import mcoutput.cli`` times; also checks which package loads.

    The first import in a fresh checkout also writes the bytecode cache;
    the median over the repeats keeps that one-off cost out.
    """
    cmd = run.python("-c", "import mcoutput.cli; print(mcoutput.cli.__file__)")
    where = run.work / "which.txt"
    times = []
    for _ in range(run.size["setup_repeats"]):
        with open(where, "w") as fh:
            wall, _, code = run.child(cmd, stdout=fh)
        loaded = Path(where.read_text().strip() or ".").resolve()
        if code != 0 or SRC not in loaded.parents:
            raise SystemExit(f"error: cannot import mcoutput from {SRC}")
        times.append(wall)
    return times


def measure_import_ms(run):
    """Median per-module import time over fresh ``-X importtime`` runs."""
    cmd = run.python("-X", "importtime", "-c", "import mcoutput.cli")
    samples = []
    for _ in range(run.size["setup_repeats"]):
        log = run.work / "importtime.txt"
        with open(log, "w") as fh:
            run.child(cmd, stderr=fh)
        samples.append(tracing.import_ms(log.read_text()))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# ---------------------------------------------------------------------------
# demo: `mcoutput demo` as a child process, one op per demo seed


def demo_op(run, demo_seed, out_dir, traced):
    argv = ["demo", "--seed", demo_seed, "--out-dir", out_dir,
            *run.size["demo_args"]]
    spans_path = out_dir.with_suffix(".spans.json")
    if traced:
        cmd = run.python(CHILD, "cli", "--spans", spans_path, "--", *argv)
    else:
        cmd = run.python("-m", "mcoutput.cli", *argv)
    wall, rss, code = run.child(cmd)
    report_bytes = (out_dir / "demo_report.json").read_bytes()
    report = json.loads(report_bytes)
    expected = 0 if report["terminated"] else 2
    inputs.check(code == expected, f"exit code {code}, expected {expected}")
    files = sorted(p for p in out_dir.iterdir() if p.is_file())
    names = {p.name for p in files}
    for name in report["files"].values():
        inputs.check(name in names, f"report names missing file {name}")
    chain = np.loadtxt(out_dir / "demo_chain.csv", delimiter=",", skiprows=1,
                       ndmin=2)
    n = chain.shape[0]
    inputs.check(n == report["n"], f"chain has {n} rows, report says {report['n']}")
    ref = inputs.reference_ess(chain, inputs.even_sqrt_batch(n))
    inputs.check_close("demo ess", report["ess"], ref)
    digest = hashlib.sha256()
    for p in files:
        digest.update(p.name.encode() + b"\0" + p.read_bytes())
    op = {"wall": wall, "rss": rss, "rows": n, "digest": digest.hexdigest(),
          "report_sha": hashlib.sha256(report_bytes).hexdigest(),
          "bytes_written": sum(p.stat().st_size for p in files)}
    if traced:
        op["trace"] = json.loads(spans_path.read_text())
    return op


def run_demo_workload(run):
    base = run.seed * 1000
    start = time.monotonic()
    i = 0
    while not run.done(start, min_ops=2):
        # op 1 repeats op 0's seed: equal seeds must give equal report bytes
        demo_seed = base + (i - 1 if i else 0)
        pair = []
        for traced in (False, True) if run.trace else (False,):
            out_dir = run.scratch / f"demo-{i}-{int(traced)}"
            op = attempt(demo_op, run, demo_seed, out_dir, traced)
            op.update(seed=demo_seed, traced=traced)
            shutil.rmtree(out_dir, ignore_errors=True)
            pair.append(op)
        run.ops.extend(pair)
        if i == 1 and pair[0]["ok"] and run.ops[0]["ok"]:
            if pair[0]["report_sha"] != run.ops[0]["report_sha"]:
                pair[0].update(ok=False, error="same seed, different report bytes")
        if run.trace:
            record_traced_pair(run, *pair)
        i += 1


# ---------------------------------------------------------------------------
# analyze: `mcoutput analyze` as a child process on a generated chain


def analyze_input(run):
    size = run.size["analyze"]
    x = inputs.ar1_path(run.seed, size["n"], size["p"], size["rho"], 0.0)
    key = f"ar1-n{size['n']}-p{size['p']}-rho{size['rho']}-seed{run.seed}"
    return inputs.cached_csv(run.work / "inputs", key, x), x


def analyze_op(run, csv_path, x, out_path, traced):
    argv = ["analyze", csv_path, "--out", out_path]
    spans_path = out_path.with_suffix(".spans.json")
    if traced:
        cmd = run.python(CHILD, "cli", "--spans", spans_path, "--", *argv)
    else:
        cmd = run.python("-m", "mcoutput.cli", *argv)
    wall, rss, code = run.child(cmd)
    report_bytes = out_path.read_bytes()
    report = json.loads(report_bytes)
    expected = 0 if report["terminated"] else 2
    inputs.check(code == expected, f"exit code {code}, expected {expected}")
    inputs.check(report["input"]["n"] == x.shape[0], "row count differs")
    inputs.check(report["input"]["p"] == x.shape[1], "column count differs")
    inputs.check(report["config"]["estimator"] == "batch-means",
                 "unexpected estimator")
    inputs.check_close("analyze mean", report["mean"], x.mean(axis=0),
                       scale=np.abs(x).mean(axis=0))
    ref = inputs.reference_ess(x, report["config"]["batch_size"])
    inputs.check_close("analyze ess", report["ess"], ref)
    op = {"wall": wall, "rss": rss, "rows": x.shape[0],
          "digest": hashlib.sha256(report_bytes).hexdigest(),
          "bytes_written": len(report_bytes)}
    out_path.unlink()
    if traced:
        op["trace"] = json.loads(spans_path.read_text())
    return op


def run_analyze_workload(run):
    csv_path, x = analyze_input(run)
    start = time.monotonic()
    i = 0
    while not run.done(start, min_ops=1):
        pair = []
        for traced in (False, True) if run.trace else (False,):
            out_path = run.scratch / f"analyze-{i}-{int(traced)}.json"
            op = attempt(analyze_op, run, csv_path, x, out_path, traced)
            op.update(traced=traced)
            pair.append(op)
        # one input per run: every op must write the same report bytes
        first = run.ops[0] if run.ops else pair[0]
        for op in pair:
            if op["ok"] and first["ok"] and op["digest"] != first["digest"]:
                op.update(ok=False, error="same input, different report bytes")
        run.ops.extend(pair)
        if run.trace:
            record_traced_pair(run, *pair)
        i += 1


def record_traced_pair(run, plain, traced):
    if not (plain["ok"] and traced["ok"]):
        return
    if plain["digest"] != traced["digest"]:
        traced.update(ok=False, error="traced output differs from untraced")
        return
    trace = traced.pop("trace")
    run.spans.append(trace["spans"])
    run.layers.append(tracing.layer_metrics(
        trace["spans"], trace["counters"], traced["bytes_written"]))
    run.overheads.append(traced["wall"] - plain["wall"])


# ---------------------------------------------------------------------------
# stopping: stopping_controller in a worker process, one op per path seed


def run_stopping_workload(run):
    out = run.scratch / "stopping.json"
    err = run.scratch / "stopping.err"
    with open(err, "w") as fh:
        _, rss, code = run.child(
            run.python(CHILD, "stopping", "--seed", run.seed,
                       "--seconds", run.seconds, "--trace", int(run.trace),
                       "--size", run.size_name, "--out", out),
            stderr=fh,
        )
    if code != 0:
        sys.stderr.write(err.read_text())
        raise SystemExit(f"error: stopping worker exited with {code}")
    result = json.loads(out.read_text())
    for op in result["ops"]:
        op.setdefault("traced", False)
        op["rss"] = rss
    run.ops.extend(result["ops"])
    run.layers.extend(result["layers"])
    run.overheads.extend(result["overheads"])


# ---------------------------------------------------------------------------
# results


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
    }


def end_to_end_metrics(run, setup):
    plain = [op for op in run.ops if not op["traced"]]
    ok = [op for op in plain if op["ok"]]
    # a failed op misses every timing: it sorts as infinitely slow
    walls = sorted(op["wall"] if op["ok"] else float("inf") for op in plain)
    wall = statistics.median(walls)
    if not ok or wall == float("inf"):
        raise SystemExit("error: most ops failed; no metrics to report")
    # per-op rate, so a seed that needs a longer chain is not a slowdown
    rates = [op["rows"] / op["wall"] if op["ok"] else 0.0 for op in plain]
    return {
        "wall_s": (wall, len(plain)),
        "draws_per_s": (statistics.median(rates), len(plain)),
        "peak_rss_mb": (statistics.median(op["rss"] for op in ok), len(ok)),
        "setup_s": (statistics.median(setup), len(setup)),
    }


def per_layer_metrics(run, import_ms):
    values = {}
    for name in declared_units("per_layer"):
        if name in import_ms:
            values[name] = (import_ms[name], run.size["setup_repeats"])
        elif name == "trace.overhead_s":
            values[name] = (statistics.median(run.overheads), len(run.overheads))
        else:
            values[name] = (statistics.median(m[name] for m in run.layers),
                            len(run.layers))
    return values


def declared_units(kind):
    """Units of the ``kind`` metrics BENCHMARK.json declares, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def report(run, metrics, env):
    unit = declared_units("per_layer" if run.trace else "end_to_end")
    plain = [op for op in run.ops if not op["traced"]]
    attempted = len(run.ops)
    failed = sum(1 for op in run.ops if not op["ok"])
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload={run.workload} seed={run.seed} trace={int(run.trace)} "
          f"size={run.size_name} ops={len(plain)} attempted={attempted}")
    for op in run.ops:
        if not op["ok"]:
            print(f"FAILED op (seed {op.get('seed')}): {op['error']}")
    print(f"error_rate = {failed / attempted:.6g} (of {attempted} ops)")
    for name, (value, samples) in metrics.items():
        print(f"{name} = {value:.6g} {unit[name]} (median, n={samples})")
    results = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit[name]}
                    for name, (value, _) in metrics.items()},
    }
    out = run.work / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{run.workload}-seed{run.seed}-trace{int(run.trace)}-{run.size_name}"
    with open(out / f"{stem}.json", "w") as fh:
        json.dump({"environment": env, "result": results, "ops": run.ops,
                   "spans": run.spans}, fh)
    print(json.dumps(results))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and the fewest ops: checks the harness")
    parser.add_argument("--work-dir", default=str(HERE / ".work"))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mcoutput" / "__init__.py").is_file():
        sys.exit(f"error: no mcoutput package under {SRC}")
    run = Run(args)
    run.scratch.mkdir(parents=True, exist_ok=True)
    try:
        setup = measure_setup(run)
        import_ms = measure_import_ms(run) if run.trace else {}
        {
            "demo": run_demo_workload,
            "analyze": run_analyze_workload,
            "stopping": run_stopping_workload,
        }[run.workload](run)
        if run.trace:
            if not run.layers:
                sys.exit("error: no traced op succeeded")
            metrics = per_layer_metrics(run, import_ms)
        else:
            metrics = end_to_end_metrics(run, setup)
        report(run, metrics, environment())
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)


if __name__ == "__main__":
    main()
