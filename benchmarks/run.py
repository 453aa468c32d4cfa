"""End-to-end benchmark of the casino-ewac command line.

    python3 benchmarks/run.py --workload short-paths --seed 1 --seconds 45 --trace 0

One invocation runs one workload (see workloads.py) in this fresh,
single-threaded process.  A single client calls ``casino_ewac.cli.main``
in-process in a closed loop, one round of jobs after another, until
``--seconds`` have passed; every job writes to a file with ``--out`` and
its output is checked outside the timed region (checks.py).

With ``--trace 0`` the result holds the end-to-end metrics:

* ``setup_s``: median over fresh processes of importing ``casino_ewac``
  and generating the workload's inputs, timed from outside the process.
* ``periods_per_s``: analysed periods (from the inputs) over the summed
  wall time of the jobs.
* ``peak_rss_mb``: peak resident set of this process.

Per-command latencies (median, sample count, tail percentile) and the
share of failed jobs are in the details line; they are not result metrics
because no subcommand runs in every workload.

With ``--trace 1`` untraced and traced rounds alternate, and the result
holds the per-layer metrics of layer_trace.py, per traced round, plus the
tracing overhead.  ``--smoke`` runs the same code at tiny sizes.

Standard output ends with two JSON lines: the details (per-command
latencies, failures, layer shares, environment) and the result object.
The process exits non-zero, printing no result, when the checkout holds no
``src/casino_ewac``.
"""

import os

# One thread per pool: pinned before numpy loads its BLAS.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layer_trace  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60


def load_program():
    """Import casino_ewac from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "casino_ewac" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'casino_ewac'} not found; "
                 "run from the root of a casino-ewac checkout")
    sys.path.insert(0, str(SRC))
    import casino_ewac
    import casino_ewac.cli  # noqa: F401  (the benchmark calls cli.main)
    return casino_ewac


class Client:
    """Runs rounds of jobs and keeps the counts and timings of all of them."""

    def __init__(self, program, jobs):
        self.program = program
        self.jobs = jobs
        self.verdicts = {}  # job key -> (digest of first output, error)
        self.attempted = 0
        self.failures = []
        self.latencies = {}  # command -> seconds per untraced call
        self.periods_per_round = sum(job.periods for job in jobs)

    def round(self, jobs=None, record=True):
        """One pass over the jobs; returns (busy seconds, bytes written)."""
        busy = 0.0
        written = 0
        for job in self.jobs if jobs is None else jobs:
            seconds, data, error = self._call(job)
            if error is None:
                error = self._check(job, data)
            self.attempted += 1
            if error is not None:
                self.failures.append(f"{job.key}: {error}")
            busy += seconds
            written += len(data or b"")
            if record:
                self.latencies.setdefault(job.command, []).append(seconds)
        return busy, written

    def _call(self, job):
        out = Path(job.out)
        out.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            code = self.program.cli.main(list(job.argv))
        except Exception as exc:  # a crashing job is a failed job
            seconds = time.perf_counter() - start
            traceback.print_exc(file=sys.stderr)
            return seconds, None, f"raised {exc!r}"
        seconds = time.perf_counter() - start
        if code != 0:
            return seconds, None, f"exit code {code}"
        try:
            return seconds, out.read_bytes(), None
        except OSError as exc:
            return seconds, None, f"no output: {exc}"

    def _check(self, job, data):
        """Verify a job's first output; later outputs must repeat its bytes."""
        digest = hashlib.sha256(data).digest()
        if job.key not in self.verdicts:
            try:
                job.verify(data)
                error = None
            except Exception as exc:  # any error reading the output fails it
                error = f"{type(exc).__name__}: {exc}"
            self.verdicts[job.key] = (digest, error)
        first, error = self.verdicts[job.key]
        if digest != first:
            return "output differs from the first run of this job"
        return error


class Deadline:
    """Ends a run at the lap boundary nearest to ``seconds`` after start."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.start = self.last = time.perf_counter()
        self.laps = []

    def lap(self):
        now = time.perf_counter()
        self.laps.append(now - self.last)
        self.last = now

    def another(self):
        """True for the first lap and while the next would mostly fit."""
        if not self.laps:
            return True
        elapsed = self.last - self.start
        return elapsed + statistics.fmean(self.laps) / 2 < self.seconds


def latency_summary(samples):
    """Median, and the highest percentile with at least 10 samples beyond it."""
    summary = {"n": len(samples), "median_s": statistics.median(samples)}
    for pct in (99.9, 99.0, 90.0, 50.0):
        if len(samples) * (100.0 - pct) / 100.0 >= 10:
            summary[f"p{pct:g}_s"] = float(np.percentile(samples, pct))
            break
    return summary


def time_setup(args, workdir):
    """Wall time of one fresh process that imports and generates inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(workdir)] + (["--smoke"] if args.smoke else [])
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: set-up process exited with {proc.returncode}")
    return seconds


def machine_spread(reps=5):
    """Wall and CPU time of a fixed, program-independent kernel, repeated."""
    walls, cpus = [], []
    for _ in range(reps):
        wall, cpu = time.perf_counter(), time.process_time()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        x = np.arange(1.0, 50_001.0)
        for _ in range(50):
            x = np.sqrt(x * x + 1.0)
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
    return {name: {"min": min(v), "median": statistics.median(v), "max": max(v)}
            for name, v in (("wall_s", walls), ("cpu_s", cpus))}


def git_commit():
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(load_avg):
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "load_avg_at_start": load_avg,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine_spread": machine_spread(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for testing the benchmark itself")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure(args, workdir):
    """Set up, run the workload and return (details, result)."""
    load_avg = os.getloadavg()
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    samples = 2 if args.smoke else SETUP_SAMPLES
    setup = [time_setup(args, workdir / f"setup{i}") for i in range(samples)]

    program = load_program()
    inputs = workdir / "inputs"
    inputs.mkdir()
    jobs = workloads.WORKLOADS[args.workload](program, inputs, args.seed, sizes)
    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "smoke": args.smoke, "setup_s_samples": setup,
               "environment": environment(load_avg)}
    client = Client(program, jobs)
    clock = Deadline(args.seconds)

    if args.trace:
        tracer = layer_trace.Tracer()
        plain, traced, written = [], [], 0
        while clock.another():
            plain.append(client.round()[0])
            with tracer:
                busy, out_bytes = client.round(record=False)
            traced.append(busy)
            written += out_bytes
            clock.lap()
        # One more pass over the sampling jobs measures sample_wac's peak
        # allocation, outside the timed rounds.
        alloc_tracer = layer_trace.Tracer(measure_alloc=True)
        with alloc_tracer:
            client.round([job for job in jobs if job.command == "wac-dist"],
                         record=False)
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        metrics = layer_trace.layer_metrics(tracer, len(traced), written,
                                            overhead, alloc_tracer)
        details["shares"] = layer_trace.shares(tracer)
        details["rounds"] = {"untraced": len(plain), "traced": len(traced)}
    else:
        rounds = []
        while clock.another():
            rounds.append(client.round()[0])
            clock.lap()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "periods_per_s": {"value": len(rounds) * client.periods_per_round
                              / sum(rounds), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        details["round_busy_s"] = rounds

    failed = len(client.failures)
    details["failed_frac"] = failed / client.attempted
    details["failures"] = client.failures[:20]
    details["per_command"] = {cmd: latency_summary(s)
                              for cmd, s in sorted(client.latencies.items())}
    result = {"correct": failed == 0, "attempted": client.attempted,
              "failed": failed, "metrics": metrics}
    return details, result


def setup_only(args):
    """Body of a set-up timing process: import and generate inputs."""
    program = load_program()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workloads.WORKLOADS[args.workload](program, workdir, args.seed, sizes)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        setup_only(args)
        return
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            details, result = measure(args, Path(tmp))
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(details))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
