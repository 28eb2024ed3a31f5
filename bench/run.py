"""gofknots benchmark: exact-verdict throughput and latency, end to end and
layer by layer.

Run from the root of a source checkout; gofknots is imported from ``src/``
without an install:

    python3 bench/run.py --workload conjugacy --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload cli --seed 1 --seconds 55 --trace 1
    python3 bench/run.py --workload closure-mix --seed 1 --seconds 0 --profile burau

``BENCHMARK.json`` gates the conjugacy and cli workloads.  grid-scan and
closure-mix run the same way, but their figures swing more than the gate's
bounds between runs on a shared host, so they serve for looking, not for
claims.

A verdict is one grid cell, one closure decision, one conjugacy decision
or one CLI call.  The run is a closed loop with one caller: it runs whole
passes of seeded inputs (see ``inputs.py``) until ``--seconds`` have gone
by, times each verdict on its own, and checks it against ``oracle.py``.
Only the verdict call is timed; generating and checking are not.  A run
holds at least 100 verdicts, and the timing metrics pool the verdicts of
all its passes (``samples`` in the metadata).  ``verdicts_per_s`` is those
verdicts over their summed wall time.  ``peak_rss_mb`` is read after the
first pass; for ``cli`` it is the largest CLI process.  ``setup_s`` is the
median of at least five set-ups, repeated until a second has gone by, each
importing gofknots afresh and generating the first pass with its answers.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
pass twice, once as above and once with a wrapper around every public
function of the six layer modules (``spans.py``), and prints the per-layer
metrics, including the tracing overhead.  ``--profile LAYER``
runs the first pass under cProfile and prints the statistics of that
layer's functions (``all`` for the whole package) instead of a result.

The last line of stdout is the result as JSON; the line before it holds
the run's metadata and input sizes.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import importlib
import io
import json
import math
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import traceback
from collections import namedtuple
from pathlib import Path
from time import perf_counter

import inputs
from spans import LAYERS, METRICS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0  # short set-ups are repeated for a steadier median
STARTUP_REPEATS = 5
CLI_TIMEOUT_S = 60
MAX_REPORTED_FAILURES = 5
MIN_VERDICTS = 100  # per run: ten lie beyond the 90th percentile

END_TO_END = (
    # name, unit, better
    ("verdicts_per_s", "1/s", "higher"),
    ("verdict_ms_p50", "ms", "lower"),
    ("verdict_ms_p90", "ms", "lower"),
    ("correct_share", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

# ---- the package under test ---------------------------------------------


def load_package():
    """Import gofknots and its layer modules afresh from ``src/``."""
    for name in [n for n in sys.modules if n == "gofknots" or n.startswith("gofknots.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("gofknots")
    if Path(package.__file__).resolve().parent != SRC / "gofknots":
        raise ImportError(f"gofknots imported from {package.__file__}, not from {SRC}")
    return package, {layer: importlib.import_module(f"gofknots.{layer}") for layer in LAYERS}


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    # The warm-up call fills the bytecode cache, as a user's repeated calls would.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


# ---- verdict calls and their checks ---------------------------------------
# A call returns the program's answer; a check returns None when the answer
# agrees with the oracle and a description of the mismatch otherwise.


def call_grid(mods, case):
    k, n = case[0], case[1]
    return mods["classify"].scan_table([k], [n])


def check_grid(case, out):
    k, n, form, label = case
    if len(out) != 1:
        return f"scan of one cell returned {len(out)} results"
    r = out[0]
    got_form = None if r.two_bridge is None else (r.two_bridge.alpha, r.two_bridge.beta_canonical)
    got_lens = None if r.lens_space is None else (r.lens_space.p, r.lens_space.q_canonical)
    got = ((r.k, r.n), r.is_two_bridge, got_form, got_lens, str(r.label))
    want = ((k, n), form is not None, form, form, label)
    return None if got == want else f"cell {(k, n)}: got {got}, want {want}"


def call_closure(mods, case):
    return mods["classify"].is_two_bridge_closure(mods["words"].parse_braid(case[0]))


def check_closure(case, out):
    expected = case[1]
    got = None if out is None else (out[0].alpha, out[0].beta_canonical)
    return None if got == expected else f"closure of {case[2]} letters: got {got}, want {expected}"


def call_conjugacy(mods, case):
    parse = mods["words"].parse_braid
    return mods["modular"].are_conjugate(parse(case[0]), parse(case[1]))


def check_conjugacy(case, out):
    return None if out is case[2] else f"pair of {case[3]} letters: got {out!r}, want {case[2]}"


CliOutput = namedtuple("CliOutput", "code stdout")


def call_cli(mods, case):
    done = subprocess.run(
        [sys.executable, "-m", "gofknots.cli", *case[0]],
        cwd=ROOT,
        env=cli_env(),
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    return CliOutput(done.returncode, done.stdout)


def call_cli_in_process(mods, case):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = mods["cli"].main(list(case[0]))
        except SystemExit as exc:  # argparse refuses the arguments
            code = exc.code
    return CliOutput(code, stdout.getvalue())


def check_cli(case, out):
    argv, lines, count = case
    got = out.stdout.splitlines()
    missing = [line for line in lines if line not in got]
    if out.code != 0 or missing or len(got) != count:
        return f"{argv[0]}: exit {out.code}, {len(got)} lines, missing {missing[:3]}"
    return None


WORKLOADS = {
    # name -> (call, in-process call for the traced run, check)
    "grid-scan": (call_grid, call_grid, check_grid),
    "closure-mix": (call_closure, call_closure, check_closure),
    "conjugacy": (call_conjugacy, call_conjugacy, check_conjugacy),
    "cli": (call_cli, call_cli_in_process, check_cli),
}


# ---- measurement ------------------------------------------------------------


class Run:
    """Verdict counts and the failures seen so far in one benchmark run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.output_bytes = 0
        self.peak_rss_kib = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAIL {self.workload}: {message}", file=sys.stderr)

    def run_pass(self, mods, batch, call, check) -> list[float]:
        """Time each verdict of ``batch``; returns the latencies in seconds."""
        latencies = []
        # Answers are kept until the pass ends, as a scan keeps its table,
        # so peak memory reflects how the package represents its results.
        answers = []
        for case in batch.cases:
            start = perf_counter()
            try:
                out = call(mods, case)
            except Exception:
                out, problem = None, traceback.format_exc()
            else:
                problem = None
            latencies.append(perf_counter() - start)
            self.attempted += 1
            answers.append(out)
            if problem is None:
                problem = check(case, out)
            if problem is not None:
                self.fail(problem)
            if isinstance(out, CliOutput):
                self.output_bytes += len(out.stdout.encode())
        return latencies

    def measure(self, mods, seed, seconds, first, call, check, tracer=None):
        """Whole passes until ``seconds`` have gone by and the passes hold
        at least MIN_VERDICTS verdicts.

        Returns [(pass sizes, latencies)] of the untraced runs and the list of
        traced latencies, which is empty without a tracer.  With one, every
        pass runs a second time under it, alternately after and before its
        untraced run, so that neither side always runs first.
        """
        passes, traced = [], []
        verdicts = 0
        start = perf_counter()
        while verdicts < MIN_VERDICTS or perf_counter() - start < seconds:
            batch = first if not passes else inputs.PASSES[self.workload](seed, len(passes))
            if tracer is None:
                latencies = self.run_pass(mods, batch, call, check)
                if not passes:
                    # Peak memory after a fixed amount of work, so that a
                    # faster program, which runs more passes, is not charged
                    # for the heap growing over them.
                    self.peak_rss_kib = peak_rss_kib(self.workload, batch)
            else:
                for with_trace in (False, True) if len(passes) % 2 == 0 else (True, False):
                    if with_trace:
                        with tracer:
                            traced.append(self.run_pass(mods, batch, call, check))
                    else:
                        latencies = self.run_pass(mods, batch, call, check)
            passes.append((batch.sizes, latencies))  # the batch itself is dropped
            verdicts += len(latencies)
        return passes, traced


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * share) - 1)]


# Runs gofknots.cli as ``-m`` does and writes the peak resident set of its
# own process to stderr.  A child's ru_maxrss cannot serve: it also counts the
# memory of the parent the child was forked from.
CLI_PEAK_PROBE = """
import runpy, sys
try:
    runpy.run_module("gofknots.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))
"""


def peak_rss_kib(workload: str, batch) -> int:
    """Peak resident set of the program: this process, or for the cli
    workload the largest CLI process over the longest call of each command
    in ``batch``."""
    if workload != "cli":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak = 0
    by_length = sorted((case[0] for case in batch.cases), key=lambda argv: sum(map(len, argv)))
    for argv in {argv[0]: argv for argv in by_length}.values():
        done = subprocess.run(
            [sys.executable, "-c", CLI_PEAK_PROBE, *argv],
            cwd=ROOT,
            env=cli_env(),
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        peak = max(peak, int(done.stderr.split()[-2]))  # "VmHWM: <n> kB"
    return peak


def end_to_end(run, passes, setup_s):
    latencies = [t for _, lat in passes for t in lat]
    return {
        "verdicts_per_s": len(latencies) / sum(latencies),
        "verdict_ms_p50": statistics.median(latencies) * 1e3,
        "verdict_ms_p90": percentile(latencies, 0.9) * 1e3,
        "correct_share": 1 - run.failed / run.attempted,
        "peak_rss_mb": run.peak_rss_kib / 1024,
        "setup_s": setup_s,
    }


def cli_startup_s() -> float:
    """Median wall time of a fresh interpreter that only imports gofknots.cli."""
    argv = [sys.executable, "-c", "import gofknots.cli"]
    times = []
    for _ in range(STARTUP_REPEATS + 1):  # the first call fills the bytecode cache
        start = perf_counter()
        subprocess.run(argv, cwd=ROOT, env=cli_env(), check=True, timeout=CLI_TIMEOUT_S)
        times.append(perf_counter() - start)
    return statistics.median(times[1:])


def per_layer(run, tracer, passes, traced):
    """Per-layer metrics from the traced runs, and the tracing overhead."""
    plain_s = sum(sum(lat) for _, lat in passes)
    traced_s = sum(sum(lat) for lat in traced)
    in_cli = run.workload == "cli"
    return tracer.report(
        {
            "verdicts": sum(len(lat) for lat in traced),
            "cli.startup_s": cli_startup_s(),
            "cli.main_s": statistics.median(t for _, lat in passes for t in lat) if in_cli else 0.0,
            "cli.output_bytes": run.output_bytes / run.attempted if in_cli else 0.0,
            "trace.overhead_share": (traced_s - plain_s) / plain_s,
        }
    )


# ---- run metadata ------------------------------------------------------------


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gofknots").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", metavar="LAYER", choices=LAYERS + ("all",))
    args = parser.parse_args(argv)

    if not (SRC / "gofknots" / "__init__.py").is_file():
        print(f"error: no gofknots sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Import from the bytecode cache, as an installed package does, whatever
    # PYTHONDONTWRITEBYTECODE says; the first of the set-ups fills it.
    sys.dont_write_bytecode = False
    load_start = os.getloadavg()
    make_pass = inputs.PASSES[args.workload]
    setup_times = []

    def set_up():
        start = perf_counter()
        package, mods = load_package()
        first = make_pass(args.seed, 0)
        setup_times.append(perf_counter() - start)
        return package, mods, first

    package, mods, first = set_up()

    call, call_in_process, check = WORKLOADS[args.workload]
    run = Run(args.workload)
    if args.profile:
        profiler = cProfile.Profile()
        profiler.runcall(run.run_pass, mods, first, call_in_process, check)
        where = "gofknots" if args.profile == "all" else rf"gofknots[/\\]{args.profile}\.py"
        pstats.Stats(profiler, stream=sys.stdout).sort_stats("tottime").print_stats(where)
        return 0 if run.failed == 0 else 1

    if args.trace:
        tracer = Tracer(package, mods)
        passes, traced = run.measure(mods, args.seed, args.seconds, first, call_in_process, check, tracer)
        metrics = per_layer(run, tracer, passes, traced)
        samples = sum(map(len, traced))
    else:
        if args.workload == "cli":
            call(mods, first.cases[0])  # warm-up: fills the bytecode cache
        passes, _ = run.measure(mods, args.seed, args.seconds, first, call, check)
        # The other set-ups come after the measurement, whose peak memory
        # should not count the modules they leave behind.
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            set_up()
        metrics = end_to_end(run, passes, statistics.median(setup_times))
        samples = sum(len(lat) for _, lat in passes)

    sizes = {}
    for pass_sizes, _ in passes:
        for key, value in pass_sizes.items():
            sizes[key] = sizes.get(key, 0) + value
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "samples": samples,
        "sizes": sizes,
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }
    print(json.dumps({"meta": meta}))
    units = {name: unit for name, unit, _ in END_TO_END}
    units.update((metric.name, metric.unit) for metric in METRICS)
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
