"""Pipeline benchmark of sitelasso: synth -> run -> transfer, end to end.

Usage (from the repository root):

    python3 pipebench/run.py --workload fit --seed 1 --seconds 20 --trace 0

Each sitelasso command runs in its own child process, one after another,
as ``python -m sitelasso.cli`` with ``src`` on PYTHONPATH, ``workers = 1`` and
one BLAS thread. A run first sets up the workload's data several times
(``setup_s`` is the median), then repeats iterations of ``run`` + ``transfer``
until --seconds have passed since the first set-up, checking every iteration's outputs outside the
timed region (check.py). With --trace 0 it prints the end-to-end metrics;
with --trace 1 it also runs traced iterations (tracing.py) and prints the
per-layer metrics. The last line of standard output is one JSON object.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

from tracing import SELF_TIME, aggregate  # noqa: E402
from workloads import SITE_CODES, WORKLOADS, write_kv  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "run_peak_rss_mb": "MB",
    "transfer_s": "s",
    "transfer_peak_rss_mb": "MB",
}
RATIOS = {"lars.knots_per_path", "gridpredict.pixels_per_output"}
SETUP_REPS = 3  # set-ups per run; setup_s is their median
SHARE_OF_SECONDS_UNTRACED = 0.4  # of a traced run, spent on the untraced baseline


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name in RATIOS:
        return "ratio"
    if name.endswith("_bytes") or name == "artifacts.bytes_hashed":
        return "bytes"
    return "count"


def child_env():
    env = dict(os.environ)
    env.pop("SITELASSO_OUTPUT_DIR", None)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Bench:
    """One benchmark run: its work directory, commands and tallies."""

    def __init__(self, workload, seed, work=None):
        self.workload = workload
        self.seed = seed
        self.work = work or os.path.join(HERE, "work", f"{workload.name}-{seed}-{os.getpid()}")
        self.study = os.path.join(self.work, "study")
        self.target = os.path.join(self.work, "target")
        self.run_dir = os.path.join(self.work, "run")
        self.transfer_dir = os.path.join(self.work, "transfer")
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.synth_manifests = None
        os.makedirs(self.work)
        write_kv(self.cfg("study.cfg"), workload.study_spec())
        write_kv(self.cfg("target.cfg"), workload.target_spec())
        write_kv(self.cfg("run.cfg"), workload.run_config(seed, self.study))

    def cfg(self, name):
        return os.path.join(self.work, name)

    def command(self, args, spans=None):
        """Run one sitelasso command; returns (ok, wall seconds, peak RSS MB)."""
        if spans is None:
            argv = [sys.executable, "-m", "sitelasso.cli", *args]
        else:
            argv = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans, *args]
        log_path = os.path.join(self.work, "command.log")
        report = os.path.join(self.work, "command.report")
        self.attempted += 1
        with open(log_path, "wb") as log:
            subprocess.run(
                [sys.executable, "-S", os.path.join(HERE, "spawn.py"), report, *argv],
                stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=self.work,
                check=True,
            )
        with open(report, encoding="utf-8") as handle:
            wall, code, maxrss_kib = handle.read().split()
        if code != "0":
            self.failed += 1
            with open(log_path, encoding="utf-8", errors="replace") as log:
                tail = log.read()[-2000:]
            print(f"command {args[0]} exited {code}:\n{tail}", file=sys.stderr)
        return code == "0", float(wall), int(maxrss_kib) / 1024.0

    def setup(self, trace=False):
        """Write the study data and the transfer target; returns the wall time."""
        total = 0.0
        for name, out in (("study", self.study), ("target", self.target)):
            shutil.rmtree(out, ignore_errors=True)
            spans = self.cfg(f"spans_{name}.json") if trace else None
            ok, wall, _ = self.command(
                ["synth", self.cfg(f"{name}.cfg"), "--output-dir", out], spans
            )
            if not ok:
                raise SystemExit(f"set-up failed: synth {name}")
            total += wall
        manifests = []
        for out in (self.study, self.target):
            with open(os.path.join(out, "manifest.json"), "rb") as handle:
                manifests.append(handle.read())
        if self.synth_manifests is None:
            self.synth_manifests = manifests
        elif manifests != self.synth_manifests:
            self.failures.append("synth rerun with the same spec wrote different bytes")
        return total

    def iteration(self, trace=False):
        """One run + transfer; returns their timings, or None if one failed."""
        shutil.rmtree(self.run_dir, ignore_errors=True)
        shutil.rmtree(self.transfer_dir, ignore_errors=True)
        ok_run, run_s, run_rss = self.command(
            ["run", self.cfg("run.cfg"), "--output-dir", self.run_dir],
            self.cfg("spans_run.json") if trace else None,
        )
        if not ok_run:
            return None
        ok_tr, tr_s, tr_rss = self.command(
            ["transfer", self.run_dir, os.path.join(self.target, "points.csv"),
             "--output-dir", self.transfer_dir],
            self.cfg("spans_transfer.json") if trace else None,
        )
        if not ok_tr:
            return None
        start = time.perf_counter()
        self.check()
        print(f"run {run_s:.3f} s, transfer {tr_s:.3f} s, "
              f"check {time.perf_counter() - start:.3f} s", file=sys.stderr)
        return {"run_s": run_s, "run_peak_rss_mb": run_rss,
                "transfer_s": tr_s, "transfer_peak_rss_mb": tr_rss}

    def check(self):
        from check import Checker

        problems = Checker(
            study_dir=self.study, target_dir=self.target, run_dir=self.run_dir,
            transfer_dir=self.transfer_dir, site_codes=SITE_CODES, seed=self.seed,
        ).check()
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        self.failures.extend(problems)

    def traces(self):
        out = []
        for name in ("study", "target", "run", "transfer"):
            with open(self.cfg(f"spans_{name}.json"), encoding="utf-8") as handle:
                out.append(json.load(handle))
        return out


def loop(bench, until, trace=False):
    """Iterations until the clock reaches ``until`` (at least one)."""
    results = []
    while not results or time.perf_counter() < until:
        if trace:
            bench.setup(trace=True)
            result = bench.iteration(trace=True)
            if result is not None:
                result["layers"] = aggregate(bench.traces())
        else:
            result = bench.iteration()
        if result is None:
            if not results and bench.failed >= 3:
                raise SystemExit("no iteration completed")
            continue
        results.append(result)
    return results


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def end_to_end(bench, seconds):
    until = time.perf_counter() + seconds
    setups = [bench.setup() for _ in range(SETUP_REPS)]
    results = loop(bench, until)
    metrics = {"setup_s": statistics.median(setups)}
    for key in ("run_s", "run_peak_rss_mb", "transfer_s", "transfer_peak_rss_mb"):
        metrics[key] = median_of(results, key)
    print(f"{len(setups)} set-ups, {len(results)} iterations", file=sys.stderr)
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def per_layer(bench, seconds):
    start = time.perf_counter()
    bench.setup()
    untraced = loop(bench, start + seconds * SHARE_OF_SECONDS_UNTRACED)
    traced = loop(bench, start + seconds, trace=True)
    names = sorted(traced[0]["layers"][0])
    metrics = {name: statistics.mean(r["layers"][0][name] for r in traced) for name in names}
    for r in traced:
        layers, command_s, _ = r["layers"]
        self_sum = sum(layers[m] for m in set(SELF_TIME.values()))
        if abs(self_sum - command_s) > 1e-9 * command_s:
            bench.failures.append(
                f"traced self times add up to {self_sum!r}, command time {command_s!r}")
    missing = traced[0]["layers"][2]
    for name in missing:
        print(f"trace hook missing: {name}", file=sys.stderr)
    metrics["cli.command_s"] = statistics.mean(r["layers"][1] for r in traced)
    metrics["trace.hooks_missing"] = len(missing)
    metrics["trace.overhead_s"] = (
        statistics.mean(r["run_s"] for r in traced) - median_of(untraced, "run_s")
    )
    print(f"{len(untraced)} untraced and {len(traced)} traced iterations", file=sys.stderr)
    return {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(metrics.items())}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sitelasso", "cli.py")):
        print(f"sitelasso sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    bench = Bench(WORKLOADS[args.workload], args.seed)
    try:
        if args.trace:
            metrics = per_layer(bench, args.seconds)
        else:
            metrics = end_to_end(bench, args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
