"""Run the psibench benchmark.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Runs from the root of a source checkout.  Each operation is one psibench CLI
command in a fresh child interpreter (``PYTHONPATH=src``), one child at a
time: a closed loop with a single client.  A pass runs the workload's fixed
command list; a run makes --seconds / workloads.PASS_SECONDS passes (at least
one) and takes each command's best latency over them.  Before each pass and
after the last it also times ``reference.py``, a fixed program, and scales
the end-to-end times to a host on which that program takes REFERENCE_S.
Every command's exit status and report are checked against a known answer
after the child exits, outside its timed interval.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs one untraced and one traced pass (children under ``tracer.py``) and
prints the per-layer metrics.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; a result file with every
command's latencies, exit status, max-RSS and stdout sha256 plus machine
information goes to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TIMEOUT_S = 60.0  # one command; a timeout counts as a failed operation
SETUP_SAMPLES = 7
# reference.py's best latency on the seed-commit host when it ran fast; the
# end-to-end times are scaled to that speed (see end_to_end)
REFERENCE_S = 0.15
END_TO_END_UNITS = {"wall_s": "s", "cmd_p50_s": "s", "cmd_tail_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class Harness:
    """Spawns psibench children one at a time and times them."""

    def __init__(self, seed: int, work: Path):
        self.work = work
        # hash randomization follows the workload seed, so a seed fixes the run
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(seed % 2**32))

    def spawn(self, args: list, stdout_path: Path) -> dict:
        """Run ``python <args>``; latency is spawn to exit, max-RSS from wait4."""
        with open(stdout_path, "wb") as out, open(self.work / "stderr.txt", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(TIMEOUT_S, proc.kill)
            timer.start()
            status = None
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                if status is None:  # interrupted before the child was reaped
                    proc.kill()
                    proc.wait()
            latency = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"latency_s": latency, "exit": proc.returncode,
                "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_mb": usage.ru_maxrss / 1024,
                "timed_out": proc.returncode == -signal.SIGKILL}

    def setup_times(self) -> list:
        """Fresh interpreter start plus ``import psibench.cli``, after one
        warm-up start that also checks the package comes from this checkout."""
        probe = self.work / "probe.txt"
        first = self.spawn(["-c", "import psibench.cli as c; print(c.__file__)"], probe)
        origin = probe.read_text().strip()
        if first["exit"] != 0 or not Path(origin).is_relative_to(SRC):
            raise SystemExit(f"error: cannot import psibench.cli from {SRC} "
                             f"(exit {first['exit']}, got {origin!r})")
        return [self.spawn(["-c", "import psibench.cli"], probe)["latency_s"]
                for _ in range(SETUP_SAMPLES)]

    def reference(self) -> float:
        return self.spawn([str(HERE / "reference.py")], self.work / "reference.txt")["latency_s"]

    def run_command(self, cmd, trace_prefix: Path | None = None) -> dict:
        stdout_path = self.work / "stdout.txt"
        if trace_prefix is None:
            args = ["-m", "psibench", *cmd.argv]
        else:
            args = [str(HERE / "tracer.py"), str(trace_prefix), "--", *cmd.argv]
        result = self.spawn(args, stdout_path)
        stdout = stdout_path.read_bytes()
        result["stdout_sha256"] = hashlib.sha256(stdout).hexdigest()
        result["problem"] = check(cmd, result, stdout)
        return result


def check(cmd, result: dict, stdout: bytes) -> str | None:
    """None when the command met its known answer."""
    if result["timed_out"]:
        return f"timed out after {TIMEOUT_S} s"
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"exit status {result['exit']}, no JSON report on stdout"
    try:
        return cmd.check(result["exit"], report)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        return f"malformed report: {exc!r}"


def tail(latencies: list) -> tuple:
    """The highest order statistic with at least ten samples beyond it, as
    (value, percentile, sample count); the maximum below eleven samples."""
    xs = sorted(latencies)
    k = max(len(xs) - 11, 0) if len(xs) > 10 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def run_passes(harness: Harness, commands: list, count: int, seconds: float, log: list) -> list:
    """``count`` passes; none starts once 1.25 x ``seconds`` have gone by, so
    a slow host or a much slower program cannot stretch the run unbounded."""
    passes, refs = [], []
    start = time.perf_counter()
    while len(passes) < count and (not passes or time.perf_counter() - start < 1.25 * seconds):
        refs.append(harness.reference())
        passes.append([harness.run_command(c) for c in commands])
    refs.append(harness.reference())
    for n, results in enumerate(passes):
        log.extend({"pass": n, "command": c.name, **r}
                   for c, r in zip(commands, results))
    return passes, refs


def end_to_end(harness: Harness, commands: list, count: int, seconds: float, setup: list,
               log: list) -> tuple:
    passes, refs = run_passes(harness, commands, count, seconds, log)
    # A command's latency is its best over the passes: the host's slow spells
    # last seconds, so the passes that hit one measure the host, not psibench.
    per_command = [min(p[i]["latency_s"] for p in passes) for i in range(len(commands))]
    tail_value, tail_pct, tail_n = tail(per_command)
    # The host's speed drifts by 1.2-1.8x for minutes at a time, longer than a
    # run, so the times are scaled by how fast the fixed reference program ran
    # in the same run: seconds on a host where reference.py takes REFERENCE_S.
    raw = {
        "wall_s": sum(per_command),
        "cmd_p50_s": statistics.median(per_command),
        "cmd_tail_s": tail_value,
        "setup_s": statistics.median(setup),
    }
    scale = REFERENCE_S / min(refs)
    metrics = {k: v * scale for k, v in raw.items()}
    metrics["peak_rss_mb"] = max(r["maxrss_mb"] for p in passes for r in p)
    notes = {"passes": len(passes), "setup_samples_s": setup,
             "cmd_tail_percentile": tail_pct, "cmd_tail_samples": tail_n,
             "reference_s": refs, "scale": scale, "unscaled": raw}
    return metrics, notes


def traced(harness: Harness, commands: list, log: list) -> tuple:
    """One untraced pass, then one traced pass; per-layer metrics from the
    traced one, its slowdown as trace.overhead_ratio."""
    untraced = [harness.run_command(c) for c in commands]
    summaries, traced_results = [], []
    for i, cmd in enumerate(commands):
        prefix = harness.work / f"spans-{i}"
        result = harness.run_command(cmd, prefix)
        try:
            summaries.append(tracer.summarize(prefix))
        except FileNotFoundError:  # the child was killed before it wrote its spans
            result["problem"] = result["problem"] or "the traced child wrote no spans"
        for suffix in (".bin", ".json"):
            Path(f"{prefix}{suffix}").unlink(missing_ok=True)
        traced_results.append(result)
    for kind, results in (("untraced", untraced), ("traced", traced_results)):
        log.extend({"pass": kind, "command": c.name, **r} for c, r in zip(commands, results))
    ratio = (sum(r["latency_s"] for r in traced_results)
             / sum(r["latency_s"] for r in untraced))
    total = tracer.merge(summaries)
    return tracer.layer_metrics(total, ratio), {"layer_spans": tracer.layer_spans(total)}


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "loadavg": Path("/proc/loadavg").read_text().split()[:3]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT / "work" / f"{name}-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    commands = workloads.build(name, seed, work / "inputs")
    harness = Harness(seed, work)
    before = machine()
    setup = harness.setup_times()  # also the warm-up and the source check for a traced run
    log: list = []
    if trace:
        metrics, notes = traced(harness, commands, log)
        units = {k: v["unit"] for k, v in metrics.items()}
        metrics = {k: v["value"] for k, v in metrics.items()}
    else:
        count = max(1, round(seconds / workloads.PASS_SECONDS[name]))
        metrics, notes = end_to_end(harness, commands, count, seconds, setup, log)
        units = END_TO_END_UNITS
    failed = [r for r in log if r["problem"]]
    stdout_stable = all(len({r["stdout_sha256"] for r in log if r["command"] == c.name}) == 1
                        for c in commands)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": {**before, "loadavg_end": machine()["loadavg"]},
        "attempted": len(log), "failed": len(failed),
        "fail_ratio": len(failed) / len(log),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "notes": {**notes, "stdout_stable": stdout_stable},
        "commands": [{"name": c.name, "argv": c.argv} for c in commands],
        "runs": log,
    }
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    return result


def print_table(result: dict) -> None:
    name, notes = result["workload"], result["notes"]
    unscaled = notes.get("unscaled", {})
    for metric, m in result["metrics"].items():
        measured = f" (measured {unscaled[metric]:.6g})" if metric in unscaled else ""
        print(f"{name:20s} {metric:32s} {m['value']:14.6g} {m['unit']}{measured}")
    if "scale" in notes:
        print(f"{name:20s} times scaled by {notes['scale']:.4g}: reference.py took "
              f"{min(notes['reference_s']):.4g} s at best, {REFERENCE_S} s nominal")
    print(f"{name:20s} {'fail_ratio':32s} {result['fail_ratio']:14.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    if "cmd_tail_percentile" in notes:
        print(f"{name:20s} cmd_tail_s is p{notes['cmd_tail_percentile']:.1f} of "
              f"{notes['cmd_tail_samples']} per-command best latencies over {notes['passes']} passes")
    for r in result["runs"]:
        if r["problem"]:
            print(f"{name:20s} FAILED {r['command']} (pass {r['pass']}): {r['problem']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its child (Harness.spawn's finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "psibench" / "cli.py").is_file():
        print(f"error: no psibench sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for result in results:
        print_table(result)
    prefix = len(results) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}/{k}" if prefix else k): v
                    for r in results for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
