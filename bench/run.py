"""Benchmark runner: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload check_large --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  The runner generates the workload's scene
from ``--seed``, then starts one child process at a time (``child.py``), each
of which imports ``liesphere`` from the checkout's ``src/``, loads the scene
and calls ``liesphere.cli.main`` once.  Every child's outputs are checked
(``workloads.py``) and must be byte-identical across the children of a run.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, each the
median over the run's children; ``--trace 1`` alternates untraced and traced
children and reports the per-layer metrics, medians over the traced ones.
The last line of standard output is the JSON result; the lines before it are
a readable table and the machine description.  A fuller record, with every
sample, is written to ``.bench_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import HELD_OUT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_RUNS = 5  # set-up-only children per run, before the measured ones
MIN_RUNS = 2  # measured children per run, whatever --seconds says
HARD_LIMIT_S = 170.0  # a run ends within 3 minutes even if a child hangs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help=f"scene seed (held out: {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "liesphere" / "cli.py").is_file():
        print(f"no liesphere sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scene, params = workload.scene(args.seed)
    scene_path = work / "scene.json"
    scene_path.write_text(json.dumps(scene, indent=2) + "\n", encoding="utf-8")

    bench = _Run(workload, params, scene_path, work, time.monotonic())
    for _ in range(SETUP_RUNS):
        bench.setup_sample()
    if args.trace:
        while not bench.attempts or bench.has_time(args.seconds, per_attempt=2):
            bench.measure(trace=False)
            bench.measure(trace=True)
    else:
        while len(bench.attempts) < MIN_RUNS or bench.has_time(args.seconds, per_attempt=1):
            bench.measure(trace=False)

    values = bench.layer_metrics() if args.trace else bench.end_to_end()
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"metric {m['name']} was not measured", file=sys.stderr)
            return 3
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    failed = sum(1 for a in bench.attempts if a["problems"])
    attempted = len(bench.attempts)
    env = machine_info()
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scene": scene,
        "failed_share": failed / attempted,
        "metrics": metrics,
        "all_values": values,
        "setup_samples_s": bench.setup_s,
        "attempts": bench.attempts,
        "env": env,
    }
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} runs, {failed} failed, failed_share {failed / attempted:g}")
    if "points_per_s" in values:  # points / wall_s at a fixed size, so not gated beside wall_s
        print(f"  points_per_s {values['points_per_s']:.6g} points/s ({workload.points} points)")
    for a in bench.attempts:
        for problem in a["problems"]:
            print(f"  run {a['index']} ({'traced' if a['trace'] else 'untraced'}): {problem}")
    missing = sorted({name for a in bench.attempts for name in a.get("missing_spans", ())})
    if missing:
        print(f"  not found in liesphere, so not traced (their metrics read 0): {missing}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


class _Run:
    """The children of one benchmark run and their samples."""

    def __init__(self, workload, params, scene_path: Path, work: Path, start: float):
        self.workload = workload
        self.params = params
        self.scene_path = scene_path
        self.work = work
        self.start = start
        self.setup_s: list[float] = []
        self.attempts: list[dict] = []
        self.reference: dict | None = None  # output digests of the first run
        self._count = 0

    def has_time(self, seconds: float, per_attempt: int) -> bool:
        """True while another round of ``per_attempt`` children fits in ``seconds``."""
        elapsed = time.monotonic() - self.start
        spans = [a["span_s"] for a in self.attempts]
        estimate = per_attempt * statistics.median(spans) if spans else 0.0
        return elapsed + estimate <= seconds and elapsed + estimate < HARD_LIMIT_S

    def setup_sample(self) -> None:
        result, _, _ = self._child({"setup_only": True})
        if result is not None:
            self.setup_s.append(result["scene_loaded"] - result["spawned"])

    def measure(self, trace: bool) -> None:
        out = self.work / f"out{self._count}"
        t0 = time.monotonic()
        result, rusage, stderr = self._child(
            {"argv": self.workload.argv(str(self.scene_path), str(out)), "trace": trace}
        )
        attempt = {
            "index": len(self.attempts),
            "trace": trace,
            "span_s": time.monotonic() - t0,
            "problems": [],
        }
        self.attempts.append(attempt)
        if result is None:
            attempt["problems"].append("child process ended without a result: " + stderr[-2000:])
            return
        attempt.update(
            wall_s=result["wall_s"],
            cpu_s=rusage.ru_utime + rusage.ru_stime,
            user_s=rusage.ru_utime,
            sys_s=rusage.ru_stime,
            minor_faults=rusage.ru_minflt,
            peak_rss_mb=rusage.ru_maxrss / 1024.0,
            layers=result.get("layers"),
        )
        self.setup_s.append(result["scene_loaded"] - result["spawned"])
        problems = attempt["problems"]
        if result["error"]:
            problems.append("liesphere.cli.main raised: " + result["error"].strip().splitlines()[-1])
            return
        if result["exit_code"] != 0:
            problems.append(f"exit code {result['exit_code']}")
        try:
            problems += self.workload.check(self.params, out, result["stdout"])
            digests = _digests(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"outputs unreadable: {type(exc).__name__}: {exc}")
            return
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            differ = sorted(k for k in set(digests) | set(self.reference)
                            if digests.get(k) != self.reference.get(k))
            problems.append(f"outputs differ from the run's first: {differ}")
        attempt["missing_spans"] = result.get("missing_spans", [])
        if len(self.attempts) > 1:  # the first run's outputs stay for inspection
            shutil.rmtree(out, ignore_errors=True)

    def _child(self, extra: dict):
        """Start one child, wait for it, return (result, rusage, stderr text)."""
        k = self._count
        self._count += 1
        spec_path = self.work / f"spec{k}.json"
        result_path = self.work / f"result{k}.json"
        err_path = self.work / f"stderr{k}.txt"
        spec = {"src": str(SRC), "scene": str(self.scene_path), "result": str(result_path)}
        spec.update(extra)
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = max(1.0, HARD_LIMIT_S - (time.monotonic() - self.start))
        with open(err_path, "w", encoding="utf-8") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            watchdog = threading.Timer(timeout, _kill, (proc.pid,))
            watchdog.start()
            try:
                _, status, rusage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        if proc.returncode != 0 or not result_path.is_file():
            return None, rusage, f"exit {proc.returncode}; {stderr}"
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["spawned"] = spawned
        return result, rusage, stderr

    # ----- aggregation -----

    def _ok(self, trace: bool) -> list[dict]:
        return [a for a in self.attempts if a["trace"] == trace and "wall_s" in a]

    def end_to_end(self) -> dict:
        runs = self._ok(trace=False)
        if not runs:
            return {}
        wall = statistics.median(a["wall_s"] for a in runs)
        return {
            "wall_s": wall,
            "cpu_s": statistics.median(a["cpu_s"] for a in runs),
            "peak_rss_mb": statistics.median(a["peak_rss_mb"] for a in runs),
            "setup_s": statistics.median(self.setup_s),
            "points_per_s": self.workload.points / wall,
        }

    def layer_metrics(self) -> dict:
        traced = [a for a in self._ok(trace=True) if a["layers"]]
        plain = self._ok(trace=False)
        if not traced or not plain:
            return {}
        out = {k: statistics.median(a["layers"][k] for a in traced) for k in traced[0]["layers"]}
        out["trace.overhead"] = (
            statistics.median(a["wall_s"] for a in traced)
            / statistics.median(a["wall_s"] for a in plain)
        )
        return out


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _digests(out: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


def machine_info() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                      "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
        },
        "git_commit": _git_commit(),
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
    }
    try:
        import numpy

        info["numpy"] = numpy.__version__
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
        info["blas"] = {
            k: f"{deps[k].get('name')} {deps[k].get('version')}" for k in ("blas", "lapack") if k in deps
        }
    except Exception as exc:  # machine description only; never fails the run
        info.setdefault("numpy", f"unavailable: {exc}")
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # a plain checkout, not a clone
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


if __name__ == "__main__":
    sys.exit(main())
