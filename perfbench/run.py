"""Benchmark of the vortibc CLI: three fixed workloads, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload ns_torus_tg --seed 1 --seconds 30 --trace 0

Closed loop with one client: each measurement is a fresh Python process
(perfbench/child.py) with BLAS threads pinned to 1 and VORTIBC_THREADS
unset, started only after the previous one ended.  The program is imported
from the checkout's `src/`; the seed only picks the generated config.

--trace 0 repeats untraced `main()` runs while the next one still fits in
--seconds (at least one), then times set-up in more processes, at least
SETUP_REPEATS of them and until SETUP_SECONDS have passed, and reports the
medians of the end-to-end metrics.  --trace 1 repeats pairs of one untraced
and one traced run the same way and reports the per-layer metrics of the
traced runs, plus the tracing overhead (traced minus untraced run_s).
Every run checks its outputs; a run that raises, exits non-zero or fails a
check counts as failed.

Metric names and units come from BENCHMARK.json.  The last line of
standard output is the JSON result; the lines before it give the config,
the run environment, each check with its bound and the layer breakdown.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, amplitude_for, config_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

TIME_LIMIT_S = 170.0
SETUP_REPEATS = 3
# Set-up takes ~0.7 s on the small workloads and ~6 s on stokes_annulus_fine;
# a time budget gives the small ones enough samples for a steady median.
SETUP_SECONDS = 8.0
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def _child_env():
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env.pop("VORTIBC_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=5, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_environment() -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "pinned_threads": PINNED_THREADS,
        "VORTIBC_THREADS": "unset",
    }


class Runner:
    """Runs child measurements of one workload before a fixed deadline."""

    def __init__(self, workload, config_path, deadline):
        self.workload = workload
        self.config_path = str(config_path)
        self.deadline = deadline
        self.env = _child_env()
        self.attempted = 0
        self.failed = 0

    def _child(self, request):
        """Returns (result, error text); result is None when the child died."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None, "benchmark time limit reached"
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(request)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {timeout:.0f} s"
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, f"exit {proc.returncode}: {proc.stderr[-2000:]}"
        return json.loads(lines[-1]), None

    def _count(self, label, ok, error):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"  FAILED {label}: {error or 'a check failed'}")

    def run(self, traced) -> dict:
        out = tempfile.mkdtemp(prefix=f"{self.workload}-", dir=WORK_DIR)
        try:
            res, error = self._child({
                "mode": "run", "workload": self.workload, "config": self.config_path,
                "out": out, "traced": traced,
                "spans": str(WORK_DIR / f"spans-{self.workload}.csv")})
        finally:
            shutil.rmtree(out, ignore_errors=True)
        label = f"{'traced' if traced else 'untraced'} run {self.attempted + 1}"
        res = res or {"checks": []}
        ok = error is None and bool(res["checks"]) and all(c["ok"] for c in res["checks"])
        if "run_s" in res:
            print(f"{label}: run_s {res['run_s']:.4f} s, peak_rss_mb "
                  f"{res['peak_rss_mb']:.1f} MB, exit {res['exit_code']}")
        for c in res["checks"]:
            print(f"  check {c['name']} = {c['value']} {c['relation']} {c['bound']}"
                  f"  {'ok' if c['ok'] else 'FAIL'}")
        self._count(label, ok, error or res.get("error"))
        return res

    def setup(self):
        res, error = self._child({"mode": "setup", "workload": self.workload,
                                  "config": self.config_path})
        self._count(f"setup {self.attempted + 1}", res is not None, error)
        if res is not None:
            print(f"setup: setup_s {res['setup_s']:.4f} s")
            return res["setup_s"]
        return None


def repeat(runner, seconds, traced_pair):
    """Untraced runs (each followed by a traced one when traced_pair) while
    the next repetition still fits in `seconds`; at least one."""
    runs = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        runs.append(runner.run(traced=False))
        if traced_pair:
            runs.append(runner.run(traced=True))
        now = time.monotonic()
        if (now - start) + (now - t0) > seconds or now >= runner.deadline:
            return runs


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(runner, seconds) -> dict:
    runs = [r for r in repeat(runner, seconds, traced_pair=False) if "run_s" in r]
    setups = []
    start = time.monotonic()
    while len(setups) < SETUP_REPEATS or time.monotonic() - start < SETUP_SECONDS:
        setup_s = runner.setup()
        if setup_s is None:
            break
        setups.append(setup_s)
    return {
        "run_s": _median([r["run_s"] for r in runs]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in runs]),
        "setup_s": _median(setups),
    }


def per_layer(runner, seconds) -> dict:
    runs = repeat(runner, seconds, traced_pair=True)
    traced = [r for r in runs if "layers" in r]
    untraced_s = _median([r["run_s"] for r in runs if "run_s" in r and "layers" not in r])
    if not traced or untraced_s is None:
        return {}
    values = {k: _median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
    values["trace.run_s"] = _median([r["run_s"] for r in traced])
    values["trace.untraced_run_s"] = untraced_s
    values["trace.overhead_s"] = values["trace.run_s"] - untraced_s
    total = values["trace.run_s"]
    print("layer self time (median traced run):")
    for key in sorted((k for k in values if k.endswith(".self_s")),
                      key=lambda k: -values[k]):
        if values[key] > 0:
            print(f"  {key[:-7]:<32}{values[key]:>10.4f} s {100 * values[key] / total:6.1f}%")
    return values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "vortibc" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'vortibc'} is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    WORK_DIR.mkdir(exist_ok=True)
    config_path = WORK_DIR / f"{args.workload}-seed{args.seed}.cfg"
    text = config_text(args.workload, args.seed)
    config_path.write_text(text, encoding="utf-8")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"amplitude {amplitude_for(args.seed)!r}")
    print("config: " + "; ".join(text.splitlines()))
    print("env: " + json.dumps(run_environment(), sort_keys=True))

    runner = Runner(args.workload, config_path, deadline)
    if args.trace:
        values, wanted = per_layer(runner, args.seconds), spec["per_layer"]
    else:
        values, wanted = end_to_end(runner, args.seconds), spec["end_to_end"]
    print(f"fail_frac = {runner.failed}/{runner.attempted}"
          f" = {runner.failed / max(runner.attempted, 1):.4g}")
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        print(f"no value measured for {', '.join(missing)}", file=sys.stderr)
        return 1
    for m in wanted:
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
