#!/usr/bin/env python3
"""Peak memory, page faults and system time of `vortibc ns` on the
benchmark's ns_torus_tg config (torus 64^2 Taylor-Green, dt = 0.005).

For each end time T given and each repeat, a fresh process imports the CLI
and the Picard module, then makes one in-process `vortibc.cli.main` call, as
the benchmark's run measurement does, with BLAS on one thread.  One JSON
record per run:

- T, repeat: the end time and the repeat index
- ru_maxrss_mb: the process's peak resident size, imports included
- minflt: minor page faults during the `main` call
- sys_s, user_s: system and user CPU time of the `main` call
- run_s: wall time of the `main` call
- exit_code: the exit code `main` returned

    PYTHONPATH=src python scripts/ns_memory_profile.py 0.05 0.5 1.0 --repeats 3
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def config_text(T: float, seed: int) -> str:
    """The benchmark's ns_torus_tg config for `seed`, with end time T."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import config_text as workload_config

    lines = workload_config("ns_torus_tg", seed).splitlines()
    return "\n".join(f"physics.T = {T!r}" if line.startswith("physics.T ") else line
                     for line in lines) + "\n"


def measure(config: str, out_dir: str) -> dict:
    """One `main` call in this process, after the imports."""
    import resource
    import time

    import vortibc.cli
    import vortibc.fixedpoint  # noqa: F401  the command's solver module

    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    code = vortibc.cli.main(["ns", "--config", config, "--out", out_dir])
    run_s = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {"ru_maxrss_mb": after.ru_maxrss / 1024.0,
            "minflt": after.ru_minflt - before.ru_minflt,
            "sys_s": after.ru_stime - before.ru_stime,
            "user_s": after.ru_utime - before.ru_utime,
            "run_s": run_s, "exit_code": code}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("T", nargs="*", type=float, default=[0.05, 0.5, 1.0])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--child", nargs=2, metavar=("CONFIG", "OUT"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(measure(*args.child)))
        return
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREADS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        for T in args.T:
            config = os.path.join(tmp, f"ns_T{T}.cfg")
            with open(config, "w", encoding="utf-8") as f:
                f.write(config_text(T, args.seed))
            for repeat in range(args.repeats):
                out = subprocess.run(
                    [sys.executable, __file__, "--child", config, os.path.join(tmp, "out")],
                    env=env, capture_output=True, text=True, check=True)
                record = json.loads(out.stdout.splitlines()[-1])
                print(json.dumps({"T": T, "repeat": repeat, **record}), flush=True)


if __name__ == "__main__":
    main()
