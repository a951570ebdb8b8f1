#!/usr/bin/env python3
"""Peak memory, page faults and system time of `vortibc ns` or `vortibc
stokes` on the benchmark's config for that command.

`ns` runs ns_torus_tg (torus 64^2 Taylor-Green, dt = 0.005) at each end
time T given; `--command stokes` runs stokes_annulus_fine (annulus,
T = 0.02, dt = 0.001) at each resolution N given, on an N x N grid.  For
each value and each repeat, a fresh process imports the CLI and the
command's solver module, then makes one in-process `vortibc.cli.main`
call, as the benchmark's run measurement does, with BLAS on one thread.
One JSON record per run:

- T or N, repeat: the value and the repeat index
- ru_maxrss_mb: the process's peak resident size, imports included
- minflt: minor page faults during the `main` call
- sys_s, user_s: system and user CPU time of the `main` call
- run_s: wall time of the `main` call
- exit_code: the exit code `main` returned

    PYTHONPATH=src python scripts/ns_memory_profile.py 0.05 0.5 1.0 --repeats 3
    PYTHONPATH=src python scripts/ns_memory_profile.py --command stokes 96 192 288
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

# per command: the benchmark workload, the config key each value sets, the
# record key of the value and the default values
COMMANDS = {
    "ns": ("ns_torus_tg", ("physics.T",), "T", [0.05, 0.5, 1.0]),
    "stokes": ("stokes_annulus_fine", ("domain.n1", "domain.n2"), "N", [96, 192, 288]),
}


def config_text(command: str, value, seed: int) -> str:
    """The benchmark's config of `command` for `seed`, with its swept keys
    set to value."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import config_text as workload_config

    workload, keys = COMMANDS[command][:2]
    lines = workload_config(workload, seed).splitlines()
    return "\n".join(f"{line.split(' = ')[0]} = {value!r}"
                     if line.split(" = ")[0] in keys else line for line in lines) + "\n"


def measure(command: str, config: str, out_dir: str) -> dict:
    """One `main` call in this process, after the imports."""
    import importlib
    import resource
    import time

    import vortibc.cli

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from workloads import WORKLOADS

    # the command's solver module, which the CLI imports lazily
    importlib.import_module(WORKLOADS[COMMANDS[command][0]].solver_module)
    before = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    code = vortibc.cli.main([command, "--config", config, "--out", out_dir])
    run_s = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {"ru_maxrss_mb": after.ru_maxrss / 1024.0,
            "minflt": after.ru_minflt - before.ru_minflt,
            "sys_s": after.ru_stime - before.ru_stime,
            "user_s": after.ru_utime - before.ru_utime,
            "run_s": run_s, "exit_code": code}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("values", nargs="*", type=float,
                    help="end times T (ns) or resolutions N (stokes)")
    ap.add_argument("--command", choices=sorted(COMMANDS), default="ns")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--child", nargs=3, metavar=("COMMAND", "CONFIG", "OUT"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(measure(*args.child)))
        return
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREADS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    name = COMMANDS[args.command][2]
    values = args.values or COMMANDS[args.command][3]
    if args.command == "stokes":
        if any(v != int(v) for v in values):
            ap.error(f"stokes resolutions must be integers, got {values}")
        values = [int(v) for v in values]
    with tempfile.TemporaryDirectory() as tmp:
        for value in values:
            config = os.path.join(tmp, f"{args.command}_{name}{value}.cfg")
            with open(config, "w", encoding="utf-8") as f:
                f.write(config_text(args.command, value, args.seed))
            for repeat in range(args.repeats):
                out = subprocess.run(
                    [sys.executable, __file__, "--child", args.command, config,
                     os.path.join(tmp, "out")],
                    env=env, capture_output=True, text=True, check=True)
                record = json.loads(out.stdout.splitlines()[-1])
                print(json.dumps({name: value, "repeat": repeat, **record}), flush=True)


if __name__ == "__main__":
    main()
