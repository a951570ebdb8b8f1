"""One measurement of the benchmark, in a fresh process.

    python3 perfbench/child.py '<json request>'

The request names the mode (`setup` or `run`), the workload, the config
path and the output directory.  `setup` times importing the CLI and the
command's solver module plus building everything before the first time
step.  `run` times one `vortibc.cli.main` call after import, checks its
outputs and, when `traced`, installs the layer tracer first and reports
the per-layer metrics.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
import traceback

from workloads import WORKLOADS, build_setup, check_outputs


def _import_program(name):
    import vortibc.cli

    importlib.import_module(WORKLOADS[name].solver_module)
    return vortibc.cli


def measure_setup(req) -> dict:
    t0 = time.perf_counter()
    _import_program(req["workload"])
    from vortibc.config import load_config

    build_setup(req["workload"], load_config(req["config"]))
    return {"setup_s": time.perf_counter() - t0}


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def measure_run(req) -> dict:
    name, out_dir = req["workload"], req["out"]
    t0 = time.perf_counter()
    cli = _import_program(name)
    import_s = time.perf_counter() - t0
    tracer = None
    if req["traced"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    argv = [WORKLOADS[name].command, "--config", req["config"], "--out", out_dir]
    error = None
    t1 = time.perf_counter()
    try:
        exit_code = cli.main(argv)
    except Exception:  # noqa: BLE001 - an uncaught solver error fails the run
        exit_code, error = None, traceback.format_exc()
    run_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.enabled = False

    from vortibc.config import load_config

    try:
        checks = check_outputs(name, load_config(req["config"]), out_dir, exit_code)
    except Exception:  # noqa: BLE001 - missing or malformed outputs fail the run
        checks = [{"name": "outputs_readable", "value": False, "relation": "==",
                   "bound": True, "ok": False}]
        error = error or traceback.format_exc()
    result = {"run_s": run_s, "peak_rss_mb": peak_rss_mb, "exit_code": exit_code,
              "checks": checks, "error": error}
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["cli.import.s"] = import_s
        layers["io.bytes"] = _dir_bytes(out_dir)
        tracer.write_spans(req["spans"])
        result["layers"] = layers
    return result


if __name__ == "__main__":
    request = json.loads(sys.argv[1])
    measure = measure_setup if request["mode"] == "setup" else measure_run
    print(json.dumps(measure(request)))
