"""A fixed matrix of small CLI runs and the hashes of everything they write.

Each run is one in-process `vortibc.cli.main` call on a generated config:
`stokes` and `ns` under both schemes at checkpoint strides 0, 1 and 5,
`euler` at each stride and one `sweep`, on the annulus, disk, channel and
torus at 16^2 to 20^2, all with an explicit dt.  `run_hashes` returns the
exit code of each run and a SHA-256 prefix of its stdout and of each file
it writes.  tests/output_hashes.json pins them for the numpy and scipy
versions it records; scripts/pin_output_hashes.py rewrites it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import warnings

import numpy as np
import scipy

HASH_TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output_hashes.json")

DOMAINS = {
    "annulus": "domain.kind = annulus\ndomain.n1 = 16\ndomain.n2 = 20\n"
               "physics.initial_condition = modulated_shear\n"
               "physics.boundary_data = from_initial\n",
    "disk": "domain.kind = disk\ndomain.r_outer = 1.0\ndomain.n1 = 20\ndomain.n2 = 16\n"
            "physics.initial_condition = shear_layer\nphysics.boundary_data = sin_theta\n",
    "channel": "domain.kind = channel\ndomain.length_y = 2.0\ndomain.n1 = 16\n"
               "domain.n2 = 16\nphysics.initial_condition = random_smooth\n"
               "physics.boundary_data = random\n",
    "torus": "domain.kind = torus\ndomain.n1 = 20\ndomain.n2 = 20\n"
             "physics.initial_condition = random_smooth\n",
}
SCHEMES = ("backward-euler", "crank-nicolson")
STRIDES = (0, 1, 5)
COMMON = ("physics.mu = 0.05\nphysics.T = 0.05\nphysics.dt = 0.005\n"
          "physics.mu_list = 0.1, 0.05\nsolver.tol_fix = 1e-10\nsolver.max_iter = 20\n"
          "solver.seed = 7\n")


def runs():
    """(run id, command, config text) for every run of the matrix."""
    for domain, text in DOMAINS.items():
        for command in ("stokes", "ns"):
            for scheme in SCHEMES:
                for stride in STRIDES:
                    yield (f"{command}-{domain}-{scheme}-{stride}", command,
                           f"{text}{COMMON}solver.scheme = {scheme}\n"
                           f"output.checkpoint_stride = {stride}\n")
        for stride in STRIDES:
            yield (f"euler-{domain}-{stride}", "euler",
                   f"{text}{COMMON}output.checkpoint_stride = {stride}\n")
        yield f"sweep-{domain}", "sweep", text + COMMON


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _digest(data: bytes) -> str:
    # 64 bits tell any two outputs apart and keep the table short
    return hashlib.sha256(data).hexdigest()[:16]


def run_hashes(workdir: str) -> dict:
    """{"<run id>/exit": code, "<run id>/stdout": digest, "<run id>/<file>":
    digest} over the matrix, run in workdir."""
    from vortibc.cli import main

    table = {}
    for run_id, command, text in runs():
        cfg, out = os.path.join(workdir, f"{run_id}.cfg"), os.path.join(workdir, run_id)
        with open(cfg, "w", encoding="utf-8") as f:
            f.write(text)
        stdout = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout):
            warnings.simplefilter("ignore")
            code = main([command, "--config", cfg, "--out", out])
        table[f"{run_id}/exit"] = code
        table[f"{run_id}/stdout"] = _digest(stdout.getvalue().encode())
        for name in os.listdir(out):
            with open(os.path.join(out, name), "rb") as f:
                table[f"{run_id}/{name}"] = _digest(f.read())
    return table
