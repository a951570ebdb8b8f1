import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import energy_rows_from_histories
from vortibc import ScalarField, VectorField, build_grid, DomainKind, DomainSpec
from vortibc.cli import main
from vortibc.config import RunConfig, parse_config, serialize_config
from vortibc.errors import ConfigError
from vortibc.io import read_vbf, write_csv, write_vbf


BASE_CFG = """
# reference annulus setup
domain.kind = annulus
domain.r_inner = 1.0
domain.r_outer = 2.0
domain.n1 = 16
domain.n2 = 16
physics.mu = 0.1
physics.T = 0.05
physics.dt = 0.005
physics.initial_condition = zero
physics.boundary_data = zero
solver.tol_fix = 1e-9
solver.seed = 3
"""


def _write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_config_round_trip():
    cfg = parse_config(BASE_CFG)
    assert cfg.domain_kind == "annulus"
    assert cfg.dt == 0.005
    text = serialize_config(cfg)
    cfg2 = parse_config(text)
    assert cfg == cfg2
    assert serialize_config(cfg2) == text


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("domain.kind = annulus\nbogus.key = 1\n")


def test_config_rejects_bad_scheme():
    with pytest.raises(ConfigError):
        parse_config(BASE_CFG + "solver.scheme = leapfrog\n")


@pytest.mark.parametrize("T, steps", [(0.5, 481), (0.051, 100)])
def test_default_dt_divides_T(T, steps):
    # physics.dt = 0 takes the largest step <= min(h^2, T/100) that divides
    # T: h^2 = 1.0406e-3 on this annulus, and 0.051 / (0.051 / 100) rounds
    # above 100
    from vortibc.fields import step_count

    cfg = RunConfig(n1=32, n2=32, T=T)
    grid = build_grid(cfg.domain_spec(), cfg.n1, cfg.n2)
    dt = cfg.effective_dt(grid)
    assert step_count(T, dt) == steps
    assert dt <= min(grid.min_spacing() ** 2, T / 100.0) * (1.0 + 1e-9)
    assert steps * dt == pytest.approx(T, rel=1e-14)


def test_config_mu_list_and_params():
    cfg = parse_config(BASE_CFG + "physics.mu_list = 0.1, 0.03, 0.01\n"
                                  "physics.ic.amplitude = 0.5\n")
    assert cfg.mu_list == [0.1, 0.03, 0.01]
    assert cfg.ic_params == {"amplitude": 0.5}
    again = parse_config(serialize_config(cfg))
    assert again == cfg


@settings(max_examples=25, deadline=None)
@given(mu=st.floats(1e-6, 10.0, allow_nan=False),
       n1=st.integers(8, 64), stride=st.integers(0, 7),
       scheme=st.sampled_from(["backward-euler", "crank-nicolson"]))
def test_config_round_trip_property(mu, n1, stride, scheme):
    cfg = RunConfig(mu=mu, n1=n1, checkpoint_stride=stride, scheme=scheme)
    assert parse_config(serialize_config(cfg)) == cfg


# the keyed RunConfig fields: every one but the parameter maps
_KEYED = [f for f in dataclasses.fields(RunConfig) if "key" in f.metadata]


def test_every_numeric_config_field_declares_a_bound():
    # an unbounded number reaches the solvers unchecked; the domain's lengths
    # and radii are left to DomainSpec, which rejects each bad one
    exempt = {"r_inner", "r_outer", "length_x", "length_y"}
    unbounded = [f.name for f in _KEYED if f.type in ("int", "float")
                 and f.name not in exempt and f.metadata["lo"] is None]
    assert unbounded == []
    # a strict bound reads "must be positive", so it is 0
    assert all(f.metadata["lo"] == 0 for f in _KEYED if f.metadata["strict"])
    assert {f.name for f in dataclasses.fields(RunConfig)} - {f.name for f in _KEYED} == {
        "ic_params", "bd_params"}


def test_every_config_key_round_trips():
    # each key set away from its default survives parse -> serialize -> parse
    values = {
        "domain.kind": "channel", "domain.r_inner": "0.5", "domain.r_outer": "1.5",
        "domain.length_x": "3.5", "domain.length_y": "1.25", "domain.n1": "20",
        "domain.n2": "24", "physics.mu": "0.03", "physics.T": "0.2", "physics.dt": "0.01",
        "physics.mu_list": "0.1, 0.05", "physics.initial_condition": "shear_layer",
        "physics.boundary_data": "from_initial", "solver.tol_fix": "1e-07",
        "solver.max_iter": "7", "solver.contraction_window": "2",
        "solver.scheme": "crank-nicolson", "solver.seed": "9",
        "output.directory": "elsewhere", "output.checkpoint_stride": "4",
    }
    assert set(values) == {f.metadata["key"] for f in _KEYED}
    text = "".join(f"{k} = {v}\n" for k, v in values.items())
    cfg = parse_config(text + "physics.ic.amplitude = 0.7\nphysics.bd.scale = 2\n")
    for f in _KEYED:
        assert getattr(cfg, f.name) != f.default, f.metadata["key"]
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert serialize_config(again) == serialize_config(cfg)
    assert again.ic_params == {"amplitude": 0.7} and again.bd_params == {"scale": 2}


def test_vbf_round_trip_scalar(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(5, 7))
    path = str(tmp_path / "f.vbf")
    write_vbf(path, arr, components=1)
    back, comps = read_vbf(path)
    assert comps == 1
    assert back.dtype == np.float64
    assert np.array_equal(back, arr)   # bit identical


def test_vbf_round_trip_vector(tmp_path):
    rng = np.random.default_rng(1)
    arr = rng.normal(size=(5, 7, 2))
    path = str(tmp_path / "v.vbf")
    write_vbf(path, arr, components=2)
    back, comps = read_vbf(path)
    assert comps == 2
    assert np.array_equal(back, arr)


@settings(max_examples=20, deadline=None)
@given(n1=st.integers(1, 9), n2=st.integers(1, 9), comps=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_vbf_round_trip_property(tmp_path_factory, n1, n2, comps, seed):
    rng = np.random.default_rng(seed)
    shape = (n1, n2) + ((comps,) if comps > 1 else ())
    arr = rng.normal(size=shape)
    path = str(tmp_path_factory.mktemp("vbf") / "x.vbf")
    write_vbf(path, arr, components=comps)
    back, c = read_vbf(path)
    assert c == comps
    assert np.array_equal(back, arr)


def test_vbf_layout_is_documented_order(tmp_path):
    # coordinate-2 fastest, component innermost, little-endian f64
    arr = np.arange(12, dtype=float).reshape(3, 2, 2)
    path = str(tmp_path / "layout.vbf")
    write_vbf(path, arr, components=2)
    raw = open(path, "rb").read()
    assert raw[:4] == b"VBF1"
    import struct
    rank, = struct.unpack_from("<I", raw, 4)
    dims = struct.unpack_from("<2I", raw, 8)
    comps, = struct.unpack_from("<I", raw, 16)
    assert (rank, dims, comps) == (2, (3, 2), 2)
    payload = np.frombuffer(raw, dtype="<f8", offset=20)
    assert np.array_equal(payload, np.arange(12, dtype=float))


def test_csv_float_format(tmp_path):
    path = str(tmp_path / "d.csv")
    write_csv(path, ("a", "b"), [(1.0 / 3.0, 2)])
    body = open(path).read()
    assert body.splitlines()[0] == "a,b"
    assert body.splitlines()[1].startswith("0.3333333333333333")


def test_compare_outputs_reports_value_differences(tmp_path):
    # scripts/compare_outputs.py counts the values that differ per file: a
    # one-ulp VBF change, a CSV cell and a NaN against a number
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ref, new = tmp_path / "ref", tmp_path / "new"
    arr = np.arange(1.0, 13.0).reshape(3, 2, 2)
    for tree in (ref, new):
        write_vbf(str(tree / "same.vbf"), arr, components=2)
        write_csv(str(tree / "d.csv"), ("t", "x"), [(0.0, 1.0), (0.5, 2.0)])
    moved = arr.copy()
    moved[1, 1, 0] = np.nextafter(moved[1, 1, 0], np.inf)
    moved[2, 0, 1] = np.nan
    write_vbf(str(new / "w.vbf"), moved, components=2)
    write_vbf(str(ref / "w.vbf"), arr, components=2)
    write_csv(str(new / "d.csv"), ("t", "x"), [(0.0, 1.0), (0.5, 2.5)])
    (ref / "only.txt").write_text("x")
    proc = subprocess.run([sys.executable, os.path.join(root, "scripts", "compare_outputs.py"),
                           str(ref), str(new)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines() == [
        "d.csv: 1 of 6 values differ, max abs 0.5, max rel 0.2",
        "only.txt: only in REF",
        "same.vbf: identical",
        "w.vbf: 2 of 12 values differ, max abs inf, max rel inf",
        "3 of 4 files differ",
    ]
    same = subprocess.run([sys.executable, os.path.join(root, "scripts", "compare_outputs.py"),
                           str(ref), str(ref)], capture_output=True, text=True, timeout=60)
    assert same.returncode == 0 and same.stdout.endswith("0 of 4 files differ\n")


# ---------------------------------------------------------------------------
# command drivers

def test_cmd_ns_zero_run(tmp_path):
    cfg = _write(tmp_path, BASE_CFG + f"output.directory = {tmp_path}/out\n")
    assert main(["ns", "--config", cfg]) == 0
    rows = open(tmp_path / "out" / "ns_diagnostics.csv").read().splitlines()
    assert rows[0] == "t,l2_u,l2_v,l2_div_v"
    assert all(r.split(",")[1] == "0" for r in rows[1:])
    energy = open(tmp_path / "out" / "ns_energy.csv").read().splitlines()
    assert energy[0] == "t,F,Q,l2sq_v_psi,l2sq_gradg_gradq,l2sq_vt_dt_wt"
    assert all(r.split(",")[1] == "0" for r in energy[1:])


def test_cmd_verify_exit_codes(tmp_path, capsys):
    ok = _write(tmp_path, "domain.kind = annulus\ndomain.n1 = 32\ndomain.n2 = 32\n")
    assert main(["verify", "--config", ok]) == 0
    low = _write(tmp_path, "domain.kind = annulus\ndomain.n1 = 4\ndomain.n2 = 32\n",
                 name="low.cfg")
    assert main(["verify", "--config", low]) == 2


def test_cmd_verify_torus_skips_boundary(tmp_path, capsys):
    cfg = _write(tmp_path, "domain.kind = torus\n"
                           "domain.length_x = 6.283185307179586\n"
                           "domain.length_y = 6.283185307179586\n"
                           "domain.n1 = 32\ndomain.n2 = 32\n")
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "skipped" in out
    assert "laplacian_decomposition" in out


def test_cmd_stokes_writes_outputs(tmp_path):
    cfg = _write(tmp_path, BASE_CFG.replace("zero", "circulation", 1)
                 + f"output.directory = {tmp_path}/out\n")
    assert main(["stokes", "--config", cfg]) == 0
    rows = open(tmp_path / "out" / "stokes_diagnostics.csv").read().splitlines()
    assert rows[0] == "t,l2_w,h1_w,h2_w,l2_div_w,max_w_perp,max_vort_bc_err,l2_q"
    assert len(rows) == 1 + 10 + 1   # header and one row per snapshot (T / dt = 10 steps)
    perp = rows[0].split(",").index("max_w_perp")
    assert max(float(r.split(",")[perp]) for r in rows[1:]) <= 1e-10
    files = sorted(os.listdir(tmp_path / "out"))
    assert any(f.startswith("w_") and f.endswith(".vbf") for f in files)


def test_cmd_ns_exit_3_on_no_contraction(tmp_path):
    text = """
domain.kind = annulus
domain.r_inner = 1.0
domain.r_outer = 2.0
domain.n1 = 16
domain.n2 = 32
physics.mu = 0.001
physics.T = 0.3
physics.dt = 0.001
physics.initial_condition = modulated_shear
physics.ic.amplitude = 2.0
physics.boundary_data = from_initial
solver.tol_fix = 1e-10
solver.max_iter = 25
"""
    cfg = _write(tmp_path, text + f"output.directory = {tmp_path}/out\n")
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["ns", "--config", cfg])
    assert code == 3


def test_cmd_sweep_outputs_and_determinism(tmp_path):
    text = """
domain.kind = annulus
domain.r_inner = 1.0
domain.r_outer = 2.0
domain.n1 = 16
domain.n2 = 32
physics.T = 0.04
physics.dt = 0.002
physics.mu_list = 0.03, 0.01
physics.initial_condition = shear_layer
physics.ic.amplitude = 0.8
physics.boundary_data = zero
solver.tol_fix = 1e-6
solver.seed = 9
"""
    import warnings
    cfg1 = _write(tmp_path, text + f"output.directory = {tmp_path}/o1\n", "s1.cfg")
    cfg2 = _write(tmp_path, text + f"output.directory = {tmp_path}/o2\n", "s2.cfg")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["sweep", "--config", cfg1]) == 0
        assert main(["sweep", "--config", cfg2]) == 0
    b1 = open(tmp_path / "o1" / "sweep.csv", "rb").read()
    b2 = open(tmp_path / "o2" / "sweep.csv", "rb").read()
    assert b1 == b2   # bit-identical under fixed seed
    head = b1.decode().splitlines()[0]
    assert head == "mu,e_sup,e_grad,noise_floor,converged"


def test_cmd_ns_taylor_green_prints_error(tmp_path, capsys):
    text = """
domain.kind = torus
domain.length_x = 6.283185307179586
domain.length_y = 6.283185307179586
domain.n1 = 32
domain.n2 = 32
physics.mu = 0.01
physics.T = 0.1
physics.dt = 0.01
physics.initial_condition = taylor_green
solver.tol_fix = 1e-8
solver.max_iter = 20
"""
    cfg = _write(tmp_path, text + f"output.directory = {tmp_path}/out\n")
    assert main(["ns", "--config", cfg]) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if "analytic decay" in l]
    assert line
    err = float(line[0].split("=")[1])
    assert err < 0.01


def test_cmd_sweep_partial_exit_5(tmp_path):
    text = """
domain.kind = annulus
domain.r_inner = 1.0
domain.r_outer = 2.0
domain.n1 = 16
domain.n2 = 32
physics.T = 0.3
physics.dt = 0.001
physics.mu_list = 0.2, 0.001
physics.initial_condition = modulated_shear
physics.ic.amplitude = 2.0
physics.boundary_data = from_initial
solver.tol_fix = 1e-6
solver.max_iter = 25
"""
    import warnings

    from conftest import MARCH_FAULTS, fail_march_at

    def sweep(name, mu_list, *fault):
        out = tmp_path / name
        cfg = _write(tmp_path, text.replace("0.2, 0.001", mu_list)
                     + f"output.directory = {out}\n", f"{name}.cfg")
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            if fault:
                fail_march_at(mp, 0.001, *fault)
            warnings.simplefilter("ignore")
            code = main(["sweep", "--config", cfg])
        return code, [(out / n).read_bytes().decode()
                      for n in ("sweep.csv", "sweep_summary.txt")]

    # one good row: its summary reads as the partial sweeps' summaries do
    code, want = sweep("good", "0.2")
    assert code == 0
    # the smallest viscosity's march raises when created, mid-run, and
    # through a non-finite carrier in the stacked pressure solve
    for snapshot, nonfinite in MARCH_FAULTS:
        code, (csv_text, summary) = sweep(f"out_{snapshot}_{nonfinite}", "0.2, 0.001",
                                          snapshot, nonfinite)
        assert code == 5
        rows = csv_text.splitlines()
        assert len(rows) == 3   # header + both rows, the failed one marked
        assert rows[1].endswith(",1")
        assert rows[2].startswith("0.001,nan,nan,") and rows[2].endswith(",0")
        # the surviving row and the summary equal the sweep without 0.001
        assert [*rows[:2], summary] == [*want[0].splitlines(), want[1]]


def test_cmd_sweep_stops_euler_once_every_march_fails(tmp_path, monkeypatch):
    # with no viscosity left the Euler reference has nothing to be compared
    # with, so it is not stepped on to T
    import vortibc.euler
    from vortibc import linearized
    from vortibc.errors import SolverDiverged

    def failing(*args):
        raise SolverDiverged("injected")

    snapshots, euler_rows = [0], vortibc.euler.euler_rows

    def counted(*args, **kwargs):
        for u in euler_rows(*args, **kwargs):
            snapshots[0] += 1
            yield u

    monkeypatch.setattr(linearized, "_lane", failing)
    monkeypatch.setattr(vortibc.euler, "euler_rows", counted)
    cfg = _write(tmp_path, BASE_CFG.replace("physics.mu = 0.1", "physics.mu_list = 0.1, 0.01")
                 + f"output.directory = {tmp_path}/out\n")
    assert main(["sweep", "--config", cfg]) == 5
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(rows) == 3   # header + both rows, each marked failed
    assert all(",nan,nan," in r and r.endswith(",0") for r in rows[1:])
    assert snapshots[0] == 1   # the initial snapshot only, of 11


def test_cmd_euler_runs(tmp_path):
    text = BASE_CFG.replace("physics.initial_condition = zero",
                            "physics.initial_condition = circulation")
    cfg = _write(tmp_path, text + f"output.directory = {tmp_path}/out\n")
    assert main(["euler", "--config", cfg]) == 0
    assert (tmp_path / "out" / "euler_diagnostics.csv").exists()


def test_resolution_override(tmp_path):
    cfg = _write(tmp_path, BASE_CFG + f"output.directory = {tmp_path}/out\n")
    assert main(["ns", "--config", cfg, "--resolution-override", "4,4"]) == 2


@pytest.mark.parametrize("command, extra_cfg, extra_args", [
    ("ns", "", ["--resolution-override", "a,b"]),
    ("ns", None, []),
    ("sweep", "physics.mu_list = 0.01, 0.1\n", []),
    ("ns", "physics.initial_condition = taylor_green\nphysics.ic.amplitude = nan\n", []),
    ("ns", "physics.initial_condition = taylor_green\nphysics.ic.amplitude = abc\n", []),
    ("ns", "physics.initial_condition = random_smooth\nphysics.ic.kmax = 2.5\n", []),
    ("ns", "physics.T = nan\n", []),
    ("sweep", "physics.mu_list = 0.1, nan\n", []),
    ("stokes", "physics.boundary_data = constant\nphysics.bd.value = -inf\n", []),
    ("ns", "physics.initial_condition = taylor_green\nphysics.ic.amplitud = 2.0\n", []),
    ("stokes", "physics.boundary_data = from_initial\nphysics.bd.value = 1.0\n", []),
    ("stokes", "physics.T = 0.001\n", []),
    ("euler", "physics.T = 0.001\n", []),
    ("stokes", "physics.T = 0.05\nphysics.dt = 0.03\n", []),
    ("ns", "solver.seed = -3\n", []),
    ("ns", "", ["--seed", "-1"]),
    ("ns", "solver.seed = 1.5\n", []),
    ("ns", "physics.mu = abc\n", []),
    ("ns", "physics.dt = -0.005\n", []),
    ("ns", "output.checkpoint_stride = -1\n", []),
    ("ns", "solver.contraction_window = 0\n", []),
    ("sweep", "physics.mu_list = 0.1, -0.1\n", []),
    ("sweep", "physics.mu_list = 0.1, 0.0\n", []),
    ("stokes", "physics.T = 0\nphysics.dt = 0\n", []),
    ("ns", "solver.tol_fix = 0\n", []),
], ids=["bad_resolution", "missing_config", "increasing_mu_list", "nan_ic_param",
        "text_ic_param", "fractional_int_param", "nan_float_field", "nan_mu_list_entry",
        "inf_bd_param", "misspelled_ic_param", "unused_bd_param", "dt_above_T",
        "dt_above_T_euler", "dt_not_dividing_T", "negative_seed_cfg", "negative_seed_arg",
        "fractional_seed", "text_float_field", "negative_dt", "negative_checkpoint_stride",
        "zero_contraction_window", "nonpositive_mu_list_entry", "zero_mu_list_entry",
        "zero_T", "zero_tol_fix"])
def test_bad_input_exits_2(tmp_path, capsys, command, extra_cfg, extra_args):
    path = str(tmp_path / "absent.cfg")
    if extra_cfg is not None:
        path = _write(tmp_path, BASE_CFG + extra_cfg
                      + f"output.directory = {tmp_path}/out\n")
    assert main([command, "--config", path, *extra_args]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["ns", "stokes", "euler", "sweep"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
def test_unusable_output_directory_exits_2(tmp_path, capsys, command, below):
    # an output directory that is a regular file, or lies below one, is a
    # configuration error found before the run, and the file is left alone
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    out = blocker / "out" if below else blocker
    cfg = _write(tmp_path, BASE_CFG + "physics.mu_list = 0.1, 0.01\n")
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert blocker.read_text() == "keep\n"


def _traced_metrics(tmp_path, command, cfg_text):
    """Per-layer metrics of one CLI run under the benchmark's tracer."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = _write(tmp_path, cfg_text, name=f"{command}.cfg")
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{os.path.join(repo, 'perfbench')!r}, {os.path.join(repo, 'src')!r}]\n"
        "from tracer import Tracer\n"
        "from vortibc.cli import main\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        f"code = main([{command!r}, '--config', {cfg!r}, '--out', "
        f"{str(tmp_path / command)!r}])\n"
        "tracer.enabled = False\n"
        "print(json.dumps(dict(tracer.layer_metrics(), exit_code=code)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert metrics["exit_code"] == 0
    return metrics


def test_perfbench_tracer_installs(tmp_path):
    # the benchmark's layer tracer wraps functions of the package by name;
    # it must still install, and see stencil and Picard-norm calls on ns and
    # the Stokes steps on stokes
    ns = _traced_metrics(tmp_path, "ns",
                         "domain.kind = torus\ndomain.n1 = 16\ndomain.n2 = 16\n"
                         "physics.mu = 0.05\nphysics.T = 0.04\nphysics.dt = 0.005\n"
                         "physics.initial_condition = taylor_green\n"
                         "solver.tol_fix = 1e-14\nsolver.max_iter = 20\n")
    assert ns["fields.ops.calls"] > 0
    assert ns["fixedpoint.wt_norm.calls"] > 0
    # wt_norm evaluates whole row chunks, not h1 and h2 per snapshot: the
    # norm calls of the run stay below two per snapshot and Picard iteration
    snapshots = 9
    assert ns["fields.norms.calls"] < 2 * snapshots * ns["fixedpoint.picard_iters"]
    stokes = _traced_metrics(tmp_path, "stokes", BASE_CFG)
    # stokes streams its rows: no solve_stokes call, and each of its 10 steps
    assert stokes["stokes.solve_stokes.calls"] == 0
    assert stokes["stepping.step.calls"] == 10
    # the velocity mode blocks are factored through stepping's splu, the
    # Neumann ones through elliptic's; a 2-D LU of the 2 x 16 x 16 velocity
    # system would hold well over 20 nonzeros per unknown
    assert stokes["stepping.factor.calls"] == 1
    assert stokes["elliptic.factor.calls"] >= 1
    assert stokes["stepping.lu_nnz"] <= 20 * (2 * 16 * 16)


def test_perfbench_setup_builds(monkeypatch):
    # a guard for the benchmark's set-up step, which imports elliptic and
    # stepping entry points by name: renaming or re-signing one must fail
    # here, not only in the benchmark
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    monkeypatch.syspath_prepend(os.path.join(repo, "perfbench"))
    import workloads

    for name in workloads.WORKLOADS:
        cfg = parse_config(workloads.config_text(name, 1))
        cfg.n1 = cfg.n2 = 16
        workloads.build_setup(name, cfg)


def test_ns_diagnostics_deterministic(tmp_path):
    text = BASE_CFG.replace("physics.initial_condition = zero",
                            "physics.initial_condition = random_smooth")
    cfg1 = _write(tmp_path, text + f"output.directory = {tmp_path}/d1\n", "a.cfg")
    cfg2 = _write(tmp_path, text + f"output.directory = {tmp_path}/d2\n", "b.cfg")
    assert main(["ns", "--config", cfg1, "--seed", "42"]) == 0
    assert main(["ns", "--config", cfg2, "--seed", "42"]) == 0
    a = open(tmp_path / "d1" / "ns_diagnostics.csv", "rb").read()
    b = open(tmp_path / "d2" / "ns_diagnostics.csv", "rb").read()
    assert a == b


# ---------------------------------------------------------------------------
# streamed commands against the history path

_STREAM_DOMAINS = {
    "annulus": "domain.kind = annulus\ndomain.n1 = 12\ndomain.n2 = 16\n"
               "physics.initial_condition = modulated_shear\n"
               "physics.boundary_data = from_initial\n",
    "channel": "domain.kind = channel\ndomain.n1 = 12\ndomain.n2 = 12\n"
               "physics.initial_condition = random_smooth\nphysics.boundary_data = random\n",
    "torus": "domain.kind = torus\ndomain.n1 = 12\ndomain.n2 = 12\n"
             "physics.initial_condition = random_smooth\n",
}


def _stream_cfg(tmp_path, domain, stride, scheme="backward-euler", T="0.035"):
    text = (_STREAM_DOMAINS[domain] + f"physics.mu = 0.05\nphysics.T = {T}\n"
            "physics.dt = 0.005\nsolver.seed = 4\n"
            f"solver.scheme = {scheme}\noutput.checkpoint_stride = {stride}\n"
            f"output.directory = {tmp_path}/out\n")
    return _write(tmp_path, text), parse_config(text)


def _history_outputs(cfg, out, csv_name, columns, rows, hists):
    """Write what the history path writes: the diagnostics CSV, then the
    checkpoints of each (tag, history): every stride-th snapshot, or only
    the last one at stride 0."""
    from vortibc.io import scalar_checkpoint, vector_checkpoint

    write_csv(os.path.join(out, csv_name), columns, rows)
    for tag, hist in hists:
        nt, stride = len(hist), cfg.checkpoint_stride
        for k in ([nt - 1] if stride <= 0 else range(0, nt, stride)):
            path = os.path.join(out, f"{tag}_{k:06d}.vbf")
            if hist.data.ndim == 4:
                vector_checkpoint(path, hist[k])
            else:
                scalar_checkpoint(path, hist[k])


def _assert_same_files(got, want):
    names = sorted(os.listdir(want))
    assert sorted(os.listdir(got)) == names
    for name in names:
        with open(os.path.join(got, name), "rb") as f, \
                open(os.path.join(want, name), "rb") as g:
            assert f.read() == g.read(), name


@pytest.mark.parametrize("scheme", ["backward-euler", "crank-nicolson"])
@pytest.mark.parametrize("stride", [0, 1, 3])
@pytest.mark.parametrize("domain", sorted(_STREAM_DOMAINS))
def test_stokes_stream_matches_history_path(tmp_path, domain, stride, scheme):
    import warnings

    from vortibc.cli import _setup_run
    from vortibc.fields import (div, h1, h2, l2, max_normal_trace,
                                max_vorticity_defect)
    from vortibc.stokes import STOKES_COLUMNS, normalize_boundary_data, solve_stokes

    path, cfg = _stream_cfg(tmp_path, domain, stride, scheme)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["stokes", "--config", path]) == 0
        grid, frame, u0, a = _setup_run(cfg)
        w, q = solve_stokes(u0, a, cfg.mu, cfg.T, cfg.dt, scheme)
    # each column from its own operator, as the history path computed them
    sample_a, _ = normalize_boundary_data(a, frame)
    rows = []
    for k, (wk, qk) in enumerate(zip(w, q)):
        t = k * cfg.dt
        rows.append((t, l2(wk), h1(wk), h2(wk), l2(div(wk)), max_normal_trace(wk, frame),
                     max_vorticity_defect(wk, frame, sample_a(t)), l2(qk)))
    want = str(tmp_path / "want")
    _history_outputs(cfg, want, "stokes_diagnostics.csv", STOKES_COLUMNS, rows,
                     [("w", w), ("q", q)])
    _assert_same_files(str(tmp_path / "out"), want)


@pytest.mark.parametrize("stride", [0, 1, 3])
@pytest.mark.parametrize("domain", sorted(_STREAM_DOMAINS))
def test_euler_stream_matches_history_path(tmp_path, domain, stride):
    from vortibc.cli import _setup_run
    from vortibc.euler import kinetic_energy, solve_euler
    from vortibc.fields import l2

    path, cfg = _stream_cfg(tmp_path, domain, stride)
    assert main(["euler", "--config", path]) == 0
    grid, frame, u0, a = _setup_run(cfg)
    hist = solve_euler(u0, cfg.T, cfg.dt, grid)
    rows = [(k * cfg.dt, l2(u), kinetic_energy(u)) for k, u in enumerate(hist)]
    want = str(tmp_path / "want")
    _history_outputs(cfg, want, "euler_diagnostics.csv", ("t", "l2_u", "energy"), rows,
                     [("u", hist)])
    _assert_same_files(str(tmp_path / "out"), want)


@pytest.mark.parametrize("scheme", ["backward-euler", "crank-nicolson"])
@pytest.mark.parametrize("stride", [0, 1, 3])
@pytest.mark.parametrize("domain", sorted(_STREAM_DOMAINS))
def test_ns_stream_matches_history_path(tmp_path, domain, stride, scheme):
    # 8 snapshots (one pressure chunk) at T = 0.035; 17 at T = 0.08 leave
    # a last chunk of one snapshot
    import warnings

    from vortibc.cli import NS_TRACE_COLUMNS, _setup_run
    from vortibc.elliptic import solve_transport
    from vortibc.fields import FieldHistory, div, l2
    from vortibc.fixedpoint import PicardConfig, picard_solve
    from vortibc.linearized import F_COLUMNS

    for T in ("0.035", "0.08"):
        path, cfg = _stream_cfg(tmp_path, domain, stride, scheme, T)
        out, want = tmp_path / "out", str(tmp_path / "want")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["ns", "--config", path]) == 0
            grid, frame, u0, a = _setup_run(cfg)
            sol = picard_solve(u0, a, cfg.mu, cfg.T, cfg.dt,
                               PicardConfig(cfg.tol_fix, cfg.max_iter, cfg.contraction_window),
                               cfg.scheme)
        u = sol.v + sol.w
        p = FieldHistory(grid, cfg.dt, solve_transport(grid, u.data))
        rows = [(k * cfg.dt, l2(uk), l2(vk), l2(div(vk)))
                for k, (uk, vk) in enumerate(zip(u, sol.v))]
        _history_outputs(cfg, want, "ns_diagnostics.csv", ("t", "l2_u", "l2_v", "l2_div_v"),
                         rows, [("u", u), ("p", p)])
        write_csv(os.path.join(want, "ns_trace.csv"), NS_TRACE_COLUMNS, sol.trace)
        write_csv(os.path.join(want, "ns_energy.csv"), F_COLUMNS,
                  energy_rows_from_histories(sol.v, sol.v, sol.w))
        _assert_same_files(str(out), want)
        shutil.rmtree(out)
        shutil.rmtree(want)


@pytest.mark.parametrize("stride, written", [(0, [10]), (4, [0, 4, 8])])
def test_ns_solves_pressure_only_for_written_snapshots(tmp_path, monkeypatch, stride, written):
    # BASE_CFG has 11 snapshots; ns solves the pressure of each one it writes
    # as a one-row solve, and of no other
    from vortibc import fixedpoint

    solved, transport = [], fixedpoint.solve_transport

    def counted(grid, s, *args, **kwargs):
        solved.append(len(s))
        return transport(grid, s, *args, **kwargs)

    monkeypatch.setattr(fixedpoint, "solve_transport", counted)
    cfg = _write(tmp_path, BASE_CFG + f"output.checkpoint_stride = {stride}\n"
                 f"output.directory = {tmp_path}/out\n")
    assert main(["ns", "--config", cfg]) == 0
    assert sorted(p.name for p in (tmp_path / "out").glob("p_*.vbf")) == [
        f"p_{k:06d}.vbf" for k in written]
    assert solved == [1] * len(written)


def test_history_requests_per_command(tmp_path, monkeypatch):
    """stokes, euler and sweep stream and request no history."""
    import warnings

    from vortibc.fields import FieldHistory

    requests = []
    zeros = FieldHistory.zeros.__func__

    def counted(cls, grid, dt, nt, scalar=False):
        requests.append(nt)
        return zeros(cls, grid, dt, nt, scalar)

    monkeypatch.setattr(FieldHistory, "zeros", classmethod(counted))
    cfg = _write(tmp_path, BASE_CFG.replace("physics.initial_condition = zero",
                                            "physics.initial_condition = shear_layer")
                 + "physics.mu_list = 0.1, 0.03\noutput.checkpoint_stride = 2\n"
                 + f"output.directory = {tmp_path}/out\n")
    for command in ("stokes", "euler", "sweep"):
        requests.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main([command, "--config", cfg]) == 0
        assert requests == [], command


# ---------------------------------------------------------------------------
# exit codes of failures outside the configuration

# one vector history of BASE_CFG: 11 snapshots of 2 x 16 x 16 doubles
_BASE_HISTORY_BYTES = 11 * 2 * 16 * 16 * 8


@pytest.mark.parametrize("budget", [1024, 3 * _BASE_HISTORY_BYTES // 2],
                         ids=["1KiB", "1.5_histories"])
def test_history_over_memory_budget_exits_4(tmp_path, capsys, monkeypatch, budget):
    # a Picard run whose histories cannot fit together fails before its
    # first step, also when each history alone would fit
    import vortibc.fields
    from vortibc.stepping import VelocityStepper

    def no_step(*args):
        raise AssertionError("stepped past the memory check")

    monkeypatch.setattr(vortibc.fields, "physical_memory_bytes", lambda: budget)
    monkeypatch.setattr(VelocityStepper, "step", no_step)
    cfg = _write(tmp_path, BASE_CFG + f"output.directory = {tmp_path}/out\n")
    assert main(["ns", "--config", cfg]) == 4
    assert capsys.readouterr().err.startswith("solver failure: MemoryBudgetExceeded: ")
    assert not (tmp_path / "out").exists()


def test_ns_peak_memory_in_histories(tmp_path):
    # Picard holds v and w (2 vector histories) and sweeps v in place; the
    # increment norm and every output after the loop go a row chunk at a
    # time.  A second iterate would take the peak to 3, and holding u, p,
    # div v or a time derivative whole as well to 8.  numpy reports its
    # allocations to tracemalloc.
    import tracemalloc

    def cfg(T):
        return _write(tmp_path, "domain.kind = torus\ndomain.n1 = 24\ndomain.n2 = 24\n"
                      f"physics.mu = 0.05\nphysics.T = {T}\nphysics.dt = 0.005\n"
                      "physics.initial_condition = taylor_green\nsolver.tol_fix = 1e-3\n"
                      f"solver.max_iter = 40\noutput.directory = {tmp_path}/out\n",
                      name=f"T{T}.cfg")

    # a short run first, so the imports and caches of a first run stay out of the count
    assert main(["ns", "--config", cfg(0.01)]) == 0
    history_bytes = 201 * 2 * 24 * 24 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(["ns", "--config", cfg(1.0)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3 * history_bytes, peak / history_bytes


def test_stokes_peak_memory_in_fields(tmp_path):
    # a stokes run holds no history; its traced peak, 13.4 vector fields,
    # is set by the mode-block build, the Neumann solves and the step and
    # diagnostics temporaries.  Building the blocks from an entry list of
    # every mode, expanding the Neumann operator for its residual test, and
    # the step's and diagnostics' whole-vector copies took it to 33.
    import tracemalloc

    import scipy.sparse.linalg  # noqa: F401  imported before the count, as by splu

    n = 96
    cfg = _write(tmp_path, f"domain.kind = annulus\ndomain.n1 = {n}\ndomain.n2 = {n}\n"
                 "physics.mu = 0.01\nphysics.T = 0.02\nphysics.dt = 0.001\n"
                 "physics.initial_condition = modulated_shear\n"
                 "physics.boundary_data = from_initial\noutput.checkpoint_stride = 5\n"
                 f"output.directory = {tmp_path}/out\n")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(["stokes", "--config", cfg]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    field_bytes = 2 * n * n * 8
    assert peak <= 20 * field_bytes, peak / field_bytes


def test_unexpected_exception_exits_4(tmp_path, capsys, monkeypatch):
    # exit 1 is reserved for a failed verify suite, so an exception outside
    # the package's own errors is an internal error with exit 4
    import vortibc.stokes

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(vortibc.stokes, "stokes_rows", broken)
    cfg = _write(tmp_path, BASE_CFG + f"output.directory = {tmp_path}/out\n")
    assert main(["stokes", "--config", cfg]) == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: injected\n"


# Config values for the exit-code property: each key draws from valid values
# and from invalid ones (out of range, non-finite, text, fractional for an
# int).  Grids stay at most 16 x 16 and runs at most 20 steps, so no draw can
# exhaust the machine.
_BAD_NUMBERS = ["-1", "abc", "nan", "inf", "1e400"]
_DRAWN_KEYS = {
    "physics.mu": (["0.1", "0.02", "0.0"], _BAD_NUMBERS),
    "solver.tol_fix": (["1e-6", "1e-9", "0.5"], ["0", *_BAD_NUMBERS]),
    "solver.max_iter": (["2", "5"], ["1", "2.5", *_BAD_NUMBERS]),
    "domain.n1": (["4", "8", "12", "16"], ["0", "8.5", *_BAD_NUMBERS]),
    "domain.n2": (["4", "8", "12", "16"], ["0", "8.5", *_BAD_NUMBERS]),
    "solver.seed": (["0", "7"], ["1.5", *_BAD_NUMBERS]),
    "output.checkpoint_stride": (["0", "1", "3"], ["0.5", *_BAD_NUMBERS]),
    "solver.contraction_window": (["1", "3"], ["0", "1.5", *_BAD_NUMBERS]),
    "physics.mu_list": (["0.1, 0.03", "0.1, 0.03, 0.01", "0.05"],
                        ["0.1, -0.1", "0.1, 0.0", "0.03, 0.1", "0.1, abc", "0.1, nan"]),
    "solver.scheme": (["backward-euler", "crank-nicolson"], ["leapfrog"]),
    "physics.initial_condition": (["zero", "circulation", "rigid_rotation", "taylor_green",
                                   "shear_layer", "modulated_shear", "random_smooth"],
                                  ["bogus"]),
    "physics.boundary_data": (["zero", "constant", "sin_theta", "from_initial", "random"],
                              ["bogus"]),
    "physics.ic.amplitude": (["0.5", "1.0", "60.0"], ["abc", "nan"]),
}
# bad values that only one command rejects: the sweep alone needs its
# viscosities decreasing
_BAD_ONLY_FOR = {("physics.mu_list", "0.03, 0.1"): "sweep"}


@st.composite
def _exit_code_case(draw):
    """(command, config text, whether the config is invalid for command)."""
    command = draw(st.sampled_from(["stokes", "ns", "euler", "sweep"]))
    lines = [f"domain.kind = {draw(st.sampled_from(['annulus', 'disk', 'channel', 'torus']))}"]
    invalid = False
    for key, (good, bad) in _DRAWN_KEYS.items():
        if draw(st.booleans()):     # absent keys take their defaults
            is_bad = draw(st.integers(0, 9)) == 0
            value = draw(st.sampled_from(bad if is_bad else good))
            invalid |= is_bad and _BAD_ONLY_FOR.get((key, value), command) == command
            lines.append(f"{key} = {value}")
    # T and dt: at most 20 steps when valid; otherwise dt above T, a dt that
    # does not divide T, or a value out of range
    dt = draw(st.sampled_from([0.0025, 0.005, 0.01]))
    steps = draw(st.integers(1, 20))
    valid = (f"{steps * dt:.10g}", f"{dt}")
    T, dt_text = draw(st.sampled_from([
        *[valid] * 5, (f"{dt / 2}", f"{dt}"), (f"{(steps + 0.5) * dt:.10g}", f"{dt}"),
        ("-0.1", f"{dt}"), (valid[0], "-0.005"), ("nan", f"{dt}"), ("0", f"{dt}"), ("0", "0")]))
    invalid |= (T, dt_text) != valid
    lines += [f"physics.T = {T}", f"physics.dt = {dt_text}"]
    return command, "\n".join(lines) + "\n", invalid


@settings(max_examples=200, deadline=None)
@given(case=_exit_code_case())
def test_exit_code_contract(tmp_path_factory, case):
    # whatever the config, main returns a documented exit code and lets no
    # exception escape; an invalid config exits 2 before anything runs
    import warnings

    command, text, invalid = case
    tmp = tmp_path_factory.mktemp("exit")
    cfg = _write(tmp, text + f"output.directory = {tmp}/out\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main([command, "--config", cfg])
    event(f"exit {code}")
    assert code == 2 if invalid else code in (0, 2, 3, 4, 5)


def test_torus_run_never_loads_sparse_lu(tmp_path):
    # doubly periodic grids solve by FFT: the sparse LU is imported on first use
    cfg = _write(tmp_path, "domain.kind = torus\ndomain.n1 = 16\ndomain.n2 = 16\n"
                 "physics.mu = 0.05\nphysics.T = 0.02\nphysics.dt = 0.005\n"
                 "physics.initial_condition = taylor_green\n"
                 f"output.directory = {tmp_path}/out\n")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = ("import sys\n"
              f"sys.path.insert(0, {os.path.join(repo, 'src')!r})\n"
              "from vortibc.cli import main\n"
              f"assert main(['ns', '--config', {cfg!r}]) == 0\n"
              "print('scipy.sparse.linalg' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
