"""Incompressible Navier-Stokes with kinematic and vorticity boundary
conditions on curved 2D domains: solvers, identity checks, and an
inviscid-limit harness."""

from .geometry import (
    BoundaryFrame,
    DomainKind,
    DomainSpec,
    Grid,
    boundary_frame,
    build_grid,
    second_fundamental_form,
    surface_integrate,
)
from .fields import (
    FieldHistory,
    ScalarField,
    VectorField,
    advect,
    curl2d,
    curl_scalar,
    div,
    grad,
    laplacian,
    normal_component,
    surface_curl,
    tangential_part,
)


def __getattr__(name):
    # Solver entry points re-exported lazily to keep import cost low.
    lazy = {
        "solve_stokes": ("vortibc.stokes", "solve_stokes"),
        "picard_solve": ("vortibc.fixedpoint", "picard_solve"),
        "PicardConfig": ("vortibc.fixedpoint", "PicardConfig"),
        "solve_euler": ("vortibc.euler", "solve_euler"),
        "sweep_mu": ("vortibc.euler", "sweep_mu"),
        "SweepConfig": ("vortibc.euler", "SweepConfig"),
        "apply_velocity_map": ("vortibc.linearized", "apply_velocity_map"),
        "VelocityMapInput": ("vortibc.linearized", "VelocityMapInput"),
        "solve_neumann": ("vortibc.elliptic", "solve_neumann"),
        "NeumannProblem": ("vortibc.elliptic", "NeumannProblem"),
    }
    if name in lazy:
        import importlib

        module, attr = lazy[name]
        return getattr(importlib.import_module(module), attr)
    raise AttributeError(f"module 'vortibc' has no attribute {name!r}")


__version__ = "0.1.0"
