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


__version__ = "0.1.0"
