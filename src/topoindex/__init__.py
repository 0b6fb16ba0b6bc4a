"""Topological invariants of time-reversal-invariant band insulators.

Numerics for Chern numbers, the Kane-Mele Z2 invariant, odd winding
indices, mod-2 spectral flow, KO/KR/KQ group arithmetic and
noncommutative-torus index pairings, with cross-checks of the
equivalences between them.
"""

import os as _os

if "THREADS" in _os.environ:  # cap BLAS parallelism; must precede numpy
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["THREADS"])

from .berry import (
    berry_curvature_field,
    chern_number,
    delta_p3,
    occupied_frame,
)
from .ktable import AbelianGroupExpr
from .linalg import eigh, pfaffian
from .model import (
    BlochFamily,
    MomentumGrid,
    RibbonFamily,
    TimeReversal,
    builtin,
    check_trs,
    load_model,
    ribbonize,
    to_json,
)
from .spectral import (
    SpectralPath,
    edge_crossing_parity,
    spectral_flow,
)
from .windex import (
    UnitaryField,
    boundary_index_2d,
    degree_one_field,
    winding3d,
)
from .z2 import (
    SewingField,
    kane_mele_nu,
    sewing_field,
    strong_and_weak_indices_3d,
    wannier_center_flow,
)

__all__ = [
    "AbelianGroupExpr",
    "BlochFamily",
    "MomentumGrid",
    "RibbonFamily",
    "SewingField",
    "SpectralPath",
    "TimeReversal",
    "UnitaryField",
    "berry_curvature_field",
    "boundary_index_2d",
    "builtin",
    "check_trs",
    "chern_number",
    "degree_one_field",
    "delta_p3",
    "edge_crossing_parity",
    "eigh",
    "kane_mele_nu",
    "load_model",
    "occupied_frame",
    "pfaffian",
    "ribbonize",
    "sewing_field",
    "spectral_flow",
    "strong_and_weak_indices_3d",
    "to_json",
    "wannier_center_flow",
    "winding3d",
]

__version__ = "0.1.0"
