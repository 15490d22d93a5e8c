"""C1-smooth spline quasi-interpolation over AS-G1 planar multi-patch domains.

The package builds spline quasi-interpolants whose patch-wise pieces join
with matching traces and crossing derivatives along all interfaces of an
analysis-suitable G1 multi-patch parameterization, certifies the gluing data
of a geometry, and measures physical Sobolev errors for convergence studies.
"""

from .asg1 import check_conformity, global_project, patch_project
from .fields import MANUFACTURED, ScalarField2D, manufactured, pullback
from .geometry import (
    BUILTIN_GEOMETRIES,
    MultiPatch,
    builtin_geometry,
    load_geometry,
    physical_mesh_size,
    save_geometry,
)
from .gluing import GluingData, recover_all, recover_gluing
from .harness import StudyConfig, main, run_convergence, run_p_sweep
from .norms import combine_tables, observed_order, physical_error_norms
from .splines import Partition, UniSpline, UniSplineSpace, uniform_partition
from .tensor import TensorSpline, TensorSplineSpace, tensor_project_Q

__version__ = "0.1.0"
