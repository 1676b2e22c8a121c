"""coulombkit: exact symbolic engine for convolution-algebra models of
integer gauge data, their modules, vertex series and difference relations."""

from .exactring import (PoleEvaluationError, Poly, Scalar, SumInverseError, VariableTable,
                        scalar_str, scalar_structured, scalar_from_structured,
                        specialize_q1)
from .hypertoric import (Circuit, Cone, FixedPoint, GaugeData, ModelError,
                         ThetaOnWallError, circuits, eff_cone, eff_cone_fp,
                         enumerate_degrees, fixed_points, mixed_polarization,
                         separating_circuits)
from .pochhammer import poch, poch_qinv, sign_kernel
from .coulomb import AlgebraElement, CoulombAlgebra
from .verma import VermaModule, VermaVector
from .vertex import (Descendent, QSeries, qde_check, vertex_fp, vertex_fp_nonab,
                     whittaker_function)
from .bethe import Relation, bethe_relations_q1, dmodule_relations, render_bethe_system
from .wallcross import (WallCrossScenario, check_reversal, dmodule_match,
                        make_scenario)

__all__ = [
    "AlgebraElement", "Circuit", "Cone", "CoulombAlgebra", "Descendent",
    "FixedPoint", "GaugeData", "ModelError",
    "PoleEvaluationError", "Poly", "QSeries", "Relation", "Scalar", "SumInverseError",
    "ThetaOnWallError", "VariableTable", "VermaModule", "VermaVector",
    "WallCrossScenario", "bethe_relations_q1", "check_reversal", "circuits",
    "dmodule_match", "dmodule_relations", "eff_cone", "eff_cone_fp",
    "enumerate_degrees", "fixed_points", "make_scenario", "mixed_polarization",
    "poch", "poch_qinv", "qde_check", "render_bethe_system", "scalar_from_structured", "scalar_str",
    "scalar_structured", "separating_circuits", "sign_kernel",
    "specialize_q1", "vertex_fp", "vertex_fp_nonab", "whittaker_function",
]

__version__ = "0.1.0"
