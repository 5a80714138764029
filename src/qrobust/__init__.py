"""Robust mean-square stability certification for uncertain linear
quantum systems.

The package decides whether an open quantum harmonic oscillator,
coupled bilinearly to an uncertain subsystem that satisfies a
sector-type quadratic constraint, keeps bounded second moments.  The
decision runs through a frequency-domain gain margin plus a structured
matrix certificate; independent truncated-operator and closed-form
amplifier oracles guard every derived constant.
"""

from .errors import (DimensionError, InfeasibleError, ModelError,
                     NumericError, PreconditionError, ToolkitError)
from .model import (QuantumModel, constants, model_from_json,
                    model_to_json, structure_residual, validate_model)
from .moments import (ClosedLoopSystem, MomentTrajectory,
                      SecondMomentState, build_closed_loop,
                      integrate_moments, scalar_damping_rate,
                      steady_state_moments, vacuum_state)
from .opa import (OpaParams, build_opa_model, closed_form_quantities,
                  cross_validate, sweep_rows)
from .smallgain import (COMM_FACTOR, CertificationReport, PlantMatrices,
                        StructuredP, certify, comm_constant, compute_F,
                        hinf_norm, is_hurwitz, ms_bound, noise_trace,
                        qmi_slack, solve_qmi)
from .uncertainty import (LinearUncertainty, from_bilinear_coupling,
                          qsiqc_params, uncertainty_from_json,
                          uncertainty_to_json)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ToolkitError", "ModelError", "DimensionError", "PreconditionError",
    "NumericError", "InfeasibleError",
    "QuantumModel", "constants", "structure_residual", "validate_model",
    "model_from_json", "model_to_json",
    "PlantMatrices", "StructuredP", "CertificationReport", "COMM_FACTOR",
    "compute_F", "is_hurwitz", "hinf_norm", "solve_qmi",
    "comm_constant", "noise_trace", "qmi_slack", "ms_bound", "certify",
    "LinearUncertainty", "from_bilinear_coupling", "qsiqc_params",
    "uncertainty_from_json", "uncertainty_to_json",
    "ClosedLoopSystem", "SecondMomentState", "MomentTrajectory",
    "build_closed_loop", "steady_state_moments", "vacuum_state",
    "integrate_moments", "scalar_damping_rate",
    "OpaParams", "build_opa_model", "closed_form_quantities",
    "cross_validate", "sweep_rows",
]
