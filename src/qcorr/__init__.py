"""Classical vs quantum correlation measures for small multipartite states.

Core objects: `DensityMatrix` with subsystem layouts, `Povm` and
`KrausChannel` maps, correlation functionals (mutual information, Holevo
quantity, I_CQ / I_CC lower bounds and their gaps), classical-structure
detection, Petz recovery, and local-broadcasting constructions.
"""

__version__ = "0.1.0"

from .qstate import (
    DensityMatrix,
    SubsystemLayout,
    ProbVector,
    ClassicalJoint,
    StateError,
    tensor,
    partial_trace,
    permute_subsystems,
    von_neumann_entropy,
    relative_entropy,
    trace_distance,
    fidelity,
    bell_phi_plus,
)
from .channels import (
    Povm,
    KrausChannel,
    ChannelError,
    measurement_channel,
    apply_channel,
    apply_local,
    transpose_channel,
    petz_recovery,
    compose,
    tensor_channels,
)
from .correlations import (
    Ensemble,
    CorrelationReport,
    mutual_information,
    multipartite_mutual_information,
    classical_mutual_information,
    holevo_chi,
    cq_state,
    cc_state,
    optimize_icq,
    optimize_icc,
    delta_cc,
    discord,
    correlation_report,
)
from .classify import (
    is_cc,
    is_cq,
    side_verdicts,
    commute_residual,
    ppt_label,
    Kind,
)
from .broadcast import (
    BroadcastCandidate,
    cc_broadcast_channels,
    verify_broadcast,
    theorem2_check,
    broadcast_search,
    delta_b_upper,
    embed_ensemble,
    regroup,
)
from .optimize import (
    ConfigRangeError,
    OptimizerConfig,
    OptimizationResult,
    haar_unitary,
    random_density,
    general_povm,
    maximize,
)
