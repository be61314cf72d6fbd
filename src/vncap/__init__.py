"""Entropy transcripts, capacities, and coding bounds for noisy qubit channels.

The package tracks how much of an initially pure entanglement survives a noisy
channel.  Inputs are purified against a reference, the system is sent through
the channel's Kraus branches into an environment register, and every quantity
of interest (the loss surrendered to the environment, the surviving mutual
entanglement, the coherent information, the entanglement fidelity) is read off
the final tripartite pure state.  The depolarizing channel is worked out in
closed form as the canonical example, alongside classical use, superdense
coding, randomized inequality audits, and exact sphere-packing bounds.
"""

from .analysis import (
    AuditReport,
    CapacityResult,
    HammingQuery,
    RatePoint,
    asymptotic_consistency,
    audit_axioms,
    audit_inequalities,
    hamming_holds,
    inequality_slacks,
    maximize_scalar_on_unit_interval,
    mixture_axiom_slacks,
    rate_bound,
    search_coherent_info_violations,
)
from .channel import (
    ChannelTranscript,
    KrausChannel,
    apply_channel,
    chain,
    diagonal_transcripts,
    dilation_channel,
    entanglement_fidelity,
    identity_channel,
    kraus_channel_from_json,
    kraus_channel_to_json,
    parallel,
    purify,
    quantum_fano_bound,
    run_channel,
    transcript_identity_residuals,
    transcript_slacks,
)
from .depolarizing import (
    BIT_FLIP,
    BIT_PHASE_FLIP,
    PHASE_FLIP,
    DepolParams,
    SuperdenseReport,
    analytic_transcript,
    analytic_transcript_rows,
    build_dilation,
    classical_capacity,
    classical_use_channel_rows,
    classical_use_channel_simulation,
    classical_use_ensemble,
    classical_use_transcript,
    classical_use_transcript_rows,
    dephasing_classical_rows,
    dephasing_kraus,
    dephasing_mutual,
    dephasing_transcript_rows,
    depolarizing_kraus,
    dilation_unitary,
    kholevo_chi,
    q_basis,
    quantum_capacity,
    superdense_scenario,
    superdense_threshold,
)
from .entropy import (
    EntropyVenn2,
    EntropyVenn3,
    binary_entropy,
    classical_fano_bound,
    classical_mutual_information,
    pure_subsystem_entropy,
    relative_entropy_binary,
    shannon_entropy,
    venn2,
    venn3,
    von_neumann_entropy,
)
from .qmat import (
    DensityMatrix,
    PureState,
    basis_state,
    clamp_spectrum,
    hermitian_eigenvalues,
    partial_trace,
    pure_marginal,
    pure_subsystem_spectrum,
    random_unitary,
    tensor,
)

__version__ = "0.1.0"
