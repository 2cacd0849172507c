"""The paper's contribution layer: optimized VQE execution.

Post-ansatz state caching (§4.1), direct/caching/sampling estimation
strategies (§4.2), the VQE and ADAPT-VQE drivers (§3.1, §5.3),
resource counting for the scaling figures (Figs. 1, 3), and the
end-to-end Fig. 2 workflow.
"""

from repro._lazy import name_table

__all__, __getattr__, __dir__ = name_table(
    __name__,
    {
        "vqe": ["VQE", "VQEResult"],
        "qpe": ["run_qpe", "run_qpe_trotter", "run_iterative_qpe", "QPEResult"],
        "scan": ["scan_potential_energy_surface", "ScanResult", "ScanPoint"],
        "adapt": ["AdaptVQE", "AdaptResult", "AdaptIteration", "AdaptState"],
        "campaign": ["CampaignRunner", "CampaignResult", "CampaignFailedError", "VQECampaign"],
        "cache": ["PostAnsatzCache", "CachedEnergyEvaluator", "GateLedger"],
        "estimator": [
            "Estimator",
            "DirectEstimator",
            "CachingEstimator",
            "SamplingEstimator",
            "make_estimator",
        ],
        "counting": [
            "uccsd_gate_count",
            "jw_pauli_term_count",
            "jw_basis_change_gates",
            "statevector_memory_bytes",
            "energy_evaluation_gate_counts",
            "EnergyEvaluationCost",
        ],
        "workflow": ["run_vqe_workflow", "WorkflowResult"],
    },
)
