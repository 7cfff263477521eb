"""Core LDP toolkit: budget accounting, mechanism interfaces, oracles.

This package is the tutorial's Section 1.1 plus the frequency-oracle
family of Wang et al. [21] that Sections 1.2's deployed systems build on.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "budget": (
            "BudgetExceededError",
            "PrivacyLedger",
            "PrivacySpend",
            "SpendDeclaration",
            "advanced_composition",
            "compose_parallel",
            "compose_sequential",
            "optimal_per_round_epsilon",
        ),
        "estimation": (
            "ORACLE_REGISTRY",
            "analytical_variances",
            "choose_oracle",
            "coverage",
            "hoeffding_count_bound",
            "make_oracle",
        ),
        "hadamard": ("HadamardAccumulator", "HadamardResponse"),
        "histogram": (
            "SummationAccumulator",
            "SummationHistogramEncoding",
            "ThresholdHistogramEncoding",
        ),
        "local_hashing": ("BinaryLocalHashing", "OptimalLocalHashing"),
        "mechanism": (
            "Accumulator",
            "FrequencyOracle",
            "HashedReports",
            "IndexedBitReports",
            "LocalMechanism",
            "PureAccumulator",
            "PureFrequencyOracle",
            "postprocess_counts",
        ),
        "randomized_response": ("DirectEncoding", "WarnerRandomizedResponse"),
        "serialization": (
            "AccumulatorPayload",
            "pack_accumulator_state",
            "unpack_accumulator_state",
        ),
        "timed": ("TimedReports", "batch_length", "slice_report_batch"),
        "unary": ("OptimalUnaryEncoding", "SymmetricUnaryEncoding"),
    },
)
