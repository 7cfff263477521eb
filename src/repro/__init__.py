"""repro — Privacy at Scale: Local Differential Privacy in Practice.

A practice-led local differential privacy (LDP) library reproducing the
SIGMOD 2018 tutorial by Cormode, Kulkarni and Srivastava: the core
frequency-oracle toolkit, the three industrial deployments it surveys
(Google RAPPOR, Apple CMS/HCMS, Microsoft telemetry), heavy-hitter
identification, marginal release, spatial aggregation, synthetic graph
generation, hybrid trust models, and the centralized-DP yardstick.

Quickstart::

    import numpy as np
    from repro.core import OptimalLocalHashing
    from repro.workloads import sample_zipf

    values, _ = sample_zipf(domain_size=128, n=50_000, rng=7)
    oracle = OptimalLocalHashing(domain_size=128, epsilon=1.0)
    reports = oracle.privatize(values, rng=11)
    counts = oracle.estimate_counts(reports)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
experiment-by-experiment reproduction record.
"""

__version__ = "1.0.0"

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "core": (
            "DirectEncoding",
            "FrequencyOracle",
            "HadamardResponse",
            "OptimalLocalHashing",
            "OptimalUnaryEncoding",
            "PrivacyLedger",
            "SpendDeclaration",
            "SummationHistogramEncoding",
            "SymmetricUnaryEncoding",
            "ThresholdHistogramEncoding",
            "WarnerRandomizedResponse",
            "make_oracle",
        ),
    },
)
__all__ = ["__version__", *__all__]
