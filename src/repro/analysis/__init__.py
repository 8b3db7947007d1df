"""Characterization analyses (§2 of the paper, Figs. 2–9)."""

from repro.analysis.reuse import (ReuseVarianceSummary,
                                  forward_set_reuse_distances,
                                  holistic_variance,
                                  set_reuse_distance_sequences,
                                  transient_variance, variance_summary)
from repro.analysis.hit_to_taken import (dynamic_cdf_curve,
                                         hit_to_taken_curve,
                                         temperature_regions)
from repro.analysis.correlation import (BranchFeatures, CorrelationResult,
                                        branch_property_correlations)
from repro.analysis.bypass import bypass_ratio_by_class

__all__ = [
    "BranchFeatures",
    "CorrelationResult",
    "ReuseVarianceSummary",
    "branch_property_correlations",
    "bypass_ratio_by_class",
    "dynamic_cdf_curve",
    "forward_set_reuse_distances",
    "hit_to_taken_curve",
    "holistic_variance",
    "set_reuse_distance_sequences",
    "temperature_regions",
    "transient_variance",
    "variance_summary",
]
