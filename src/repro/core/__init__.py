"""Thermometer — the paper's primary contribution.

The offline half of the hardware/software co-design: replay a collected
branch profile under Belady-optimal replacement (:mod:`repro.core.profiler`),
convert per-branch hit-to-taken percentages into temperatures
(:mod:`repro.core.temperature`), quantize them into k-bit hints
(:mod:`repro.core.hints`), and hand the hints to the hardware policy
(:class:`repro.btb.ThermometerPolicy`).  :mod:`repro.core.pipeline` wires the
steps together end to end.
"""

from repro.core.profiler import BranchProfile, OptProfile, profile_trace
from repro.core.temperature import (COLD, HOT, WARM, TemperatureProfile,
                                    temperature_class_name)
from repro.core.hints import (HintMap, ThresholdQuantizer, UniformQuantizer,
                              DEFAULT_THRESHOLDS)
from repro.core.pipeline import ThermometerPipeline, thermometer_policy_for
from repro.core.crossval import cross_validate_thresholds

__all__ = [
    "BranchProfile",
    "COLD",
    "DEFAULT_THRESHOLDS",
    "HOT",
    "HintMap",
    "OptProfile",
    "TemperatureProfile",
    "ThermometerPipeline",
    "ThresholdQuantizer",
    "UniformQuantizer",
    "WARM",
    "cross_validate_thresholds",
    "profile_trace",
    "temperature_class_name",
    "thermometer_policy_for",
]
