"""repro — reproduction of "A Self-Learning Methodology for Epileptic
Seizure Detection with Minimally-Supervised Edge Labeling" (DATE 2019).

The package is organized as one subpackage per subsystem:

* :mod:`repro.core` — the paper's contribution: Algorithm 1 (a-posteriori
  seizure labeling), the deviation metric and the evaluation protocol;
* :mod:`repro.signals` — DWT / spectral / windowing substrate;
* :mod:`repro.entropy` — permutation, Rényi, sample/approximate, Shannon;
* :mod:`repro.data` — synthetic CHB-MIT-like cohort, records, EDF I/O;
* :mod:`repro.features` — the 10 selected features, the e-Glass 54-feature
  family, backward elimination;
* :mod:`repro.ml` — random forest, clustering baselines, metrics;
* :mod:`repro.engine` — cohort-scale parallel batch execution with an
  equivalence guarantee against the sequential pipeline;
* :mod:`repro.selflearning` — the Fig. 1 closed loop;
* :mod:`repro.platform` — the wearable power/battery/memory/runtime model;
* :mod:`repro.service` — the real-time detection service (sessions,
  backpressure, wall-clock replay, latency telemetry);
* :mod:`repro.api` — the five-verb facade (:func:`~repro.api.open_source`,
  :func:`~repro.api.extract`, :func:`~repro.api.evaluate_cohort`,
  :func:`~repro.api.start_service`, :func:`~repro.api.connect`);
* :mod:`repro.settings` — every environment knob resolved into one
  :class:`~repro.settings.ReproSettings` snapshot.

The root namespace exports only the facade; every other name is imported
from its subpackage.

Quickstart::

    from repro.core import APosterioriLabeler, deviation
    from repro.data import SyntheticEEGDataset

    dataset = SyntheticEEGDataset(duration_range_s=(600, 900))
    record = dataset.generate_sample(patient_id=1, seizure_index=0)
    labeler = APosterioriLabeler()
    result = labeler.label(record, dataset.mean_seizure_duration(1))
    print(deviation(record.annotations[0], result.annotation), "seconds off")
"""

from . import api
from .api import connect, evaluate_cohort, extract, open_source, start_service
from .settings import ReproSettings
from .version import __version__

__all__ = [
    "__version__",
    "api",
    "connect",
    "evaluate_cohort",
    "extract",
    "open_source",
    "start_service",
    "ReproSettings",
]
