"""Quickstart: label a seizure a-posteriori and score the label.

Generates one CHB-MIT-like record (a few minutes of two-channel EEG with a
single seizure), runs the paper's minimally-supervised labeling algorithm
with only the patient's average seizure duration as prior knowledge, and
compares the produced label against the ground truth with the paper's
deviation metric.

Run:
    python examples/quickstart.py
"""

from repro.core import APosterioriLabeler, deviation, normalized_deviation
from repro.data import SyntheticEEGDataset


def main() -> None:
    # Short records keep the demo snappy; the paper uses 30-60 minutes.
    dataset = SyntheticEEGDataset(duration_range_s=(480.0, 720.0))
    record = dataset.generate_sample(patient_id=1, seizure_index=0)
    truth = record.annotations[0]
    print(f"record: {record}")
    print(f"ground truth seizure: [{truth.onset_s:.1f}, {truth.offset_s:.1f}] s")

    # The only supervision: the clinician-provided mean seizure duration.
    prior_s = dataset.mean_seizure_duration(1)
    print(f"expert prior (mean seizure duration): {prior_s:.0f} s")

    labeler = APosterioriLabeler()
    result = labeler.label(record, avg_seizure_duration_s=prior_s)
    label = result.annotation
    print(f"algorithm label:      [{label.onset_s:.1f}, {label.offset_s:.1f}] s")

    delta = deviation(truth, label)
    delta_norm = normalized_deviation(truth, label, record.duration_s)
    print(f"deviation delta = {delta:.1f} s   (paper cohort median: 10.1 s)")
    print(f"normalized      = {delta_norm:.4f} (paper cohort median: 0.9935)")


if __name__ == "__main__":
    main()
