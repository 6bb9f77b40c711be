"""The Fig. 1 closed loop: missed seizures become training data.

Simulates the paper's deployment scenario for one patient:

1. the wearable starts with an *untrained* real-time detector (cold
   start), so the first monitoring session misses every seizure;
2. each miss triggers the a-posteriori labeler ("a seizure occurred in
   the last hour"), producing personalized self-labels;
3. once enough self-labels exist, the detector is trained on them;
4. a second monitoring session shows the now-trained detector catching
   seizures in real time.

Run:
    python examples/self_learning_loop.py
"""

from repro.data import SyntheticEEGDataset
from repro.core import APosterioriLabeler
from repro.features import Paper10FeatureExtractor
from repro.selflearning import RealTimeDetector, SelfLearningPipeline


def main() -> None:
    dataset = SyntheticEEGDataset(duration_range_s=(480.0, 720.0))
    patient = 8

    pipeline = SelfLearningPipeline(
        labeler=APosterioriLabeler(),
        # The paper uses the 54x2 e-Glass features; the 10-feature set
        # keeps this demo fast while exercising the same loop.
        detector=RealTimeDetector(extractor=Paper10FeatureExtractor(), n_estimators=20),
        avg_seizure_duration_s=dataset.mean_seizure_duration(patient),
        seizure_free_pool=[
            dataset.generate_seizure_free(patient, 180.0, k) for k in range(2)
        ],
        min_train_seizures=2,
        lookback_s=450.0,
    )

    print("=== Session 1: cold start ===")
    session1 = dataset.generate_monitoring_record(
        patient, 1800.0, seizure_indices=[0, 1], min_gap_s=500.0
    )
    report1 = pipeline.observe_record(session1)
    print(f"seizures: {report1.n_seizures}, detected: {report1.n_detected}, "
          f"missed: {report1.n_missed}, self-labels: {report1.n_self_labels}")
    for event in report1.events:
        print(f"  t={event.time_s:7.1f}s  {event.kind.value:18s} {event.detail}")
    print(f"detector retrained: {report1.retrained}")

    print("\n=== Session 2: after self-learning ===")
    session2 = dataset.generate_monitoring_record(
        patient, 1800.0, seizure_indices=[2, 3], min_gap_s=500.0, sample_index=1
    )
    report2 = pipeline.observe_record(session2)
    print(f"seizures: {report2.n_seizures}, detected: {report2.n_detected}, "
          f"missed: {report2.n_missed}")
    print(f"\ndetection rate went {report1.detection_rate:.0%} -> "
          f"{report2.detection_rate:.0%} without any expert labeling")


if __name__ == "__main__":
    main()
