"""Supervised self-labels vs fully unsupervised clustering (Sec. II).

The paper motivates self-learning by noting that unsupervised real-time
detectors (k-means / k-medoids, Smart & Chen 2015) need no training data
but classify markedly worse than supervised ones.  This example runs both
families on the same records:

* k-means / k-medoids clustering of windows into 2 clusters, minority
  cluster = seizure (no labels used at all);
* a random forest trained on *algorithm self-labels* (no expert labels
  used either — only the patient's mean seizure duration).

Run:
    python examples/unsupervised_baseline.py
"""

import numpy as np

from repro.core import APosterioriLabeler
from repro.data import EEGRecord, SyntheticEEGDataset
from repro.features import Paper10FeatureExtractor
from repro.ml import build_balanced_training_set
from repro.selflearning import RealTimeDetector
from repro.features import extract_labeled_features
from repro.features.normalize import zscore
from repro.ml import KMeans, KMedoids, classification_report
from repro.ml.kmeans import cluster_seizure_labels


def main() -> None:
    dataset = SyntheticEEGDataset(duration_range_s=(420.0, 600.0))
    extractor = Paper10FeatureExtractor()
    patient = 9

    # --- self-labeled supervised detector -----------------------------
    labeler = APosterioriLabeler()
    train_records = []
    for sid in (0, 1):
        rec = dataset.generate_sample(patient, sid, 0)
        res = labeler.label(rec, dataset.mean_seizure_duration(patient))
        train_records.append(
            EEGRecord(
                data=rec.data, fs=rec.fs, channel_names=rec.channel_names,
                annotations=[res.annotation],
                patient_id=rec.patient_id, record_id=rec.record_id,
            )
        )
    free = [dataset.generate_seizure_free(patient, 180.0, k) for k in range(2)]
    training = build_balanced_training_set(
        train_records, free, extractor, label_source="algorithm"
    )
    detector = RealTimeDetector(extractor=extractor, n_estimators=25)
    detector.fit(training)

    # --- evaluation on held-out seizures -------------------------------
    rows = []
    for sid in (2, 3):
        test = dataset.generate_sample(patient, sid, 0)
        feats, labels = extract_labeled_features(test, extractor)
        z = zscore(feats.values)

        sup = detector.evaluate(test)

        km_pred = cluster_seizure_labels(
            KMeans(n_clusters=2, random_state=0).fit_predict(z)
        )
        km = classification_report(labels, km_pred)

        kmed_pred = cluster_seizure_labels(
            KMedoids(n_clusters=2, random_state=0).fit_predict(z)
        )
        kmed = classification_report(labels, kmed_pred)
        rows.append((sid, sup, km, kmed))

    print(f"{'seizure':>8s} {'method':>22s} {'sens':>7s} {'spec':>7s} {'gmean':>7s}")
    for sid, sup, km, kmed in rows:
        for name, rep in (
            ("self-labeled RF", sup),
            ("k-means", km),
            ("k-medoids", kmed),
        ):
            print(
                f"{sid:8d} {name:>22s} {rep.sensitivity:7.3f} "
                f"{rep.specificity:7.3f} {rep.geometric_mean:7.3f}"
            )

    gmeans = {
        "self-labeled RF": np.mean([r[1].geometric_mean for r in rows]),
        "k-means": np.mean([r[2].geometric_mean for r in rows]),
        "k-medoids": np.mean([r[3].geometric_mean for r in rows]),
    }
    print("\nmean geometric mean per method:")
    for name, value in gmeans.items():
        print(f"  {name:>18s}: {value:.3f}")


if __name__ == "__main__":
    main()
