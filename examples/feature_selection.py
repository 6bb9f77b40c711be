"""Backward elimination over a wide feature family (Sec. III-A).

The paper's 10 features were chosen by backward elimination from a larger
candidate pool.  This example reruns that process on synthetic data: it
extracts the full 108-feature e-Glass family over seizure and non-seizure
windows, runs backward elimination, and reports which features survive —
on this generator, band-power features in the delta/theta range dominate,
matching the character of the paper's selection.

Run:
    python examples/feature_selection.py
"""

import numpy as np

from repro.data import SyntheticEEGDataset
from repro.features import EGlassFeatureExtractor, backward_elimination
from repro.features import extract_labeled_features
from repro.features.selection import fisher_ratio


def main() -> None:
    dataset = SyntheticEEGDataset(duration_range_s=(300.0, 420.0))
    extractor = EGlassFeatureExtractor()

    # Pool windows from two patients' records.
    values, labels = [], []
    for patient, sid in ((1, 0), (9, 0)):
        record = dataset.generate_sample(patient, sid, 0)
        feats, window_labels = extract_labeled_features(record, extractor)
        values.append(feats.values)
        labels.append(window_labels)
    x = np.vstack(values)
    y = np.concatenate(labels)
    names = extractor.feature_names
    print(f"pooled {x.shape[0]} windows x {x.shape[1]} features "
          f"({int(y.sum())} ictal)")

    print("\ntop 15 features by individual Fisher ratio:")
    ratios = fisher_ratio(x, y)
    for idx in np.argsort(ratios)[::-1][:15]:
        print(f"  {ratios[idx]:8.3f}  {names[idx]}")

    # Backward elimination is O(F^2) scoring passes; restrict to the 30
    # strongest candidates to keep the demo quick (the paper similarly
    # eliminates from a pre-screened pool).
    keep = np.argsort(ratios)[::-1][:30]
    result = backward_elimination(x[:, keep], y, min_features=1)
    print("\nbackward-elimination top 10:")
    for rank, local_idx in enumerate(result.top(10), start=1):
        print(f"  {rank:2d}. {names[keep[local_idx]]}")

    print("\ncriterion vs subset size (larger is better):")
    for size in sorted(result.scores_by_size)[:12]:
        print(f"  {size:3d} features -> {result.scores_by_size[size]:.4f}")


if __name__ == "__main__":
    main()
