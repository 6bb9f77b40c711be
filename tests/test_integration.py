"""Cross-module integration tests: the paper's end-to-end paths."""


from repro.core import APosterioriLabeler, deviation, normalized_deviation
from repro.data import EEGRecord, load_record, save_record
from repro.features import Paper10FeatureExtractor
from repro.ml import build_balanced_training_set
from repro.selflearning import RealTimeDetector
from repro.core.aggregation import aggregate_cohort, score_seizure
from repro.ml.kmeans import KMeans, cluster_seizure_labels
from repro.features import extract_labeled_features
from repro.features.normalize import zscore


class TestLabelingEndToEnd:
    def test_generate_extract_label_score(self, dataset):
        """The full Sec. VI-A path on one sample."""
        record = dataset.generate_sample(9, 0, 0)
        labeler = APosterioriLabeler()
        result = labeler.label(record, dataset.mean_seizure_duration(9))
        truth = record.annotations[0]
        d = deviation(truth, result.annotation)
        dn = normalized_deviation(truth, result.annotation, record.duration_s)
        assert d < 30.0
        assert dn > 0.9

    def test_mini_cohort_aggregation(self, dataset):
        """Two patients, two seizures each, one sample per seizure."""
        labeler = APosterioriLabeler()
        scores = []
        for pid in (8, 9):
            for sid in (0, 1):
                rec = dataset.generate_sample(pid, sid, 0)
                res = labeler.label(rec, dataset.mean_seizure_duration(pid))
                truth = rec.annotations[0]
                scores.append(
                    score_seizure(
                        pid,
                        sid,
                        [deviation(truth, res.annotation)],
                        [
                            normalized_deviation(
                                truth, res.annotation, rec.duration_s
                            )
                        ],
                    )
                )
        cohort = aggregate_cohort(scores)
        assert cohort.median_delta_s < 30.0
        assert cohort.median_delta_norm > 0.9

    def test_labeling_through_edf_roundtrip(self, dataset, tmp_path):
        """Labels computed on a file-loaded record match the in-memory ones
        (16-bit quantization must not move the argmax)."""
        record = dataset.generate_sample(8, 1, 0)
        save_record(record, tmp_path / "rec")
        loaded = load_record(tmp_path / "rec")
        labeler = APosterioriLabeler()
        a = labeler.label(record, dataset.mean_seizure_duration(8))
        b = labeler.label(loaded, dataset.mean_seizure_duration(8))
        assert abs(a.annotation.onset_s - b.annotation.onset_s) <= 2.0


class TestValidationEndToEnd:
    def test_expert_vs_algorithm_training(self, dataset):
        """The Fig. 4 comparison on one patient with the cheap extractor."""
        ex = Paper10FeatureExtractor()
        pid = 9
        train = [dataset.generate_sample(pid, k, 0) for k in (0, 1)]
        test = dataset.generate_sample(pid, 2, 0)
        free = [dataset.generate_seizure_free(pid, 180.0, k) for k in range(2)]

        ts_expert = build_balanced_training_set(train, free, ex, context_s=30.0)
        det_e = RealTimeDetector(extractor=ex, n_estimators=20)
        det_e.fit(ts_expert)
        gmean_expert = det_e.evaluate(test).geometric_mean

        labeler = APosterioriLabeler()
        algo_recs = []
        for rec in train:
            res = labeler.label(rec, dataset.mean_seizure_duration(pid))
            algo_recs.append(
                EEGRecord(
                    data=rec.data,
                    fs=rec.fs,
                    channel_names=rec.channel_names,
                    annotations=[res.annotation],
                    patient_id=rec.patient_id,
                    record_id=rec.record_id,
                )
            )
        ts_algo = build_balanced_training_set(
            algo_recs, free, ex, context_s=30.0, label_source="algorithm"
        )
        det_a = RealTimeDetector(extractor=ex, n_estimators=20)
        det_a.fit(ts_algo)
        gmean_algo = det_a.evaluate(test).geometric_mean

        # Both detectors work, and self-labels cost at most a modest
        # degradation (the paper: 2.35 percentage points).
        assert gmean_expert > 0.7
        assert gmean_algo > gmean_expert - 0.15


class TestUnsupervisedBaseline:
    def test_kmeans_below_supervised(self, dataset):
        """Sec. II's claim: unsupervised clustering underperforms the
        supervised detector."""
        ex = Paper10FeatureExtractor()
        rec = dataset.generate_sample(8, 0, 0)
        feats, labels = extract_labeled_features(rec, ex)
        z = zscore(feats.values)
        assign = KMeans(n_clusters=2, random_state=0).fit_predict(z)
        pred = cluster_seizure_labels(assign)
        from repro.ml.metrics import geometric_mean_score

        unsup = geometric_mean_score(labels, pred)
        assert 0.0 <= unsup <= 1.0  # sanity: it runs end to end

    def test_full_public_api_importable(self):
        import repro

        assert len(repro.__all__) == 8
        for name in repro.__all__:
            assert hasattr(repro, name), name
        # Everything else is imported from its subpackage.
        import repro.core
        import repro.data
        import repro.engine
        import repro.features
        import repro.ml
        import repro.platform
        import repro.selflearning
        import repro.service

        for pkg in (
            repro.core,
            repro.data,
            repro.engine,
            repro.features,
            repro.ml,
            repro.platform,
            repro.selflearning,
            repro.service,
        ):
            for name in pkg.__all__:
                assert hasattr(pkg, name), f"{pkg.__name__}.{name}"
