"""ReproSettings: one snapshot for every REPRO_* environment knob."""

import pytest

from repro.data.sampling import PAPER_DURATION_RANGE_S
from repro.exceptions import ServiceError
from repro.service import ServiceConfig
from repro.settings import (
    DEFAULT_QUEUE_DEPTH,
    ENV_SERVICE_BACKPRESSURE,
    ENV_SERVICE_QUEUE_DEPTH,
    ENV_SERVICE_WORKERS,
    ReproSettings,
)


class TestDefaults:
    def test_empty_env_gives_defaults(self):
        settings = ReproSettings.from_env({})
        assert settings.samples_per_seizure is None
        assert settings.paper_durations is False
        assert settings.service_queue_depth == DEFAULT_QUEUE_DEPTH
        assert settings.service_backpressure == "reject"
        assert settings.service_workers == 1

    def test_to_dict(self):
        body = ReproSettings.from_env({}).to_dict()
        assert body["samples_per_seizure"] is None
        assert body["service_queue_depth"] == DEFAULT_QUEUE_DEPTH
        assert body["service_workers"] == 1


class TestFromEnv:
    def test_resolves_every_knob(self):
        settings = ReproSettings.from_env(
            {
                "REPRO_SAMPLES_PER_SEIZURE": "7",
                "REPRO_PAPER_DURATIONS": "1",
                ENV_SERVICE_QUEUE_DEPTH: "16",
                ENV_SERVICE_BACKPRESSURE: "shed-oldest",
                ENV_SERVICE_WORKERS: "4",
            }
        )
        assert settings.samples_per_seizure == 7
        assert settings.paper_durations is True
        assert settings.service_queue_depth == 16
        assert settings.service_backpressure == "shed-oldest"
        assert settings.service_workers == 4

    def test_reads_process_environment_by_default(self, monkeypatch):
        monkeypatch.setenv(ENV_SERVICE_QUEUE_DEPTH, "5")
        monkeypatch.setenv("REPRO_SAMPLES_PER_SEIZURE", "4")
        settings = ReproSettings.from_env()
        assert settings.service_queue_depth == 5
        assert settings.samples_per_seizure == 4

    def test_snapshot_does_not_track_later_env_changes(self, monkeypatch):
        monkeypatch.setenv(ENV_SERVICE_QUEUE_DEPTH, "5")
        settings = ReproSettings.from_env()
        monkeypatch.setenv(ENV_SERVICE_QUEUE_DEPTH, "99")
        assert settings.service_queue_depth == 5

    def test_bad_queue_depth_raises(self):
        with pytest.raises(ServiceError):
            ReproSettings.from_env({ENV_SERVICE_QUEUE_DEPTH: "zero"})
        with pytest.raises(ServiceError):
            ReproSettings.from_env({ENV_SERVICE_QUEUE_DEPTH: "0"})

    def test_bad_backpressure_raises(self):
        with pytest.raises(ServiceError):
            ReproSettings.from_env({ENV_SERVICE_BACKPRESSURE: "drop"})

    def test_bad_workers_raises(self):
        with pytest.raises(ServiceError):
            ReproSettings.from_env({ENV_SERVICE_WORKERS: "many"})
        with pytest.raises(ServiceError):
            ReproSettings.from_env({ENV_SERVICE_WORKERS: "0"})


class TestValidation:
    def test_direct_construction_validates(self):
        with pytest.raises(ServiceError):
            ReproSettings(service_queue_depth=0)
        with pytest.raises(ServiceError):
            ReproSettings(service_backpressure="drop")
        with pytest.raises(ServiceError):
            ReproSettings(service_workers=0)


class TestResolvers:
    def test_resolve_samples(self):
        assert ReproSettings().resolve_samples(3) == 3
        assert ReproSettings(samples_per_seizure=9).resolve_samples(3) == 9

    def test_resolve_duration_range(self):
        default = (300.0, 360.0)
        assert ReproSettings().resolve_duration_range(default) == default
        assert (
            ReproSettings(paper_durations=True).resolve_duration_range(default)
            == PAPER_DURATION_RANGE_S
        )


class TestThreading:
    def test_service_config_from_settings(self):
        settings = ReproSettings(
            service_queue_depth=4, service_backpressure="shed-oldest"
        )
        config = ServiceConfig.from_settings(settings)
        assert config.queue_depth == 4
        assert config.backpressure == "shed-oldest"
        # Overrides win over the snapshot.
        config = ServiceConfig.from_settings(settings, queue_depth=2)
        assert config.queue_depth == 2
        assert config.backpressure == "shed-oldest"

    def test_service_config_from_env_snapshot(self):
        settings = ReproSettings.from_env(
            {
                ENV_SERVICE_QUEUE_DEPTH: "3",
                ENV_SERVICE_BACKPRESSURE: "reject",
                ENV_SERVICE_WORKERS: "2",
            }
        )
        config = ServiceConfig.from_settings(settings)
        assert config.queue_depth == 3
        assert config.backpressure == "reject"
        assert config.workers == 2
        # Explicit override still wins over the env snapshot.
        assert ServiceConfig.from_settings(settings, workers=1).workers == 1
