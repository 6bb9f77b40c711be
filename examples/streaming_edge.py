"""Streaming edge deployment: chunked acquisition -> rolling buffer -> trigger.

The deployed wearable never holds a whole record: the AFE delivers small
sample chunks continuously, the device keeps a rolling feature history
(the "last hour" the patient trigger searches), and the a-posteriori
labeling runs on that buffer when the button is pressed.  This example
replays a record through that exact path — 250 ms chunks, bounded feature
memory — and shows the streamed label matching the batch one.

Run:
    python examples/streaming_edge.py
"""

from repro.core import APosterioriLabeler, deviation
from repro.data import SyntheticEEGDataset
from repro.core import StreamingLabeler
from repro.platform import MemoryBudget


def main() -> None:
    dataset = SyntheticEEGDataset(duration_range_s=(480.0, 720.0))
    record = dataset.generate_sample(patient_id=9, seizure_index=0)
    truth = record.annotations[0]
    prior = dataset.mean_seizure_duration(9)
    print(f"record: {record}")
    print(f"true seizure: [{truth.onset_s:.0f}, {truth.offset_s:.0f}] s")

    # --- stream the record in 250 ms chunks ----------------------------
    streamer = StreamingLabeler(
        avg_seizure_duration_s=prior,
        fs=record.fs,
        lookback_s=record.duration_s + 10.0,
    )
    chunk = int(0.25 * record.fs)
    pos = 0
    while pos < record.n_samples:
        streamer.push(record.data[:, pos : pos + chunk])
        pos += chunk
    print(f"streamed {pos} samples in {pos // chunk} chunks; "
          f"{streamer.seconds_buffered:.0f} s of features buffered")

    # --- patient presses the button -------------------------------------
    streamed_label, _ = streamer.trigger()
    print(f"streamed label: [{streamed_label.onset_s:.0f}, "
          f"{streamed_label.offset_s:.0f}] s")

    batch_label = APosterioriLabeler().label(record, prior).annotation
    print(f"batch label:    [{batch_label.onset_s:.0f}, "
          f"{batch_label.offset_s:.0f}] s")
    print(f"streamed vs truth: {deviation(truth, streamed_label):.1f} s; "
          f"streamed vs batch: {deviation(batch_label, streamed_label):.1f} s")

    # --- memory footprint on the MCU ------------------------------------
    n_rows = len(streamer.buffer)
    feat_bytes = n_rows * streamer.buffer.rows.shape[1] * 4  # float32 port
    budget = MemoryBudget()
    print(f"\nfeature buffer: {n_rows} rows x "
          f"{streamer.buffer.rows.shape[1]} features = {feat_bytes / 1024:.0f} KB "
          f"(flash budget {budget.mcu.flash_bytes // 1024} KB: "
          f"{'fits' if budget.fits_flash(feat_bytes) else 'DOES NOT FIT'})")


if __name__ == "__main__":
    main()
