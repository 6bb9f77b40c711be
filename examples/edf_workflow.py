"""File-based workflow: EDF persistence round trip (Sec. V-A tooling).

CHB-MIT distributes EDF recordings with text annotation summaries; this
example shows the equivalent flow with the built-in EDF substrate:
generate a record, persist it as ``.edf`` + ``.seizures.txt``, reload it,
and verify that the a-posteriori label computed from the file matches the
one computed in memory (i.e. 16-bit acquisition quantization does not
move the detection).

Run:
    python examples/edf_workflow.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core import APosterioriLabeler, deviation
from repro.data import SyntheticEEGDataset, load_record, save_record


def main() -> None:
    dataset = SyntheticEEGDataset(duration_range_s=(420.0, 600.0))
    record = dataset.generate_sample(patient_id=5, seizure_index=0)
    prior = dataset.mean_seizure_duration(5)

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / record.record_id
        edf_path, summary_path = save_record(record, base)
        size_mb = Path(edf_path).stat().st_size / 1e6
        print(f"wrote {edf_path} ({size_mb:.1f} MB) and {summary_path}")

        loaded = load_record(base)
        err = np.abs(loaded.data - record.data).max()
        print(f"reload max quantization error: {err:.4f} uV "
              f"(range {np.abs(record.data).max():.0f} uV, 16-bit)")
        print(f"annotations preserved: {loaded.annotations[0].onset_s:.1f} -> "
              f"{loaded.annotations[0].offset_s:.1f} s")

        labeler = APosterioriLabeler()
        mem = labeler.label(record, prior).annotation
        file = labeler.label(loaded, prior).annotation
        print(f"label from memory: [{mem.onset_s:.0f}, {mem.offset_s:.0f}] s")
        print(f"label from file:   [{file.onset_s:.0f}, {file.offset_s:.0f}] s")
        print(f"label deviation memory vs file: "
              f"{deviation(mem, file):.2f} s (expect ~0)")


if __name__ == "__main__":
    main()
