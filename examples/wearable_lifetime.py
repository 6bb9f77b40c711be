"""Battery-lifetime exploration of the wearable platform (Sec. VI-C).

Reproduces every number of the paper's energy analysis — Table III, the
Fig. 5 energy shares, and the labeling-only / detection-only operating
points — then sweeps seizure frequency to show how little the labeling
algorithm costs.

Run:
    python examples/wearable_lifetime.py
"""

from repro.platform import WearablePlatform
from repro.platform import MemoryBudget, RuntimeModel


def main() -> None:
    platform = WearablePlatform()

    print("=== Table III: full self-learning system, 1 seizure/day ===")
    budget = platform.full_system_budget(seizures_per_day=1.0)
    header = f"{'Task':22s} {'I (mA)':>8s} {'Duty %':>8s} {'Avg mA':>8s} {'Energy %':>9s}"
    print(header)
    for row in budget.table_rows():
        print(
            f"{row['task']:22s} {row['current_ma']:8.3f} "
            f"{row['duty_cycle_pct']:8.2f} {row['avg_current_ma']:8.3f} "
            f"{row['energy_pct']:9.2f}"
        )
    est = platform.lifetime(budget)
    print(f"battery lifetime: {est.hours:.2f} h = {est.days:.2f} days "
          f"(paper: 2.59 days)\n")

    print("=== Operating points ===")
    det = platform.lifetime(platform.detection_only_budget())
    print(f"detection only:          {det.hours:7.2f} h ({det.days:.2f} days; paper 65.15 h)")
    for f, label in ((1 / 30.0, "1 seizure/month"), (1.0, "1 seizure/day")):
        lab = platform.lifetime(platform.labeling_only_budget(f))
        print(f"labeling only, {label:16s}: {lab.hours:7.2f} h ({lab.days:.2f} days)")

    print("\n=== Lifetime vs seizure frequency (full system) ===")
    print(f"{'seizures/day':>14s} {'lifetime (days)':>16s}")
    for f in (0.0, 1 / 30.0, 0.25, 0.5, 1.0, 2.0, 4.0):
        est = platform.lifetime(platform.full_system_budget(f))
        print(f"{f:14.3f} {est.days:16.3f}")

    print("\n=== Memory accounting (Sec. V-B / VI-C) ===")
    for key, value in MemoryBudget().hourly_report().items():
        print(f"{key:35s} {value:10.1f} KB")

    print("\n=== Algorithm 1 runtime on the STM32L151 ===")
    model = RuntimeModel()
    for hours in (0.5, 1.0):
        length = int(hours * 3600)
        t = model.processing_time_s(length, 60, 10)
        print(f"{hours:.1f} h of signal (W=60, F=10): {t:8.1f} s processing "
              f"-> realtime factor {t / (hours * 3600):.2f}")


if __name__ == "__main__":
    main()
