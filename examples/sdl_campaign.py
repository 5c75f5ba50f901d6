"""Self-driving laboratory campaign with live monitoring and provenance.

Reproduces the Section VI-A application: robots and instruments publish
every workflow step to a global Octopus event log; dashboards read the log
for live status, provenance chains and throughput summaries, and stalled
experiments are detected from the same stream.

Run with::

    python examples/sdl_campaign.py
"""

from repro.apps.sdl import SelfDrivingLab
from repro.common.clock import ManualClock
from repro.core import OctopusDeployment


def main() -> None:
    # A manual clock lets the campaign span hours without waiting for them.
    clock = ManualClock(1_700_000_000.0)
    deployment = OctopusDeployment.create(clock=clock)
    operator = deployment.client("sdl-operator", "anl.gov")
    lab = SelfDrivingLab(operator)

    # One experiment stalls mid-flight; two hours pass before the campaign.
    lab.record_action("catalyst-stuck", "xrd-beamline", "running_instrument")
    clock.advance(7200.0)

    # Run a small campaign across two instruments.
    for index in range(3):
        lab.run_experiment(f"perovskite-{index}", "robot-arm-1",
                           results={"bandgap_ev": 1.5 + 0.05 * index})
    for index in range(2):
        lab.run_experiment(f"catalyst-{index}", "xrd-beamline",
                           results={"phase": "cubic"})

    print("Campaign status:")
    for experiment, stage in sorted(lab.experiment_status().items()):
        print(f"  {experiment:>16}: {stage}")
    print("Completed experiments per instrument:", lab.throughput_summary())
    print("Stalled experiments:", lab.detect_stalled(timeout_seconds=3600.0))

    print("\nProvenance of perovskite-1:")
    for event in lab.provenance("perovskite-1"):
        print(f"  {event['action']:<20} @ {event['timestamp']:.3f}")

    # Live monitoring only sees events published after it attaches.
    monitor = lab.live_monitor()
    lab.record_action("perovskite-3", "robot-arm-1", "designed")
    fresh = [record.value["experiment_id"] for record in monitor.poll_flat()]
    print("\nLive monitor saw new events for:", fresh)


if __name__ == "__main__":
    main()
