"""Epidemic modelling and response platform (Section VI-D).

Web-based data sources (public health reports, hospital feeds, mobility
data) are polled on timers; updates are ingested, cleaned and validated,
transformed into a common schema, and published as events.  Octopus
triggers launch model retraining/inference on new data and publish model
results (e.g. R estimates) for decision makers, with anomaly events
notifying them directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.octopus import OctopusDeployment
from repro.core.sdk import OctopusClient
from repro.faas.function import FunctionDefinition
from repro.services.storage import ObjectStore


@dataclass
class DataSource:
    """One polled web data source producing case counts per region."""

    name: str
    region: str
    fetch: Callable[[int], List[float]]
    poll_interval_hours: float = 24.0
    polls: int = 0

    def poll(self) -> dict:
        """Fetch the latest observations (one 'timer-based event')."""
        self.polls += 1
        series = [float(x) for x in self.fetch(self.polls)]
        return {
            "event_type": "data_update",
            "source": self.name,
            "region": self.region,
            "poll": self.polls,
            "cases": series,
        }


def clean_series(cases: List[float]) -> List[float]:
    """Cleaning/validation: drop negatives and NaNs, forward-fill gaps."""
    cleaned: List[float] = []
    last_valid = 0.0
    for value in cases:
        if value is None or (isinstance(value, float) and math.isnan(value)) or value < 0:
            cleaned.append(last_valid)
        else:
            cleaned.append(float(value))
            last_valid = float(value)
    return cleaned


def estimate_r(cases: List[float], *, generation_interval: int = 4) -> float:
    """Crude reproduction-number estimate from the case series growth rate."""
    usable = [c for c in cases if c > 0]
    if len(usable) < generation_interval + 1:
        return 1.0
    recent = sum(usable[-generation_interval:]) / generation_interval
    earlier = sum(usable[-2 * generation_interval:-generation_interval]) / generation_interval \
        if len(usable) >= 2 * generation_interval else usable[0]
    if earlier <= 0:
        return 1.0
    growth = recent / earlier
    return float(max(0.0, growth ** (1.0 / 1.0)))


class EpidemicPlatform:
    """The event-driven epidemic monitoring/response pipeline."""

    DATA_TOPIC = "epi-data-updates"
    RESULTS_TOPIC = "epi-model-results"

    def __init__(
        self,
        deployment: OctopusDeployment,
        client: OctopusClient,
        *,
        anomaly_threshold_r: float = 1.5,
        store: Optional[ObjectStore] = None,
    ) -> None:
        self.deployment = deployment
        self.client = client
        self.anomaly_threshold_r = anomaly_threshold_r
        self.store = store or ObjectStore(clock=deployment.cluster.clock)
        self.sources: Dict[str, DataSource] = {}
        self.model_results: List[dict] = []
        self.notifications: List[dict] = []
        client.register_topic(self.DATA_TOPIC, {"num_partitions": 2})
        client.register_topic(self.RESULTS_TOPIC, {"num_partitions": 2})
        self._producer = client.producer()
        self._deploy_triggers()

    # ------------------------------------------------------------------ #
    def register_source(self, source: DataSource) -> None:
        self.sources[source.name] = source

    def _deploy_triggers(self) -> None:
        def model_handler(payload: dict, context) -> int:
            """Ingest → clean → validate → model → publish results."""
            processed = 0
            for record in payload["records"]:
                update = record["value"]
                cleaned = clean_series(update["cases"])
                r_value = estimate_r(cleaned)
                result = {
                    "event_type": "model_result",
                    "region": update["region"],
                    "source": update["source"],
                    "poll": update["poll"],
                    "r_estimate": r_value,
                    "total_cases": sum(cleaned),
                }
                self.model_results.append(result)
                self.store.put(
                    "epidemic-models",
                    f"{update['region']}/poll-{update['poll']:06d}.json",
                    result,
                )
                self._producer.send(self.RESULTS_TOPIC, result, key=update["region"])
                processed += 1
            return processed

        def notify_handler(payload: dict, context) -> int:
            """Notify decision makers when the predicted trend is concerning."""
            sent = 0
            for record in payload["records"]:
                result = record["value"]
                self.notifications.append({
                    "region": result["region"],
                    "r_estimate": result["r_estimate"],
                    "message": (
                        f"R estimate for {result['region']} is "
                        f"{result['r_estimate']:.2f}; review response measures"
                    ),
                })
                sent += 1
            return sent

        triggers = self.deployment.triggers
        triggers.register_function(
            FunctionDefinition(name="epi-run-models", handler=model_handler)
        )
        triggers.register_function(
            FunctionDefinition(name="epi-notify", handler=notify_handler)
        )
        self.model_trigger = self.client.create_trigger(
            self.DATA_TOPIC, "epi-run-models",
            filter_pattern={"value": {"event_type": ["data_update"]}},
        )["trigger_id"]
        self.notify_trigger = self.client.create_trigger(
            self.RESULTS_TOPIC, "epi-notify",
            filter_pattern={
                "value": {
                    "event_type": ["model_result"],
                    "r_estimate": [{"numeric": [">=", self.anomaly_threshold_r]}],
                }
            },
        )["trigger_id"]

    # ------------------------------------------------------------------ #
    def poll_sources(self) -> int:
        """Timer tick: poll every registered source and publish updates."""
        published = 0
        for source in self.sources.values():
            update = source.poll()
            self._producer.send(self.DATA_TOPIC, update, key=source.region)
            published += 1
        return published

    def run_pipeline(self) -> dict:
        """Process pending data updates and model results through the triggers."""
        self.deployment.triggers.process_pending(self.model_trigger)
        self.deployment.triggers.process_pending(self.notify_trigger)
        return {
            "model_results": len(self.model_results),
            "notifications": len(self.notifications),
        }

    def latest_r(self, region: str) -> Optional[float]:
        estimates = [r["r_estimate"] for r in self.model_results if r["region"] == region]
        return estimates[-1] if estimates else None

    def decision_dashboard(self) -> Dict[str, dict]:
        """Latest model output per region, as decision makers would see it."""
        dashboard: Dict[str, dict] = {}
        for result in self.model_results:
            dashboard[result["region"]] = {
                "r_estimate": result["r_estimate"],
                "total_cases": result["total_cases"],
                "poll": result["poll"],
            }
        return dashboard
