"""Prometheus text exposition (version 0.0.4) for the ``/metrics`` snapshot.

Renders the same dict :meth:`ScoringServer._metrics_payload` serves as
JSON, so the two formats can never drift: scalar counters become
``repro_<name>`` samples, ``responses_by_status`` and
``batch_size_histogram`` become labelled families, and the per-model
section becomes ``repro_model_*{model="..."}`` gauges plus a
``repro_model_info`` series carrying version/config labels.  Zero
dependencies — just string assembly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

__all__ = ["CONTENT_TYPE", "render_prometheus"]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

# Scalar snapshot keys ending in _total are monotonically increasing.
_COUNTER_SUFFIX = "_total"


def _escape_label(value: Any) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: Any) -> str:
    number = float(value)
    if number.is_integer():
        return str(int(number))
    return repr(number)


class _Writer:
    def __init__(self) -> None:
        self.lines: List[str] = []
        self._typed: set = set()

    def sample(
        self,
        name: str,
        value: Any,
        labels: Optional[Mapping[str, Any]] = None,
        kind: str = "gauge",
        help_text: str = "",
    ) -> None:
        if name not in self._typed:
            self._typed.add(name)
            if help_text:
                self.lines.append(f"# HELP {name} {help_text}")
            self.lines.append(f"# TYPE {name} {kind}")
        label_str = ""
        if labels:
            inner = ",".join(f'{key}="{_escape_label(val)}"' for key, val in labels.items())
            label_str = "{" + inner + "}"
        self.lines.append(f"{name}{label_str} {_format_value(value)}")

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_prometheus(snapshot: Dict[str, Any]) -> str:
    """Turn the ``/metrics`` JSON payload into exposition text."""
    writer = _Writer()

    for key, value in snapshot.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        kind = "counter" if key.endswith(_COUNTER_SUFFIX) else "gauge"
        writer.sample(f"repro_{key}", value, kind=kind)

    for status, count in sorted((snapshot.get("responses_by_status") or {}).items()):
        writer.sample(
            "repro_responses_by_status_total",
            count,
            labels={"status": status},
            kind="counter",
            help_text="HTTP responses by status code.",
        )

    for size, count in sorted((snapshot.get("batch_size_histogram") or {}).items()):
        writer.sample(
            "repro_batch_size_count",
            count,
            labels={"size": size},
            kind="counter",
            help_text="Micro-batches by batch size.",
        )

    queue = snapshot.get("queue") or {}
    for key, value in queue.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            writer.sample(f"repro_queue_{key}", value)

    jobs = snapshot.get("jobs") or {}
    for key, value in jobs.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            kind = "counter" if key.endswith(_COUNTER_SUFFIX) else "gauge"
            writer.sample(f"repro_jobs_{key}", value, kind=kind)
    for state, count in sorted((jobs.get("queue_depth") or {}).items()):
        writer.sample(
            "repro_jobs_queue_depth",
            count,
            labels={"state": state},
            help_text="Durable job store depth by state.",
        )
    for tenant, counters in sorted((jobs.get("tenants") or {}).items()):
        for key, value in sorted(counters.items()):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                kind = "counter" if key.endswith(_COUNTER_SUFFIX) else "gauge"
                writer.sample(
                    f"repro_jobs_tenant_{key}",
                    value,
                    labels={"tenant": tenant},
                    kind=kind,
                    help_text="Per-tenant async job activity.",
                )

    for model, info in sorted((snapshot.get("models") or {}).items()):
        labels = {"model": model}
        writer.sample(
            "repro_model_info",
            1,
            labels={
                "model": model,
                "version": info.get("version", 0),
                "config_hash": str(info.get("config_hash", ""))[:12],
            },
            help_text="Static info labels per registered model.",
        )
        for key in ("version", "swap_count", "requests_served", "tape_nodes_total"):
            if key in info:
                writer.sample(f"repro_model_{key}", info[key], labels=labels)

    return writer.render()
