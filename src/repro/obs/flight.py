"""Flight recorder: a bounded ring of per-step records plus drift detectors.

Transient runs and solver-sequence benches are *sequences* — hundreds
of same-pattern solves whose health can drift long after any single
solve looks fine.  The :class:`FlightRecorder` keeps the last
``capacity`` steps' worth of per-step evidence (modeled/wall phase
durations, resilience health gauges, schedule/refactor cache counter
deltas, recovery-rung events) in a ring buffer, dumps and reloads it
as JSONL, and feeds a set of **deterministic drift detectors**:

* :func:`detect_step_cost_spike` — a step's modeled cost jumps well
  above the rolling median of the preceding window (a fault forcing a
  ladder escalation, a pattern drift forcing re-analysis, …).
* :func:`detect_cache_hit_drop` — a cache family (``schedule.tri``,
  ``schedule.refactor``, ``klu.refactor.schedule`` …) that had settled
  into hits starts missing or invalidating again.
* :func:`detect_pivot_growth_trend` — the ``gp.pivot_growth`` gauge
  blows past an absolute ceiling or climbs orders of magnitude above
  its rolling median.
* :func:`detect_recovery_events` — any step carried recovery-ladder
  events at all (clean sequences carry none).

Detectors look only at *modeled* costs, counters and gauges — all
deterministic — so a clean run produces bit-identical (empty) anomaly
lists across machines; wall times ride along in the records for human
consumption but are never gated on.  Every anomaly is a structured
``{"event": "obs.anomaly.<kind>", "step": …, …}`` dict.
"""

from __future__ import annotations

import json
import statistics
from collections import deque
from typing import Deque, Dict, List, Optional

from .tracer import get_tracer

__all__ = [
    "FlightRecorder",
    "detect_step_cost_spike",
    "detect_cache_hit_drop",
    "detect_pivot_growth_trend",
    "detect_recovery_events",
    "scan_anomalies",
]

# Counter suffixes that mark a counter as belonging to a cache family:
# "schedule.tri.hit" -> family "schedule.tri".  ".evictions" extends the
# standard families to the serving layer's shared pattern cache
# ("cache.hit" / "cache.miss" / "cache.evictions") — an eviction counts
# as a regression event exactly like a miss or an invalidation.
_CACHE_SUFFIXES = (".hit", ".miss", ".invalidate", ".evictions")


class FlightRecorder:
    """Bounded per-step record ring with JSONL round trip."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self._ring: Deque[dict] = deque(maxlen=capacity)
        self.dropped = 0          # records evicted by the ring bound
        self.total_steps = 0      # records ever offered
        self._last_counters: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def record_step(
        self,
        step: int,
        modeled_s: Optional[float] = None,
        wall_s: Optional[float] = None,
        phases: Optional[Dict[str, float]] = None,
        events: Optional[List[dict]] = None,
        metrics=None,
    ) -> dict:
        """Append one per-step record and return it.

        ``metrics`` defaults to the active tracer's registry; counter
        *deltas* since the previous record are stored (so each record
        describes what that step did, not cumulative totals), and the
        current gauge values are snapshotted.
        """
        if metrics is None:
            metrics = get_tracer().metrics
        counters = getattr(metrics, "counters", {}) or {}
        deltas = {}
        for name in sorted(counters):
            d = counters[name] - self._last_counters.get(name, 0)
            if d != 0:
                deltas[name] = d
        self._last_counters = dict(counters)
        gauges = getattr(metrics, "gauges", {}) or {}
        record = {
            "step": int(step),
            "modeled_s": float(modeled_s) if modeled_s is not None else None,
            "wall_s": float(wall_s) if wall_s is not None else None,
            "phases": {k: phases[k] for k in sorted(phases)} if phases else {},
            "gauges": {k: gauges[k] for k in sorted(gauges)},
            "deltas": deltas,
            "events": list(events) if events else [],
        }
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self.total_steps += 1
        self._ring.append(record)
        return record

    @property
    def records(self) -> List[dict]:
        """The retained records, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    # ------------------------------------------------------------------
    def scan(self, **kwargs) -> List[dict]:
        """Run every drift detector over the retained records."""
        return scan_anomalies(self.records, **kwargs)

    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """One sorted-keys JSON object per line, oldest record first,
        preceded by a header line describing the recorder itself."""
        header = {
            "type": "flight_header",
            "capacity": self.capacity,
            "dropped": self.dropped,
            "total_steps": self.total_steps,
        }
        lines = [json.dumps(header, sort_keys=True)]
        for rec in self._ring:
            lines.append(json.dumps({"type": "flight_step", **rec},
                                    sort_keys=True))
        return "\n".join(lines) + "\n"

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())

    @classmethod
    def from_jsonl(cls, text: str) -> "FlightRecorder":
        """Inverse of :meth:`to_jsonl` (exact record round trip)."""
        recorder = None
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            kind = obj.pop("type", None)
            if kind == "flight_header":
                recorder = cls(capacity=obj["capacity"])
                recorder.dropped = obj["dropped"]
                recorder.total_steps = obj["total_steps"]
            elif kind == "flight_step":
                if recorder is None:
                    raise ValueError("flight JSONL missing header line")
                recorder._ring.append(obj)
            else:
                raise ValueError(f"unknown flight record type: {kind!r}")
        if recorder is None:
            raise ValueError("empty flight JSONL")
        return recorder

    @classmethod
    def load(cls, path: str) -> "FlightRecorder":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_jsonl(fh.read())


# ----------------------------------------------------------------------
# Drift detectors — pure functions over record lists, modeled-only.
# ----------------------------------------------------------------------

def detect_step_cost_spike(
    records: List[dict],
    key: str = "modeled_s",
    window: int = 8,
    factor: float = 3.0,
    min_history: int = 4,
) -> List[dict]:
    """Steps whose modeled cost exceeds ``factor`` × the rolling median
    of the preceding ``window`` steps (needs ``min_history`` priors)."""
    events = []
    values = [r.get(key) for r in records]
    for i, rec in enumerate(records):
        v = values[i]
        if v is None or i < min_history:
            continue
        history = [x for x in values[max(0, i - window):i] if x is not None]
        if len(history) < min_history:
            continue
        med = statistics.median(history)
        if med > 0.0 and v > factor * med:
            events.append({
                "event": "obs.anomaly.step_cost_spike",
                "step": rec["step"],
                "key": key,
                "value": v,
                "rolling_median": med,
                "ratio": v / med,
                "threshold": factor,
            })
    return events


def _cache_families(records: List[dict]) -> List[str]:
    fams = set()
    for rec in records:
        for name in rec.get("deltas", {}):
            for suf in _CACHE_SUFFIXES:
                if name.endswith(suf):
                    fams.add(name[: -len(suf)])
    return sorted(fams)


def detect_cache_hit_drop(records: List[dict], warmup: int = 2) -> List[dict]:
    """Cache families that settled into hits and then regressed.

    Per family, fire on a record past ``warmup`` whose miss+invalidate
    delta is positive *after* some earlier record produced a hit — the
    self-calibrating rule that tolerates cold caches (families that
    never hit, e.g. a full-factor loop) without a whitelist.
    """
    events = []
    for fam in _cache_families(records):
        seen_hit = False
        for i, rec in enumerate(records):
            deltas = rec.get("deltas", {})
            hits = deltas.get(fam + ".hit", 0)
            misses = (deltas.get(fam + ".miss", 0)
                      + deltas.get(fam + ".invalidate", 0)
                      + deltas.get(fam + ".evictions", 0))
            if seen_hit and i >= warmup and misses > 0:
                events.append({
                    "event": "obs.anomaly.cache_hit_drop",
                    "step": rec["step"],
                    "family": fam,
                    "misses": misses,
                    "hits": hits,
                })
            if hits > 0:
                seen_hit = True
    return events


def detect_pivot_growth_trend(
    records: List[dict],
    gauge: str = "gp.pivot_growth",
    ceiling: float = 1e6,
    factor: float = 100.0,
    window: int = 8,
    min_history: int = 4,
) -> List[dict]:
    """Pivot growth punching through an absolute ceiling or climbing
    ``factor``× above its rolling median."""
    events = []
    values = [r.get("gauges", {}).get(gauge) for r in records]
    for i, rec in enumerate(records):
        v = values[i]
        if v is None:
            continue
        if v > ceiling:
            events.append({
                "event": "obs.anomaly.pivot_growth",
                "step": rec["step"],
                "gauge": gauge,
                "value": v,
                "reason": "ceiling",
                "threshold": ceiling,
            })
            continue
        history = [x for x in values[max(0, i - window):i] if x is not None]
        if len(history) < min_history:
            continue
        med = statistics.median(history)
        if med > 0.0 and v > factor * med:
            events.append({
                "event": "obs.anomaly.pivot_growth",
                "step": rec["step"],
                "gauge": gauge,
                "value": v,
                "reason": "trend",
                "rolling_median": med,
                "ratio": v / med,
                "threshold": factor,
            })
    return events


def detect_recovery_events(records: List[dict]) -> List[dict]:
    """Steps that carried recovery-ladder events (clean runs carry none)."""
    events = []
    for rec in records:
        evs = rec.get("events") or []
        if evs:
            events.append({
                "event": "obs.anomaly.recovery",
                "step": rec["step"],
                "count": len(evs),
                "rungs": sorted({str(e.get("succeeded"))
                                 for e in evs if isinstance(e, dict)}),
            })
    return events


def scan_anomalies(
    records: List[dict],
    spike_factor: float = 3.0,
    cache_warmup: int = 2,
    pivot_ceiling: float = 1e6,
) -> List[dict]:
    """All detectors, results ordered by step then event name."""
    events: List[dict] = []
    events.extend(detect_step_cost_spike(records, factor=spike_factor))
    events.extend(detect_cache_hit_drop(records, warmup=cache_warmup))
    events.extend(detect_pivot_growth_trend(records, ceiling=pivot_ceiling))
    events.extend(detect_recovery_events(records))
    events.sort(key=lambda e: (e["step"], e["event"]))
    return events
