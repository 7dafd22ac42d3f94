#!/usr/bin/env python3
"""Trace-validity gate: assert a bench run emitted a well-formed
Chrome trace and a non-empty blame export.

    check_trace.py trace.json [metrics.prom]
    check_trace.py --bundle <incident-bundle-dir | incidents-dir>
    check_trace.py --timeseries <series.csv>

Positional mode checks, in order:
  1. The trace parses as Chrome trace-event JSON ({"traceEvents": [...]}),
     every event carries a name and a known phase, and every pid a
     data event uses is named by a process_name metadata event.
  2. The span-exemplar track (pid 6) is present and well-formed:
     nestable-async begins/ends balance per span id, no "e" before
     its "b", nothing left open at end of trace.
  3. The metrics file (when given) contains a non-empty blame export:
     agentsim_blame_* families with a positive request count.

--bundle mode validates a flight-recorder incident bundle (or every
incident-*/ bundle under a directory of them):
  1. manifest.json follows the agentsim-incident-v1 schema with a
     known trigger, a well-ordered retroactive window ending at the
     trigger time, and a non-empty windowed blame table.
  2. trace.json parses; every event intersects the manifest window;
     every pid a data event uses has a process_name; the recorder's
     own "incident" span lanes balance begins/ends.
  3. timeseries.csv passes the --timeseries checks below, every
     sample lies inside the window, and its clock agrees with the
     trace's (shared sim timebase).

--timeseries mode validates a time-series CSV (a bench's --csv output
or a bundle's timeseries.csv): the series,time_s,value header, rows
of three CSV fields (a labelled series key is quoted) with parseable
numbers, times that never decrease
within a series, and at least one sample.

Exits non-zero with a one-line reason on the first violation.
"""

import csv
import json
import os
import sys

SPAN_PID = 6  # telemetry::TracePid::kSpans
KNOWN_PHASES = {"X", "i", "C", "M", "b", "e"}
KNOWN_TRIGGERS = {"slo_burn", "brownout", "breaker_open", "autoscale",
                  "deadline_miss_spike"}
CLOCK_EPS_S = 1e-3  # tolerance between trace/timeseries clocks


def fail(msg: str) -> None:
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_track_names(path: str, events: list) -> None:
    """Fail unless every data event's pid has a process_name."""
    named = {ev.get("pid") for ev in events
             if ev.get("ph") == "M" and ev.get("name") == "process_name"}
    used = {ev.get("pid") for ev in events if ev.get("ph") != "M"}
    unnamed = used - named
    if unnamed:
        fail(f"{path}: pid(s) {sorted(unnamed, key=str)} carry data "
             f"events but no process_name")


def check_trace(path: str) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not parseable as JSON: {e}")

    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents array")

    open_spans: dict[tuple[int, str], int] = {}
    span_events = 0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"{path}: event #{i} is not an object")
        ph = ev.get("ph")
        if ph not in KNOWN_PHASES:
            fail(f"{path}: event #{i} has unknown phase {ph!r}")
        if ph != "M" and "name" not in ev:
            fail(f"{path}: event #{i} ({ph}) has no name")
        if ev.get("pid") != SPAN_PID or ph not in ("b", "e"):
            continue
        span_events += 1
        key = (ev["pid"], ev.get("id", ""))
        if ph == "b":
            open_spans[key] = open_spans.get(key, 0) + 1
        else:
            depth = open_spans.get(key, 0)
            if depth == 0:
                fail(f"{path}: event #{i} ends span id "
                     f"{key[1]} that was never begun")
            open_spans[key] = depth - 1

    check_track_names(path, events)
    if span_events == 0:
        fail(f"{path}: no span exemplars on trace pid {SPAN_PID}")
    leaked = {k: d for k, d in open_spans.items() if d != 0}
    if leaked:
        fail(f"{path}: {len(leaked)} span id(s) left open: "
             f"{sorted(k[1] for k in leaked)[:5]}")
    print(f"check_trace: {path}: {len(events)} events, "
          f"{span_events} span events, all balanced")


def check_metrics(path: str) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(f"{path}: unreadable: {e}")

    blame = [l for l in lines
             if l.startswith("agentsim_blame_") and not l.startswith("#")]
    if not blame:
        fail(f"{path}: no agentsim_blame_* samples (empty blame table)")
    requests = 0.0
    for line in blame:
        if line.startswith("agentsim_blame_requests"):
            try:
                requests += float(line.rsplit(None, 1)[-1])
            except ValueError:
                fail(f"{path}: unparseable sample: {line!r}")
    if requests <= 0:
        fail(f"{path}: blame export covers zero requests")
    print(f"check_trace: {path}: {len(blame)} blame samples, "
          f"{requests:.0f} requests blamed")


def check_timeseries(path: str) -> list[float]:
    """Validate a series,time_s,value CSV; return its sample times."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(f"{path}: unreadable: {e}")
    if not lines or lines[0] != "series,time_s,value":
        fail(f"{path}: missing series,time_s,value header")
    times = []
    last_time: dict[str, float] = {}
    # A labelled series key (name{k="v",...}) is a quoted CSV field.
    for line, parts in zip(lines[1:], csv.reader(lines[1:])):
        if not line:
            continue
        if len(parts) != 3:
            fail(f"{path}: malformed row {line!r}")
        try:
            t = float(parts[1])
            float(parts[2])
        except ValueError:
            fail(f"{path}: unparseable row {line!r}")
        series = parts[0]
        if t < last_time.get(series, t):
            fail(f"{path}: series {series} goes back in time at {t}s")
        last_time[series] = t
        times.append(t)
    if not times:
        fail(f"{path}: no time-series samples")
    return times


def check_bundle(bundle: str) -> None:
    manifest_path = os.path.join(bundle, "manifest.json")
    try:
        with open(manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{manifest_path}: not parseable as JSON: {e}")

    # 1. Manifest schema, window ordering, non-empty windowed blame.
    if manifest.get("schema") != "agentsim-incident-v1":
        fail(f"{manifest_path}: unknown schema "
             f"{manifest.get('schema')!r}")
    trigger = manifest.get("trigger")
    if trigger not in KNOWN_TRIGGERS:
        fail(f"{manifest_path}: unknown trigger {trigger!r}")
    try:
        w_from = float(manifest["window_from_s"])
        w_to = float(manifest["window_to_s"])
        t_trig = float(manifest["trigger_time_s"])
    except (KeyError, TypeError, ValueError) as e:
        fail(f"{manifest_path}: bad window bounds: {e}")
    if not w_from <= w_to:
        fail(f"{manifest_path}: window [{w_from}, {w_to}] is reversed")
    if abs(w_to - t_trig) > CLOCK_EPS_S:
        fail(f"{manifest_path}: window ends at {w_to} but trigger "
             f"fired at {t_trig}")
    blame = manifest.get("blame_seconds")
    if not isinstance(blame, dict) or not blame:
        fail(f"{manifest_path}: missing blame_seconds table")
    spans_in_window = int(manifest.get("span_completions", 0))
    if spans_in_window > 0:
        total = float(manifest.get("blame_total_seconds", 0.0))
        if total <= 0 or all(v <= 0 for v in blame.values()):
            fail(f"{manifest_path}: {spans_in_window} span "
                 f"completions but an empty windowed blame table")

    # 2. Bundle trace: parses, events intersect the window, the
    #    recorder's own incident span lanes balance.
    trace_path = os.path.join(bundle, "trace.json")
    try:
        with open(trace_path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{trace_path}: not parseable as JSON: {e}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{trace_path}: no traceEvents array")

    from_us = (w_from - CLOCK_EPS_S) * 1e6
    to_us = (w_to + CLOCK_EPS_S) * 1e6
    open_lanes: dict[str, int] = {}
    incident_begins = 0
    trace_min_us = None
    trace_max_us = None
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in KNOWN_PHASES:
            fail(f"{trace_path}: event #{i} has unknown phase {ph!r}")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            fail(f"{trace_path}: event #{i} has no timestamp")
        end = ts + ev.get("dur", 0)
        if end < from_us or ts > to_us:
            fail(f"{trace_path}: event #{i} ({ev.get('name')!r}) "
                 f"lies outside the window "
                 f"[{w_from:.3f}s, {w_to:.3f}s]")
        trace_min_us = ts if trace_min_us is None else min(
            trace_min_us, ts)
        trace_max_us = end if trace_max_us is None else max(
            trace_max_us, end)
        if ev.get("cat") != "incident" or ph not in ("b", "e"):
            continue
        lane = str(ev.get("id", ""))
        if ph == "b":
            incident_begins += 1
            open_lanes[lane] = open_lanes.get(lane, 0) + 1
        else:
            if open_lanes.get(lane, 0) == 0:
                fail(f"{trace_path}: incident lane {lane} ends "
                     f"before it begins")
            open_lanes[lane] -= 1
    leaked = [k for k, d in open_lanes.items() if d != 0]
    if leaked:
        fail(f"{trace_path}: {len(leaked)} incident lane(s) left "
             f"open: {leaked[:5]}")
    check_track_names(trace_path, events)
    if incident_begins != spans_in_window:
        fail(f"{trace_path}: {incident_begins} incident lanes but "
             f"manifest declares {spans_in_window} span completions")

    # 3. Time series: in-window samples on the same clock.
    ts_path = os.path.join(bundle, "timeseries.csv")
    times = check_timeseries(ts_path)
    for t in times:
        if t < w_from - CLOCK_EPS_S or t > w_to + CLOCK_EPS_S:
            fail(f"{ts_path}: sample at {t}s outside the window "
                 f"[{w_from:.3f}s, {w_to:.3f}s]")
    samples = len(times)
    ts_min = min(times)
    ts_max = max(times)
    # Clock agreement: both artifacts cover overlapping sim time.
    if trace_min_us is not None:
        if ts_max * 1e6 < trace_min_us - CLOCK_EPS_S * 1e6 or \
           ts_min * 1e6 > trace_max_us + CLOCK_EPS_S * 1e6:
            fail(f"{bundle}: time-series span [{ts_min}, {ts_max}]s "
                 f"never overlaps the trace span "
                 f"[{trace_min_us / 1e6}, {trace_max_us / 1e6}]s — "
                 f"clock disagreement")

    print(f"check_trace: {bundle}: trigger {trigger}, window "
          f"[{w_from:.3f}s, {w_to:.3f}s], {len(events)} events, "
          f"{incident_begins} blamed spans, {samples} time-series "
          f"samples")


def check_bundles(path: str) -> None:
    if os.path.isfile(os.path.join(path, "manifest.json")):
        check_bundle(path)
        return
    bundles = sorted(
        os.path.join(path, d) for d in os.listdir(path)
        if d.startswith("incident-") and
        os.path.isdir(os.path.join(path, d))) if os.path.isdir(
            path) else []
    if not bundles:
        fail(f"{path}: no incident bundles found")
    for bundle in bundles:
        check_bundle(bundle)


def main(argv: list[str]) -> None:
    if len(argv) == 3 and argv[1] == "--bundle":
        check_bundles(argv[2])
        print("check_trace: OK")
        return
    if len(argv) == 3 and argv[1] == "--timeseries":
        times = check_timeseries(argv[2])
        print(f"check_trace: {argv[2]}: {len(times)} time-series "
              f"samples over [{min(times):.3f}s, {max(times):.3f}s]")
        print("check_trace: OK")
        return
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    check_trace(argv[1])
    if len(argv) == 3:
        check_metrics(argv[2])
    print("check_trace: OK")


if __name__ == "__main__":
    main(sys.argv)
