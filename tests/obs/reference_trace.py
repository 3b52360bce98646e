"""The original Chrome-trace converter, kept as the oracle for the fast one.

:func:`repro.obs.trace.chrome_events` numbers each process's tracks with
a per-pid counter; this copy finds the next thread id by scanning every
known track, as the converter first did.  Tests pin the two to
byte-identical JSON.
"""

from __future__ import annotations

from repro.obs.trace import _SIM_PID, _WALL_PID, _wall_epoch


def reference_chrome_events(records: list[dict]) -> list[dict]:
    """Convert trace records into Chrome ``trace_event`` dicts.

    Simulated-time records land in process 1 ("simulated time"), wall
    records in process 2 ("wall time"); a record carrying both clocks
    appears in both.  Thread ids are assigned per track in first-seen
    order — deterministic, because record order is.
    """
    tids: dict[tuple[int, str], int] = {}
    events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": _SIM_PID, "tid": 0,
         "args": {"name": "simulated time"}},
        {"ph": "M", "name": "process_name", "pid": _WALL_PID, "tid": 0,
         "args": {"name": "wall time"}},
    ]
    epoch = _wall_epoch(records)

    def tid_for(pid: int, track: str) -> int:
        key = (pid, track)
        if key not in tids:
            tids[key] = len([k for k in tids if k[0] == pid]) + 1
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tids[key],
                "args": {"name": track},
            })
        return tids[key]

    for rec in records:
        rtype = rec.get("type")
        args = rec.get("args", {})
        if rtype == "span":
            if rec.get("sim_t0") is not None:
                events.append({
                    "ph": "X", "name": rec["name"], "cat": rec["cat"],
                    "pid": _SIM_PID, "tid": tid_for(_SIM_PID, rec["track"]),
                    "ts": rec["sim_t0"] * 1e6,
                    "dur": (rec.get("sim_dur") or 0.0) * 1e6,
                    "args": args,
                })
            if rec.get("wall_t0") is not None:
                events.append({
                    "ph": "X", "name": rec["name"], "cat": rec["cat"],
                    "pid": _WALL_PID, "tid": tid_for(_WALL_PID, rec["track"]),
                    "ts": (rec["wall_t0"] - epoch) * 1e6,
                    "dur": (rec.get("wall_dur") or 0.0) * 1e6,
                    "args": args,
                })
        elif rtype == "instant":
            if rec.get("sim_t") is not None:
                events.append({
                    "ph": "i", "s": "t", "name": rec["name"], "cat": rec["cat"],
                    "pid": _SIM_PID, "tid": tid_for(_SIM_PID, rec["track"]),
                    "ts": rec["sim_t"] * 1e6, "args": args,
                })
            if rec.get("wall_t") is not None:
                events.append({
                    "ph": "i", "s": "t", "name": rec["name"], "cat": rec["cat"],
                    "pid": _WALL_PID, "tid": tid_for(_WALL_PID, rec["track"]),
                    "ts": (rec["wall_t"] - epoch) * 1e6, "args": args,
                })
        elif rtype == "metrics" and rec.get("sim_t") is not None:
            ts = rec["sim_t"] * 1e6
            for name, value in rec.get("counters", {}).items():
                events.append({
                    "ph": "C", "name": name, "pid": _SIM_PID,
                    "tid": tid_for(_SIM_PID, "metrics"),
                    "ts": ts, "args": {"value": value},
                })
            for name, value in rec.get("gauges", {}).items():
                events.append({
                    "ph": "C", "name": name, "pid": _SIM_PID,
                    "tid": tid_for(_SIM_PID, "metrics"),
                    "ts": ts, "args": {"value": value},
                })
    return events
