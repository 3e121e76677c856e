#!/usr/bin/env python3
"""Validate a wifisense telemetry snapshot (common/telemetry/snapshot.hpp).

Usage:
    check_snapshot.py SNAPSHOT.json
        [--require-recorder-label CATEGORY:LABEL]...
        [--require-window-quantile NAME [--min-count N]]
        [--require-slo NAME [--expect-state ok|warn|breach]]

Structural checks (always on):
  * the document parses as JSON and carries the v2 schema marker;
  * every section exists with its documented shape: "metrics"
    (counters/gauges), "windows" (counters/quantiles), "slo" (array of
    verdicts), "recorder" (dropped + events);
  * windowed quantile records carry window_s/count/late_dropped and the
    four quantile keys, with p50 <= p90 <= p99 <= p999 whenever count > 0
    (monotone by construction);
  * recorder events are sequence-ordered with string category/label;
  * SLO verdicts carry a known state and their burn/availability fields.

Content assertions (CI wiring, see .github/workflows/ci.yml):
  * --require-recorder-label tier:subset-fusion fails unless the recorder
    tail contains at least one event with that category and label —
    repeatable, used to assert the fusion ladder walk under injected
    link faults;
  * --require-window-quantile resilient.predict_us [--min-count N] fails
    unless the named windowed quantile is present (and saw >= N samples),
    proving the serving path actually recorded latency.

Exit status: 0 when every check passes, 1 otherwise (all failures are
listed, not just the first).
"""

import argparse
import json
import sys
from pathlib import Path

SCHEMA = "wifisense.telemetry_snapshot/v2"
QUANTILE_KEYS = ("p50", "p90", "p99", "p999")
SLO_STATES = ("ok", "warn", "breach")


class Checker:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def fail(self, msg: str) -> None:
        self.failures.append(msg)

    def expect(self, cond: bool, msg: str) -> bool:
        if not cond:
            self.fail(msg)
        return cond


def is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_metrics(c: Checker, metrics) -> None:
    if not c.expect(isinstance(metrics, dict), "metrics: not an object"):
        return
    for section in ("counters", "gauges"):
        values = metrics.get(section)
        if not c.expect(isinstance(values, dict),
                        f"metrics.{section}: missing or not an object"):
            continue
        for name, v in values.items():
            c.expect(is_num(v), f"metrics.{section}[{name}]: not numeric")


def check_windows(c: Checker, windows) -> None:
    if not c.expect(isinstance(windows, dict), "windows: not an object"):
        return
    counters = windows.get("counters")
    quantiles = windows.get("quantiles")
    c.expect(isinstance(counters, dict), "windows.counters: missing")
    c.expect(isinstance(quantiles, dict), "windows.quantiles: missing")
    for name, w in (counters or {}).items():
        for key in ("window_s", "total", "rate_per_s", "late_dropped"):
            c.expect(is_num(w.get(key)),
                     f"windows.counters[{name}]: missing numeric '{key}'")
    for name, w in (quantiles or {}).items():
        for key in ("window_s", "count", "late_dropped") + QUANTILE_KEYS:
            c.expect(is_num(w.get(key)),
                     f"windows.quantiles[{name}]: missing numeric '{key}'")
        qs = [w.get(k) for k in QUANTILE_KEYS]
        count = w.get("count")
        if all(is_num(q) for q in qs) and is_num(count) and count > 0:
            c.expect(qs == sorted(qs),
                     f"windows.quantiles[{name}]: quantiles not monotone: "
                     f"{qs}")


def check_slo(c: Checker, slo) -> None:
    if not c.expect(isinstance(slo, list), "slo: not an array"):
        return
    for i, v in enumerate(slo):
        tag = f"slo[{i}]"
        if not c.expect(isinstance(v, dict), f"{tag}: not an object"):
            continue
        c.expect(isinstance(v.get("name"), str), f"{tag}: missing name")
        c.expect(v.get("state") in SLO_STATES,
                 f"{tag}: state {v.get('state')!r} not in {SLO_STATES}")
        for key in ("fast_burn", "slow_burn", "availability_fast_pct",
                    "availability_slow_pct", "latency_fast_us",
                    "latency_slow_us", "requests_fast", "requests_slow"):
            c.expect(is_num(v.get(key)), f"{tag}: missing numeric '{key}'")
        for key in ("availability_breach", "latency_breach"):
            c.expect(isinstance(v.get(key), bool),
                     f"{tag}: missing boolean '{key}'")


def check_recorder(c: Checker, recorder) -> None:
    if not c.expect(isinstance(recorder, dict), "recorder: not an object"):
        return
    c.expect(is_num(recorder.get("dropped")), "recorder: missing 'dropped'")
    events = recorder.get("events")
    if not c.expect(isinstance(events, list), "recorder.events: not an array"):
        return
    prev_seq = -1
    for i, e in enumerate(events):
        tag = f"recorder.events[{i}]"
        if not c.expect(isinstance(e, dict), f"{tag}: not an object"):
            continue
        for key in ("category", "label"):
            c.expect(isinstance(e.get(key), str), f"{tag}: missing '{key}'")
        for key in ("seq", "tid", "t", "value", "extra"):
            c.expect(is_num(e.get(key)), f"{tag}: missing numeric '{key}'")
        seq = e.get("seq")
        if is_num(seq):
            c.expect(seq > prev_seq,
                     f"{tag}: seq {seq} not after {prev_seq}")
            prev_seq = seq


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Validate a wifisense telemetry snapshot")
    ap.add_argument("snapshot", type=Path)
    ap.add_argument("--require-recorder-label", action="append", default=[],
                    metavar="CATEGORY:LABEL",
                    help="fail unless the recorder tail has an event with "
                         "this category and label (repeatable)")
    ap.add_argument("--require-window-quantile", action="append", default=[],
                    metavar="NAME",
                    help="fail unless this windowed quantile exists "
                         "(repeatable; --min-count applies to each)")
    ap.add_argument("--min-count", type=int, default=1,
                    help="minimum sample count for every "
                         "--require-window-quantile (default 1)")
    ap.add_argument("--require-slo", action="append", default=[],
                    metavar="NAME", help="fail unless this SLO is present")
    ap.add_argument("--expect-state", choices=SLO_STATES, default=None,
                    help="state every --require-slo monitor must report")
    args = ap.parse_args()

    c = Checker()
    try:
        doc = json.loads(args.snapshot.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"check_snapshot: FAIL: cannot load {args.snapshot}: {exc}")
        return 1

    if c.expect(isinstance(doc, dict), "document: not an object"):
        c.expect(doc.get("schema") == SCHEMA,
                 f"schema: {doc.get('schema')!r} != {SCHEMA!r}")
        check_metrics(c, doc.get("metrics"))
        check_windows(c, doc.get("windows"))
        check_slo(c, doc.get("slo"))
        check_recorder(c, doc.get("recorder"))

        events = (doc.get("recorder") or {}).get("events") or []
        seen = {(e.get("category"), e.get("label"))
                for e in events if isinstance(e, dict)}
        for want in args.require_recorder_label:
            if ":" not in want:
                c.fail(f"--require-recorder-label {want!r}: want CATEGORY:LABEL")
                continue
            cat, label = want.split(":", 1)
            c.expect((cat, label) in seen,
                     f"recorder: no event with category={cat!r} "
                     f"label={label!r} in the {len(events)}-event tail")

        quantiles = (doc.get("windows") or {}).get("quantiles") or {}
        for name in args.require_window_quantile:
            w = quantiles.get(name)
            if not c.expect(isinstance(w, dict),
                            f"windows.quantiles[{name}]: required but absent"):
                continue
            count = w.get("count", 0)
            c.expect(is_num(count) and count >= args.min_count,
                     f"windows.quantiles[{name}]: count {count} < "
                     f"required {args.min_count}")

        verdicts = {v.get("name"): v for v in doc.get("slo") or []
                    if isinstance(v, dict)}
        for name in args.require_slo:
            v = verdicts.get(name)
            if not c.expect(v is not None, f"slo[{name}]: required but absent"):
                continue
            if args.expect_state is not None:
                c.expect(v.get("state") == args.expect_state,
                         f"slo[{name}]: state {v.get('state')!r} != "
                         f"{args.expect_state!r}")

    if c.failures:
        for f in c.failures:
            print(f"check_snapshot: FAIL: {f}")
        print(f"check_snapshot: {len(c.failures)} failure(s) in "
              f"{args.snapshot}")
        return 1
    n_events = len(((doc.get("recorder") or {}).get("events")) or [])
    print(f"check_snapshot: OK: {args.snapshot} "
          f"({len((doc.get('windows') or {}).get('quantiles') or {})} windowed "
          f"quantiles, {len(doc.get('slo') or [])} SLOs, "
          f"{n_events} recorder events)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
