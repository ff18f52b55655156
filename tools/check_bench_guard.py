#!/usr/bin/env python3
"""Bench-regression guard over soak/chaos correctness counters.

The soak binaries (chaos_soak, skew_soak, stream_soak, fleet_soak)
already exit nonzero when their invariants fail, but their verdict and
their emitted JSON are produced by the same process — a bug in the
binary's own `require()` wiring could print PASS while the counters
rot. This script re-checks the emitted BENCH_*.json files from the
outside: every correctness counter it knows about must be exactly zero,
every determinism flag must be true, and the exactly-once accounting
must balance: where an object reports both counters of a pair below,
they must be equal (each logical call commits exactly one dedup entry;
each reply the client lost is replayed from the cache exactly once).

Counters that are nonzero *by design* live in control-experiment
blocks: any object carrying "crc_enabled": false is the
integrity-disabled baseline (chaos_soak mode B exists to show silent
corruption happening) and is skipped wholesale.

Every file's "notes" list must hold whole notes: a one-character entry
is a note that was spread one character per element (a string handed
to something that iterates its argument), and fails the file.

Usage: check_bench_guard.py FILE.json [FILE.json ...]
Exit 0 when every file passes, 1 otherwise.
"""

import json
import sys

# Any of these, anywhere in a (non-control) object tree, must be 0.
MUST_BE_ZERO = {
    "wrong_responses",
    "unknown_responses",
    "lost_calls",
    "duplicate_execs",
    "silent_corruptions",
    "stale_epoch_dispatches",
    "verdict_disagreements",
    "message_mismatches",
    "engine_byte_mismatches",
    "roundtrip_mismatches",
}

# Any of these must be true (same-seed replay determinism flags).
MUST_BE_TRUE = {
    "deterministic_replay",
    "deterministic_counters",
}

# Counter pairs that must be equal wherever both sit in one object.
MUST_BE_EQUAL = (
    ("dedup_insertions", "calls"),
    ("dedup_hits", "client_reply_drops"),
    ("dedup_hits", "reply_drops"),  # fleet_soak's name for reply drops
)


def check(node, path, failures):
    if isinstance(node, dict):
        if node.get("crc_enabled") is False:
            return  # control experiment: nonzero counters are the point
        for a, b in MUST_BE_EQUAL:
            if a in node and b in node and node[a] != node[b]:
                where = f"{path}." if path else ""
                failures.append(f"{where}{a} = {node[a]} != "
                                f"{where}{b} = {node[b]} (expected equal)")
        for key, value in node.items():
            child = f"{path}.{key}" if path else key
            if key in MUST_BE_ZERO and isinstance(value, (int, float)):
                if value != 0:
                    failures.append(f"{child} = {value} (expected 0)")
            elif key in MUST_BE_TRUE and isinstance(value, bool):
                if not value:
                    failures.append(f"{child} = false (expected true)")
            else:
                check(value, child, failures)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            check(value, f"{path}[{i}]", failures)


def check_notes(node, path, failures):
    """Flag one-character entries in every "notes" list."""
    if isinstance(node, dict):
        for key, value in node.items():
            child = f"{path}.{key}" if path else key
            if key == "notes" and isinstance(value, list):
                for i, note in enumerate(value):
                    if isinstance(note, str) and len(note) == 1:
                        failures.append(
                            f"{child}[{i}] = {note!r} (a note split "
                            "into characters)")
            check_notes(value, child, failures)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            check_notes(value, f"{path}[{i}]", failures)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    ok = True
    for name in argv[1:]:
        try:
            with open(name, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            print(f"{name}: unreadable: {err}", file=sys.stderr)
            ok = False
            continue
        failures = []
        check(doc, "", failures)
        check_notes(doc, "", failures)
        if failures:
            ok = False
            for failure in failures:
                print(f"{name}: {failure}", file=sys.stderr)
        else:
            print(f"{name}: correctness counters and notes clean")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
