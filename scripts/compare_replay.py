#!/usr/bin/env python3
"""Compare a replayed trace with a recorded one, event for event.

Usage: compare_replay.py REPLAYED.jsonl RECORDED.jsonl

`devs-scc simulate --sequence` names each event's sequence index `trace`;
a campaign's `traces.jsonl` names it `sequence`.  The replayed events are
renamed to match, both files are compared as lists of JSON objects, and
the exit status is 0 when they are equal, 1 otherwise.
"""

import json
import sys


def main(replayed_path: str, recorded_path: str) -> int:
    with open(replayed_path, encoding="utf-8") as f:
        replayed = [json.loads(line) for line in f]
    for event in replayed:
        event["sequence"] = event.pop("trace")
    with open(recorded_path, encoding="utf-8") as f:
        recorded = [json.loads(line) for line in f]
    print(f"{recorded_path}: {len(replayed)} events replayed, {len(recorded)} recorded")
    return int(replayed != recorded)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
