#!/usr/bin/env python3
"""Compare two result records written by run.py (perfbench/out/result-*.json).

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) unless both records ran the same workload, trace mode,
reduction backend and inputs (input_sha256): the two backends differ 2-9x
on the kernel, and different inputs are different work.  Otherwise prints
each metric's change; for end-to-end metrics it marks a change worse than
the bound fixed in metrics.py.
"""

from __future__ import annotations

import json
import sys

from metrics import END_TO_END

MUST_MATCH = ("workload", "trace", "backend", "input_sha256")


def mismatch(base: dict, new: dict) -> list[str]:
    return [
        f"{key}: {base['meta'].get(key)!r} != {new['meta'].get(key)!r}"
        for key in MUST_MATCH
        if base["meta"].get(key) != new["meta"].get(key)
    ]


def compare(base: dict, new: dict) -> list[str]:
    bounds = {name: (better, bound) for name, _, better, bound in END_TO_END}
    lines = []
    for name, entry in base["metrics"].items():
        b, n = entry["value"], new["metrics"][name]["value"]
        change = (n - b) / b if b else 0.0
        flag = ""
        if name in bounds:
            better, bound = bounds[name]
            worse = -change if better == "higher" else change
            flag = "  WORSE THAN BOUND" if worse > bound else ""
        lines.append(f"{name:<42} {b:>14.6g} {n:>14.6g} {change:+8.2%} {entry['unit']}{flag}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    base, new = records
    problems = mismatch(base, new)
    if problems:
        sys.stderr.write("refusing to compare: " + "; ".join(problems) + "\n")
        return 2
    print("\n".join(compare(base, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
