"""Print each layer's self time and share from a trace of a traced run.

    python3 perfbench/shares.py .perfbench_out/trace-lrtc_large-0.jsonl

Shares are of the summed duration of the root spans (the outermost traced
calls), which cover each operation of the workload.
"""

import json
import sys

from tracing import NAME, PARENT, self_times


def main(path):
    with open(path) as fh:
        spans = [[r["name"], r["start"], r["end"], r["parent"], r["extra"]]
                 for r in map(json.loads, fh)]
    own = self_times(spans)
    total = sum(s[2] - s[1] for s in spans if s[PARENT] < 0)
    by_name = {}
    for s, t in zip(spans, own):
        entry = by_name.setdefault(s[NAME], [0.0, 0])
        entry[0] += t
        entry[1] += 1
    print(f"{'layer':32} {'self_s':>10} {'share':>7} {'calls':>8}")
    for name, (t, n) in sorted(by_name.items(), key=lambda kv: -kv[1][0]):
        print(f"{name:32} {t:10.3f} {100 * t / total:6.1f}% {n:8d}")


if __name__ == "__main__":
    main(sys.argv[1])
