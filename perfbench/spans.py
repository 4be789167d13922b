"""Self time per layer for each input of a traced op.

    python3 perfbench/spans.py .perfbench_work/spans-WORKLOAD-SEED.json

Reads the spans ``run.py --trace 1`` wrote for its first traced op and
prints, for each ``cli.main`` call (one per input, in op order), each
layer's self time in milliseconds and its share of the call.  Times are
uncalibrated wall time.
"""

import json
import sys
from collections import defaultdict


def main(path: str) -> None:
    doc = json.loads(open(path).read())
    spans = {span_id: (parent, name, start, end)
             for span_id, parent, name, start, end in doc["spans"]}
    children = defaultdict(float)
    for parent, _, start, end in spans.values():
        if parent is not None:
            children[parent] += end - start

    def call_of(span_id):
        while spans[span_id][0] is not None:
            span_id = spans[span_id][0]
        return span_id

    calls = sorted((s for s, v in spans.items() if v[0] is None),
                   key=lambda s: spans[s][2])
    own = {call: defaultdict(float) for call in calls}
    for span_id, (_, name, start, end) in spans.items():
        own[call_of(span_id)][name] += end - start - children[span_id]
    for call, inputs in zip(calls, doc["inputs"]):
        wall = spans[call][3] - spans[call][2]
        print(f"{inputs}: {wall * 1000:.1f} ms")
        for name, seconds in sorted(own[call].items(), key=lambda kv: -kv[1]):
            print(f"  {name:28} {seconds * 1000:9.2f} ms {seconds / wall:7.1%}")


if __name__ == "__main__":
    main(sys.argv[1])
