"""The host-speed probe that scales the benchmark's CPU times.

On a shared host the same code runs up to half again slower for minutes
at a time, and its CPU time slows with it.  A fixed job that runs no genret
code slows by about as much, so CPU seconds times REFERENCE_S over the
job's mean CPU seconds, probed in the same process within seconds of them
("reference CPU seconds"), stay put while genret's own cost changes.
"""

from __future__ import annotations

import json
from time import process_time

# CPU seconds one reference job takes at the reference speed, about its
# median on the 2.1 GHz Xeon VM the bounds were set on.  It fixes the
# scale only: every gated metric is a ratio to the probe.
REFERENCE_S = 0.0035
JOBS_PER_PROBE = 3


def reference_job() -> float:
    """Dict updates, float arithmetic and a JSON round trip, the operations
    genret's own Python spends its time on."""
    d: dict[str, float] = {}
    s = 0.0
    for i in range(4000):
        k = "k%d" % (i % 97)
        d[k] = d.get(k, 0) + i * 0.5
        s += (i % 13) ** 0.5
    blob = json.dumps([{"a": i, "b": [1.5, 2.5, i / 3]} for i in range(300)])
    json.loads(blob)
    return s


def probe() -> float:
    """CPU seconds of one reference job, averaged over JOBS_PER_PROBE."""
    start = process_time()
    for _ in range(JOBS_PER_PROBE):
        reference_job()
    return (process_time() - start) / JOBS_PER_PROBE
