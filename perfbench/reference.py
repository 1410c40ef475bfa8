"""Serial reference worker: ``execute_spec`` on every job read from stdin.

Reads a JSON list of job documents, runs each through
:func:`repro.service.jobs.execute_spec` on a fresh Lab, and writes one
JSON record per job to stdout: the ``result_digest`` a service response
must match, the pickled size the service's cache stores, and the run's
simulated counters.  The benchmark starts one worker per core after the
timed window, so references never compete with the server being measured.
"""

from __future__ import annotations

import json
import pickle
import sys

#: simulated counters copied from ``AppResult.extra`` (0 for BSP runs)
COUNTERS = ("total_tasks", "queue_pops", "empty_pops", "queue_items_pushed", "steals")


def reference(job: dict) -> dict:
    from repro.service.jobs import execute_spec, result_digest, spec_from_dict

    result = execute_spec(spec_from_dict(job))
    record = {
        "digest": result_digest(result),
        "bytes": len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)),
        "elapsed_ns": float(result.elapsed_ns),
        "work_units": float(result.work_units),
        "trace_samples": len(result.trace.times),
    }
    for name in COUNTERS:
        record[name] = int(result.extra.get(name) or 0)
    return record


def main() -> int:
    jobs = json.load(sys.stdin)
    json.dump([reference(job) for job in jobs], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
