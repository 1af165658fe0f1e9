"""Quick self-test of the benchmark at tiny sizes (about twenty seconds).

    python3 perfbench/selftest.py

For every workload, at the reduced configs of ``workloads.TINY_OVERRIDES``:
one untraced run must emit exactly the end-to-end metrics of BENCHMARK.json,
and two traced runs must emit exactly its per-layer metrics, with every work
count (unit ``count``) equal between the two, and every operation must pass
the correctness gate.  Exit status 0 when all hold.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    run.check_sources()

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if end_to_end != run.end_to_end_units():
        problems.append("BENCHMARK.json end_to_end differs from run.end_to_end_units()")
    if per_layer != run.per_layer_units():
        problems.append("BENCHMARK.json per_layer differs from run.per_layer_units()")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for name in workloads.WORKLOADS:
        plain, gate = run.measure(name, 0, 1e-3, trace=False, tiny=True)
        first, gate_first = run.measure(name, 0, 1e-3, trace=True, tiny=True)
        second, gate_second = run.measure(name, 0, 1e-3, trace=True, tiny=True)
        if set(plain) != set(end_to_end):
            problems.append(f"{name}: untraced metrics {sorted(set(plain) ^ set(end_to_end))}")
        for label, got in (("first", first), ("second", second)):
            if set(got) != set(per_layer):
                problems.append(f"{name}: {label} traced metrics {sorted(set(got) ^ set(per_layer))}")
        counts = [k for k, unit in per_layer.items() if unit == "count" and k in first]
        changed = [k for k in counts if first[k] != second.get(k)]
        if changed:
            problems.append(f"{name}: work counts differ between runs: {changed}")
        if not any(first[k] for k in counts if k.endswith(".calls")):
            problems.append(f"{name}: no layer call was traced")
        for g in (gate, gate_first, gate_second):
            if g.failed:
                problems.append(f"{name}: {g.failed} of {g.attempted} operations failed: "
                                + "; ".join(g.notes))
        print(f"{name}: {len(plain)} end-to-end and {len(first)} per-layer metrics emitted")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
