"""Benchmark of talbot-lab: one workload, one seed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from ``src/`` there.
Workloads and the reason for each are in ``workloads.py``.

Every pass of a workload runs in a fresh interpreter, as a user of the CLI
runs it: the first pass in a process pays for memory the allocator has not
yet grown into (over a million page faults in ``evolve``), and later passes
in the same process would hide that.  An untraced run makes at least two
passes and starts another only while a typical pass still ends within
--seconds, so a run stays near --seconds unless two passes take longer.

``--trace 0`` measures end to end, with no tracing installed:
    wall_s       median seconds of one pass of the workload;
    setup_s      median seconds from spawning a pass's interpreter until its
                 inputs are ready (imports of numpy and talbot_lab, config
                 generation), over the passes and, to reach SETUP_SAMPLES,
                 interpreters that only set up;
    peak_rss_mb  median peak resident memory of a pass's process, in MiB.
``--trace 1`` alternates untraced and traced passes and reports, per layer
function, calls, self time, raised exceptions and work counts, plus the
tracing overhead (traced minus untraced wall_s) and the self-time coverage
(layer self time over traced wall_s).  Spans go to ``perfbench/.work/``.

Both modes gate correctness: every report check passes except the two
known-red ones, every nested audit passes with plan.m >= 2, and every report
or plan digest repeats between passes of the same seed.  ops_failed_frac
(failed over attempted operations) is printed with the other metrics.  The
last line of standard output is the JSON result.  BLAS is pinned to one
thread, so a pass is single-threaded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict
from pathlib import Path

# before numpy is first imported (spans imports it), so BLAS starts one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
PASS_TIMEOUT_S = 170
SETUP_SAMPLES = 7  # set-up is short and noisy: top passes up with set-up-only probes

# Per-layer functions reported under --trace 1, with their work counts.
TRACED = {
    "expsum.gauss_sum_table": ("terms",),
    "expsum.abel_bound_check": (),
    "expsum.perturbed_gauss_sum_value": ("terms",),
    "schrodinger.partial_sum_direct": ("terms",),
    "schrodinger.block_factor_fast": ("terms",),
    "schrodinger.quad_block_sum": ("terms",),
    "schrodinger.dirichlet_kernel_1d": ("points",),
    "counterexample.sample_points": ("samples",),
    "counterexample.verify_claim_i": (),
    "counterexample.verify_claim_ii": (),
    "counterexample.verify_claim_iii": (),
    "fractal.separated_cubes": ("accepted",),
    "fractal.audit_separated_family": ("cubes",),
    "fractal.level_volume_lower_bound": (),
    "fractal.build_nested_levels": (),
    "fractal.audit_nesting": (),
    "measures.convolve_dirichlet_sup": ("grid_points", "fft_path"),
    "measures.maximal_lp_norm": ("macs",),
    "measures.carleson_l2_ratio": (),
    "measures.frostman_constant": (),
    "measures.dirichlet_l1": (),
}
EXPERIMENTS = ("gauss", "evolve", "claims", "dimension", "maximal")


def end_to_end_units() -> dict[str, str]:
    return {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for name, work in TRACED.items():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.raised"] = "count"
        for key in work:
            units[f"{name}.{key}"] = "count"
    units["fractal.separated_cubes.accept_ratio"] = "ratio"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for exp in EXPERIMENTS:
        units[f"experiments.{exp}.wall_s"] = "s"
    units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                  "trace.overhead_s": "s", "trace.coverage": "ratio"})
    return units


def check_sources() -> Path:
    src = ROOT / "src"
    if not (src / "talbot_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: no talbot_lab sources under {src}")
    return src


def _import_program() -> None:
    """Import talbot_lab from this checkout's src/, never from elsewhere."""
    src = check_sources()
    sys.path.insert(0, str(src))
    import talbot_lab.cli  # noqa: F401  (pulls in every layer)

    found = Path(sys.modules["talbot_lab"].__file__).resolve()
    if src.resolve() not in found.parents:
        raise SystemExit(f"error: talbot_lab imported from {found}, not from {src}")


def environment() -> dict[str, object]:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu, "blas_threads": 1}


# -- one pass, in its own interpreter ----------------------------------------
def run_ops(ops, tracer=None) -> tuple[float, list]:
    outcomes = []
    t0 = time.perf_counter()
    for op in ops:
        try:
            if tracer is None:
                outcome = op.run()
            else:
                span = f"experiments.{op.experiment}" if op.experiment else "ops.nested"
                outcome = tracer.span(span, op.run)
        except Exception as exc:  # one failed operation must not end the pass
            last = traceback.format_exception_only(type(exc), exc)[-1].strip()
            outcome = workloads.OpOutcome(op.name, False, notes=[f"raised {last}"])
        outcomes.append(outcome)
    return time.perf_counter() - t0, outcomes


def layer_metrics(tracer, wall: float) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, work in TRACED.items():
        out[f"{name}.calls"] = tracer.calls.get(name, 0)
        out[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
        out[f"{name}.raised"] = tracer.raised.get(name, 0)
        for key in work:
            out[f"{name}.{key}"] = tracer.work[name][key]
    sep = tracer.work["fractal.separated_cubes"]
    out["fractal.separated_cubes.accept_ratio"] = (
        sep["accepted_maximal"] / sep["admissible"] if sep["admissible"] else 0.0
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v for k, v in tracer.self_s.items() if k.startswith(layer + ".")
        )
    for exp in EXPERIMENTS:
        out[f"experiments.{exp}.wall_s"] = tracer.total_s.get(f"experiments.{exp}", 0.0)
    out["trace.coverage"] = sum(out[f"{layer}.self_s"] for layer in LAYERS) / wall
    return out


def pass_child(args) -> int:
    """Set up, note the set-up time, run the operations once, print JSON."""
    _import_program()
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.run_id}-", dir=WORK))
    try:
        ops = workloads.prepare(args.workload, args.seed, tmp, args.tiny)
        tracer = None
        if args.trace:
            tracer = Tracer(args.run_id)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer is not None:
            tracer.install()
        try:
            wall, outcomes = run_ops(ops, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        result = {
            "setup_s": setup_s, "wall_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "outcomes": [asdict(o) for o in outcomes],
        }
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, wall)
            tracer.write_spans(WORK / f"spans-{args.run_id}.jsonl")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


def spawn_pass(workload: str, seed: int, trace: bool, tiny: bool, run_id: str,
               setup_only: bool = False) -> dict:
    """Run one pass in a fresh interpreter and return what it measured."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--run-id", run_id]
    if tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    # CLOCK_MONOTONIC is system-wide on Linux, so the child can subtract it
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=PASS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: pass {run_id} exited with {proc.returncode}")
    return json.loads(lines[-1])


# -- the measuring process ---------------------------------------------------
class Gate:
    """Counts operations, failures and digest changes across passes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.notes: list[str] = []

    def record(self, outcome: dict) -> None:
        self.attempted += 1
        ok, notes = outcome["ok"], list(outcome["notes"])
        if outcome["digest"]:
            first = self.digests.setdefault(outcome["name"], outcome["digest"])
            if outcome["digest"] != first:
                ok = False
                notes.append(f"digest changed between passes: {first} -> {outcome['digest']}")
        self.failed += not ok
        for note in notes:
            line = f"{outcome['name']}: {note}"
            if line not in self.notes:
                self.notes.append(line)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[dict[str, float], Gate]:
    """Run rounds of passes for about `seconds`; return the metrics and the gate.

    A round is one untraced pass, or with tracing one traced and one untraced
    pass, in alternating order so that neither side always runs first.  After
    the first rounds (two untraced, one traced), a round starts only if a
    typical round still ends before `seconds` have gone by.
    """
    label = f"{workload}-seed{seed}"
    gate = Gate()
    plain, traced, rounds = [], [], []
    min_rounds = 1 if trace else 2
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() + statistics.median(rounds) <= deadline:
        kinds = ((True, False) if len(rounds) % 2 == 0 else (False, True)) if trace else (False,)
        start = time.perf_counter()
        for kind in kinds:
            result = spawn_pass(workload, seed, kind, tiny, f"{label}-pass{len(plain) + len(traced)}")
            for outcome in result["outcomes"]:
                gate.record(outcome)
            (traced if kind else plain).append(result)
        rounds.append(time.perf_counter() - start)
    print(f"passes: {len(plain)} untraced, {len(traced)} traced; wall_s each: "
          + ", ".join(f"{r['wall_s']:.4f}" for r in plain + traced))

    if not trace:
        setups = [r["setup_s"] for r in plain]
        while len(setups) < SETUP_SAMPLES:
            probe = spawn_pass(workload, seed, False, tiny, f"{label}-setup{len(setups)}", True)
            setups.append(probe["setup_s"])
        return {"wall_s": statistics.median(r["wall_s"] for r in plain),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}, gate
    layers = [r["layers"] for r in traced]
    metrics = {k: statistics.median(p[k] for p in layers) for k in layers[0]}
    for k, unit in per_layer_units().items():
        if unit == "count" and k in metrics:
            metrics[k] = layers[0][k]
            if any(p[k] != layers[0][k] for p in layers[1:]):
                gate.notes.append(f"work count {k} differs between traced passes")
    metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.untraced_wall_s"] = statistics.median(r["wall_s"] for r in plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics, gate


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set when this process is one pass spawned by the measuring process
    parser.add_argument("--run-id", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.run_id is not None:
        return pass_child(args)
    load_at_start = list(os.getloadavg())
    check_sources()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    metrics, gate = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    units = per_layer_units() if args.trace else end_to_end_units()
    env = {**environment(), "loadavg_start": load_at_start}
    print(f"env: {json.dumps(env, sort_keys=True)}")
    for name, digest in gate.digests.items():
        print(f"digest {name} sha256:{digest}")
    for note in gate.notes:
        print(f"note: {note}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print(f"ops_failed_frac = {gate.failed / gate.attempted!r} "
          f"({gate.failed} of {gate.attempted} operations)")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
