"""The repository benchmark: one command per workload, checked outputs, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload serve-polymul --seed 1 --seconds 48 --trace 0

``--trace 0`` measures the end-to-end metrics with observability off;
``--trace 1`` runs the same workload with a ``repro.obs`` session on and
reports the per-layer metrics instead. The metric names, units and
workloads are those in ``BENCHMARK.json`` at the repository root.

Standard output carries a human-readable table, then one stamped record
line (git SHA, source digest, host fingerprint), then as its last line
the result object ``{"correct", "attempted", "failed", "metrics"}``.
Per-request trace waterfalls go to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: ISA flags worth recording: the paper's kernels live or die by them.
_ISA_FLAGS = ("avx2", "avx512f", "avx512dq", "avx512ifma", "adx", "bmi2")


def git_sha(root: Path) -> str:
    """HEAD's commit id read from ``.git`` directly, or ``"unknown"``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: Path) -> str:
    """SHA-256 over every ``src/**/*.py`` path and content (identifies the
    code even in a checkout without git metadata)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_fingerprint() -> dict:
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    import numpy

    return {
        "cpu": model,
        "isa": {flag: flag in flags for flag in _ISA_FLAGS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def cpu_ticks() -> tuple:
    """(steal, total) scheduler ticks of all CPUs, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return (0, 0)
    return (fields[7] if len(fields) > 7 else 0, sum(fields))


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's shared-memory tracker helper.

    The pool's shared-memory segments start it; it would otherwise
    outlive this process by a moment. Every segment is unlinked by the
    time this runs (the service closed its pool).
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads

    # A terminated run unwinds like an interrupted one, so the service
    # closes its pool and multiprocessing reaps the workers on exit.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    trace = bool(args.trace)
    ticks_before = cpu_ticks()
    try:
        result = workloads.run_workload(args.workload, args.seed, args.seconds, trace)
    except workloads.InvalidRun as exc:
        print(f"error: invalid run: {exc}", file=sys.stderr)
        return 3
    stop_resource_tracker()
    steal = [after - before for after, before in zip(cpu_ticks(), ticks_before)]

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    bypassed = workloads.BYPASSED[args.workload]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name in result.metrics:
            value = float(result.metrics[name])
        elif trace and name.startswith(bypassed):
            value = 0.0  # this workload never enters the layer
        else:
            print(f"error: workload produced no {name!r}", file=sys.stderr)
            return 4
        if not math.isfinite(value):
            # A percentile that lands on a failed request: over any limit.
            value = 1e9
        metrics[name] = {"value": value, "unit": entry["unit"]}

    failed_frac = result.failed / result.attempted if result.attempted else 1.0
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:14.4f} {entry['unit']}")
    print(f"  {'failed_frac':34s} {failed_frac:14.4f} frac "
          f"({result.failed}/{result.attempted})")
    print(f"  {'correct':34s} {str(result.correct):>14s}")
    for key, value in result.info.items():
        if isinstance(value, (int, float)):
            print(f"  {key:34s} {value:14.4f}")
    host = host_fingerprint()
    # Hypervisor steal during the run: other tenants taking this VM's CPUs.
    host["steal_frac"] = steal[0] / steal[1] if steal[1] else 0.0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "source_sha256": source_digest(ROOT),
        "host": host,
        "failed_frac": failed_frac,
        "info": result.info,
        "metrics": {name: entry["value"] for name, entry in metrics.items()},
    }
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({
        "correct": bool(result.correct),
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
