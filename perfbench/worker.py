"""One benchmark workload in one fresh process; run.py starts it.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Set-up (importing bandalloc.cli, writing the seeded inputs, one warm-up
command) is timed first. Then the workload's batch of CLI commands runs through
``bandalloc.cli.main`` in this process, each with ``--json --out`` to a file in
a temporary directory inside the checkout, repeated while the time allows.
With ``--trace 1`` untraced and traced batches alternate. Outputs are checked
after the timed batches. The last stdout line is one JSON document for run.py.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _git_commit() -> str:
    """HEAD of the checkout's git repository, read without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _run_op(cli, argv, out: Path) -> tuple[float, int | str]:
    """Run one command; returns (seconds, exit status or, when it raised, the error)."""
    start = time.perf_counter()
    try:
        rc = cli.main(list(argv) + ["--json", "--out", str(out)])
    except Exception as exc:  # a crash is a failed op, reported with the others
        rc = f"raised {type(exc).__name__}: {exc}"
        print(f"op {rc}", file=sys.stderr)
    return time.perf_counter() - start, rc


def _run_batch(cli, ops, tmp: Path, tracer=None) -> tuple[float, list[float], list[int | str]]:
    latencies, statuses = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        seconds, rc = _run_op(cli, op.argv, tmp / f"out_{i}.json")
        latencies.append(seconds)
        statuses.append(rc)
    return time.perf_counter() - start, latencies, statuses


def _read_outputs(statuses, tmp: Path) -> list[tuple[int | str, bytes | None]]:
    outputs = []
    for i, rc in enumerate(statuses):
        path = tmp / f"out_{i}.json"
        outputs.append((rc, path.read_bytes() if path.exists() else None))
        if path.exists():
            path.unlink()
    return outputs


def _parse(raw: bytes | None) -> dict | None:
    if raw is None:
        return None
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return None


def _metric(value: float, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def _end_to_end(batch, parsed, latencies) -> tuple[dict, dict]:
    """Untraced metrics, and the per-command figures printed beside them.

    ``wall_s`` is the wall time of one batch, taken as the sum over its
    commands of each command's median latency over the batch's repeats. On
    a shared host single commands run up to 2x slower or faster than usual,
    in CPU time as much as in wall time, so each batch is kept short enough
    for every command to be timed at least a dozen times in a run; with only
    a few repeats, neither the median nor the least time of a command is
    steady from run to run. Command latencies are printed as medians per
    subcommand and per subcommand plus --system.
    """
    repeats = len(latencies)
    wall_s = sum(statistics.median(column) for column in zip(*latencies))
    kinds: dict[str, list[float]] = {}
    for lat in latencies:
        for op, seconds in zip(batch.ops, lat):
            kinds.setdefault(op.kind, []).append(seconds * 1e3)
            if " " in op.kind:
                kinds.setdefault(op.kind.split()[0], []).append(seconds * 1e3)
    info = {f"{kind.replace(' ', '_')}_p50_ms": _metric(statistics.median(v), "ms", len(v))
            for kind, v in sorted(kinds.items())}
    points = 0
    for op, (_, doc) in zip(batch.ops, parsed):
        if doc is not None and op.kind == "compare":
            points += 3 * len(doc["grid"])  # S, S_hat and fixed at every grid point
        elif doc is not None and op.kind.startswith("envelope"):
            points += len(doc["grid"])
    if batch.slots:
        info["slots_per_s"] = _metric(batch.slots / wall_s, "1/s", repeats)
    if points:
        info["points_per_s"] = _metric(points / wall_s, "1/s", repeats)
    return {"wall_s": _metric(wall_s, "s", repeats)}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    tmp_dir = tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-")
    try:
        return _measure(args, Path(tmp_dir.name))
    finally:
        tmp_dir.cleanup()


def _measure(args, tmp: Path) -> int:
    import bandalloc.cli as cli
    import numpy as np

    import workloads

    batch = workloads.BATCHES[args.workload](args.seed, ROOT, tmp)
    _, warm_rc = _run_op(cli, batch.warmup, tmp / "warmup.json")
    setup_s = time.perf_counter() - _T0
    if warm_rc != 0:
        print(f"warm-up command exited {warm_rc}", file=sys.stderr)
        return 1
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    walls, traced_walls, latencies = [], [], []
    layer_runs, first_outputs, transparent = [], None, True
    self_sum = root_sum = 0.0
    begin = time.perf_counter()
    while True:
        wall, lat, statuses = _run_batch(cli, batch.ops, tmp)
        walls.append(wall)
        latencies.append(lat)
        outputs = _read_outputs(statuses, tmp)
        first_outputs = first_outputs or outputs
        step = wall
        if tracer is not None:
            tracer.spans.clear()
            tracer.install()
            try:
                t_wall, t_lat, t_statuses = _run_batch(cli, batch.ops, tmp, tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(t_wall)
            transparent &= _read_outputs(t_statuses, tmp) == first_outputs
            layer_runs.append(tracing.layer_metrics(tracer.spans))
            self_sum += sum(tracing.self_times(tracer.spans))
            root_sum += sum(t_lat)
            step += t_wall
        if time.perf_counter() - begin + step > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        spans = [span.to_dict() for span in tracer.spans]
        (out_dir / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps(spans) + "\n")

    parsed = [(rc, _parse(raw)) for rc, raw in first_outputs]
    results = batch.check(parsed)
    failed = [label for label, ok in results if not ok]
    unexpected = [label for label in failed if not workloads.is_known_failure(label)]
    for label in failed:
        print(f"check failed: {label}" + ("" if label in unexpected else " (known)"), file=sys.stderr)

    if tracer is None:
        metrics, info = _end_to_end(batch, parsed, latencies)
        metrics["peak_rss_mb"] = _metric(peak_rss_mb, "MB", 1)
    else:
        metrics, info = {}, {}
        for name in layer_runs[0]:
            values = [run[name] for run in layer_runs]
            metrics[name] = _metric(statistics.median(values), tracing.unit_of(name), len(values))
        metrics["trace.overhead"] = _metric(statistics.median(traced_walls) / statistics.median(walls),
                                            "ratio", len(walls))
        metrics["trace.self_sum_frac"] = _metric(self_sum / root_sum, "ratio", len(layer_runs))
        if not transparent:
            unexpected.append("traced outputs differ from untraced outputs")
    info["failed_frac"] = _metric(len(failed) / len(results), "ratio", len(results))

    doc = {
        "setup_s": setup_s,
        "correct": not unexpected,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
        "info": info,
        "provenance": {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "git_commit": _git_commit(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_model": _cpu_model(),
            "nproc": os.cpu_count(),
            "batches": len(walls),
            "ops_per_batch": len(batch.ops),
            "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        },
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
