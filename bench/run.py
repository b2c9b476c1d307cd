"""Benchmark of the detuned-tls command line, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark drives the CLI in-process through ``detuned_tls.cli.main(argv)``
on scenario files generated from ``--seed``.  With ``--trace 0`` it measures
set-up time and peak memory in fresh child processes, then times warm passes
of the workload for ``--seconds`` seconds and prints the end-to-end metrics.
With ``--trace 1`` it alternates untraced and traced passes and prints the
per-layer metrics and the tracing overhead.  Either way every output goes
through the correctness gate and must repeat byte for byte across passes.

A human-readable report goes to stderr, a run record (machine, versions,
timings, verdicts) and the spans of a traced pass to ``.bench_out/``, and the
last line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md.
"""

import os

# One BLAS/OpenMP thread in this process and the children it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5  # fresh processes per run for setup_s
MIN_PASSES = 3  # timed passes per run, at least
MIN_TRACED_PASSES = 2  # traced and untraced passes in a traced run, at least
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "samples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "completed_ratio": "ratio",
}


def _load_cli():
    """Import detuned_tls.cli from this checkout's src/, never from elsewhere."""
    package = SRC / "detuned_tls"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"bench: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    from detuned_tls import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported {cli.__file__}, not the checkout's package")
    return cli


def run_cli(cli, argv) -> tuple[int, str, float]:
    """One CLI call: exit code, stdout text, wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:  # a crashing command is a failed sample, not a crashed benchmark
        code = -1
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    if code != 0:
        sys.stderr.write(f"bench: {' '.join(argv[:1])} exited {code}: {err.getvalue()[-800:]}\n")
    return code, out.getvalue(), seconds


def run_pass(cli, commands, tracer=None) -> tuple[list[int], list[str], float]:
    """Run one pass: exit codes, outputs, summed wall seconds of the CLI calls."""
    gc.collect()
    codes, outputs, wall = [], [], 0.0
    for index, command in enumerate(commands):
        if tracer is not None:
            tracer.command = index
        code, text, seconds = run_cli(cli, command.argv)
        codes.append(code)
        outputs.append(text)
        wall += seconds
    return codes, outputs, wall


def judge(work, codes: list[int], outputs: list[str]):
    """Gate verdicts for one pass; a crashed or unreadable command fails all its samples."""
    from gate import Verdict

    try:
        verdicts = work.check(outputs)
    except Exception as exc:  # malformed output fails the gate
        traceback.print_exc()
        verdicts = [Verdict(c.samples) for c in work.commands]
        for v in verdicts:
            v.fail_all(f"gate could not read the output: {exc!r}")
    for verdict, code in zip(verdicts, codes):
        if code != 0:
            verdict.fail_all(f"exit code {code}")
    return verdicts


def _keep_going(rounds: int, minimum: int, start: float, seconds: float, step: list[float]) -> bool:
    """Start another round unless it would end after the deadline."""
    if rounds < minimum:
        return True
    return time.perf_counter() - start + statistics.median(step) <= seconds


def _stats(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def fresh_processes(workload) -> tuple[list[float], dict]:
    """setup_s samples; the first child also runs pass 0 (peak RSS, output digests)."""
    setups, first = [], {}
    pass0 = json.dumps([list(c.argv) for c in workload.make_pass(0).commands])
    for index in range(SETUP_REPEATS):
        argv = [sys.executable, str(BENCH / "cold.py"), str(SRC), json.dumps(list(workload.cold))]
        if index == 0:
            argv.append(pass0)
        proc = subprocess.run(
            argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT, check=False
        )
        if proc.returncode != 0:
            raise SystemExit(f"bench: fresh process failed:\n{proc.stderr[-2000:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append(probe["setup_s"])
        if index == 0:
            first = probe
    return setups, first


def _tally(verdicts) -> dict:
    errors: Counter = Counter()
    for v in verdicts:
        errors.update(v.errors)
    return {
        "attempted": sum(v.samples for v in verdicts),
        "completed": sum(v.completed for v in verdicts),
        "wrong": sum(len(v.wrong) for v in verdicts),
        "errors_by_type": dict(sorted(errors.items())),
        "wrong_examples": [msg for v in verdicts for msg in list(v.wrong.values())[:3]][:10],
    }


def end_to_end(cli, workload, seconds: float) -> tuple[dict, dict]:
    setups, fresh = fresh_processes(workload)
    run_cli(cli, workload.cold)
    verdicts, walls, completed = [], [], []
    start = time.perf_counter()
    while _keep_going(len(walls), MIN_PASSES, start, seconds, walls or [0.0]):
        work = workload.make_pass(len(walls))
        codes, outputs, wall = run_pass(cli, work.commands)
        pass_verdicts = judge(work, codes, outputs)
        if not walls:
            for v, text, other in zip(pass_verdicts, outputs, fresh["digests"]):
                if any(fresh["codes"]):
                    v.fail_all(f"fresh-process exit codes {fresh['codes']}")
                elif hashlib.sha256(text.encode()).hexdigest() != other:
                    v.fail_all("output differs from the same pass in a fresh process")
        walls.append(wall)
        completed.append(sum(v.completed for v in pass_verdicts))
        verdicts.extend(pass_verdicts)
    tally = _tally(verdicts)
    metrics = {
        "samples_per_s": sum(completed) / sum(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": fresh["peak_rss_mb"],
        "completed_ratio": tally["completed"] / tally["attempted"],
    }
    detail = {
        "tally": tally,
        "failed_ratio": 1.0 - metrics["completed_ratio"],
        "per_pass_samples_per_s": _stats([c / w for c, w in zip(completed, walls)]),
        "setup_s": _stats(setups),
        "passes": [{"wall_s": w, "completed": c} for w, c in zip(walls, completed)],
    }
    if workload.sim_time:
        detail["sim_time_per_s"] = workload.sim_time * metrics["samples_per_s"]
    return metrics, detail


def per_layer(cli, workload, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Untraced and traced runs of pass 0, alternating, for per-layer metrics."""
    from tracer import EXACT_COUNTS, Tracer, layer_metrics, percentile_ms, write_spans

    work = workload.make_pass(0)
    run_cli(cli, workload.cold)
    tracer = Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    per_pass, solve_ms, first_spans, verdicts, reference = [], [], None, None, None
    start = time.perf_counter()
    while _keep_going(
        len(per_pass),
        MIN_TRACED_PASSES,
        start,
        seconds,
        [u + t for u, t in zip(walls[False], walls[True])] or [0.0],
    ):
        codes, outputs, wall = run_pass(cli, work.commands)
        walls[False].append(wall)
        tracer.install()
        try:
            traced_codes, traced_outputs, wall = run_pass(cli, work.commands, tracer)
        finally:
            tracer.uninstall()
        walls[True].append(wall)
        spans, counts = tracer.take()
        if verdicts is None:
            verdicts, reference, first_spans = judge(work, codes, outputs), outputs, spans
        for i, v in enumerate(verdicts):
            if codes[i] or traced_codes[i]:
                v.fail_all(f"exit codes {codes[i]} untraced, {traced_codes[i]} traced")
            elif not reference[i] == outputs[i] == traced_outputs[i]:
                v.fail_all("output differs between passes")
        metrics, pass_solve_ms = layer_metrics(spans, counts)
        metrics["cli.bytes_out"] = sum(len(text.encode()) for text in traced_outputs)
        per_pass.append(metrics)
        solve_ms.extend(pass_solve_ms)
    counts_repeat = all(
        [m[k] for k in EXACT_COUNTS] == [per_pass[0][k] for k in EXACT_COUNTS] for m in per_pass
    )
    if not counts_repeat:
        for v in verdicts:
            v.fail_all("per-layer counts differ between traced passes")

    metrics = dict(per_pass[0])
    for name in metrics:
        if name.endswith("self_s"):
            metrics[name] = statistics.median(m[name] for m in per_pass)
    metrics["quantum.quantum_steady_state.p50_ms"] = percentile_ms(solve_ms, 50)
    metrics["quantum.quantum_steady_state.p90_ms"] = percentile_ms(solve_ms, 90)
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])

    write_spans(spans_path, first_spans)
    detail = {
        "tally": _tally(verdicts),
        "traced_passes": len(per_pass),
        "untraced_pass_s": _stats(walls[False]),
        "traced_pass_s": _stats(walls[True]),
        "quantum_steady_state_samples": len(solve_ms),
        "counts_repeat": counts_repeat,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_in_file": len(first_spans),
    }
    return metrics, detail


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": _git_sha(),
    }


def _report(title: str, metrics: dict, units: dict, detail: dict) -> None:
    lines = [f"bench: {title}"]
    lines += [f"  {name:42s} {value:14.6g} {units[name]}" for name, value in metrics.items()]
    if "sim_time_per_s" in detail:
        lines.append(f"  {'sim_time_per_s':42s} {detail['sim_time_per_s']:14.6g} 1/s")
    for name in ("per_pass_samples_per_s", "setup_s", "untraced_pass_s", "traced_pass_s"):
        if name in detail:
            s = detail[name]
            lines.append(
                f"  {name}: median {s['median']:.6g}, quartiles {s['q1']:.6g}..{s['q3']:.6g},"
                f" n = {s['n']}"
            )
    tally = detail["tally"]
    failed = tally["attempted"] - tally["completed"]
    lines.append(
        f"  failed_ratio = {failed}/{tally['attempted']} = {failed / tally['attempted']:.4g};"
        f" error rows by type {tally['errors_by_type']}; wrong outputs {tally['wrong']}"
    )
    lines.extend(f"  wrong: {msg}" for msg in tally["wrong_examples"])
    sys.stderr.write("\n".join(lines) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = _load_cli()
    from tracer import PER_LAYER_UNITS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}"
    workdir = OUT / tag
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)

    if args.trace:
        units = PER_LAYER_UNITS
        metrics, detail = per_layer(cli, workload, args.seconds, OUT / f"{tag}-spans.csv.gz")
    else:
        units = END_TO_END_UNITS
        metrics, detail = end_to_end(cli, workload, args.seconds)

    tally = detail["tally"]
    result = {
        "correct": tally["wrong"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["wrong"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "pass0_commands": [
            {"argv": list(c.argv), "samples": c.samples} for c in workload.make_pass(0).commands
        ],
        "cold_call": list(workload.cold),
        "detail": detail,
        "result": result,
    }
    record_path = OUT / f"{tag}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    _report(f"{tag} trace={args.trace}", metrics, units, detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
