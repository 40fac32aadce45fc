"""One workload, start to finish, inside the process it is measured in.

Set-up (imports, dataset generation, scratch creation) → one untimed warm-up
pass → timed passes → [traced pass] → leak checks → report.  The warm-up lets
the heap, tmpfs and ``ppgnn-*`` high-water marks be reached before anything is
timed; every reported number is the median over all its timed samples, and
durations and rates are divided by the host index measured around them
(``calibrate.py``).
"""

from __future__ import annotations

import gc
import glob
import logging
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

from bench.calibrate import HostIndex, between
from bench.metrics import END_TO_END, LAYERS, LAYERS_BY_NAME
from bench.stats import summarize
from bench.trace import Tracer
from bench.workloads import WORKLOADS, build_dataset

ROOT = Path(__file__).resolve().parent.parent
SCRATCH_PREFIX = "bench-scratch-"
#: room a workload's store versions and probe copies may need at once
SCRATCH_BYTES = 1 << 30
#: timed passes a run never goes below; ``peak_rss_mb`` is read after exactly this many,
#: so that it does not depend on how many more passes the time budget allowed
MIN_PASSES = 3
#: times a run sets up (interpreter start + imports; dataset generation); ``setup_s``
#: is the median start plus the median generation
SETUP_REPEATS = 3


def default_scratch_base() -> Path:
    """tmpfs when there is a roomy one: fsync is free there, so flushes cost no disk time."""
    shm = Path("/dev/shm")
    if shm.is_dir() and os.access(shm, os.W_OK | os.X_OK) and shutil.disk_usage(shm).free > SCRATCH_BYTES:
        return shm
    return ROOT / "bench" / "out"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def sweep_stale_scratch(base: Path) -> None:
    """Remove scratch roots whose creating process is gone (a killed earlier run)."""
    for path in base.glob(f"{SCRATCH_PREFIX}*"):
        pid = path.name[len(SCRATCH_PREFIX) :].split("-", 1)[0]
        if pid.isdigit() and not _pid_alive(int(pid)):
            shutil.rmtree(path, ignore_errors=True)


def clean_up_after(pid: int, scratch: Optional[str]) -> List[str]:
    """Remove what a worker that died (crash, kill, timeout) could not: its scratch
    root and its orphaned ``ppgnn-*`` segments.  Returns what was removed."""
    base = Path(scratch) if scratch else default_scratch_base()
    removed = [str(path) for path in base.glob(f"{SCRATCH_PREFIX}{pid}-*")]
    for path in removed:
        shutil.rmtree(path, ignore_errors=True)
    try:
        from repro.resilience.janitor import sweep_orphans

        removed += [str(path) for path in sweep_orphans()]
    except ImportError:
        pass
    return removed


def shm_segments() -> set:
    return set(glob.glob("/dev/shm/ppgnn-*"))


def leftover_segments(before: set) -> List[str]:
    """``ppgnn-*`` segments that appeared during this run and whose creator is this
    process or a dead one (a loader worker).  What lay there ``before`` belongs to
    an earlier crash of something else, and a live creator is another program."""
    mine = set(glob.glob(f"/dev/shm/ppgnn-*-{os.getpid()}-*"))
    try:
        from repro.resilience.janitor import orphaned_segments

        mine.update(str(path) for path in orphaned_segments())
    except ImportError:
        pass
    return sorted(mine - before)


def print_table(title: str, rows: List[tuple]) -> None:
    print(f"\n{title}")
    widths = [max(len(str(row[i])) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  " + "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip())


def _fmt(value: Optional[float]) -> str:
    return "null" if value is None else f"{value:.6g}"


def startup_seconds(spawned: float, repeats: int) -> List[float]:
    """Spawn → ``repro.api`` imported: this process's own start, then further interpreters
    that do the same and exit (one start alone read 0.37-0.76 s on the sizing VM)."""
    import repro.api  # noqa: F401  (the import is part of set-up time)

    starts = [time.time() - spawned]
    environment = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for _ in range(repeats - 1):
        began = time.time()
        subprocess.run([sys.executable, "-c", "import repro.api"], env=environment, check=True)
        starts.append(time.time() - began)
    return starts


def run_workload(args) -> dict:
    """Run one workload per ``args`` (see ``run.py``); returns the result document."""
    # called in-process (the harness tests): there is no start to time
    repeats = 1 if args.smoke else SETUP_REPEATS
    starts = startup_seconds(args.spawned, repeats) if args.spawned is not None else [0.0]
    # per-call INFO lines would be timed with the calls that emit them
    logger = logging.getLogger("repro")
    previous_level = logger.level
    logger.setLevel(logging.WARNING)
    try:
        return _run_workload(args, starts, repeats)
    finally:
        logger.setLevel(previous_level)


def _run_workload(args, starts: List[float], repeats: int) -> dict:
    from bench.lifecycle import WorkloadRun

    workload = WORKLOADS[args.workload]
    segments_before = shm_segments()
    began = time.perf_counter()
    base = Path(args.scratch) if args.scratch else default_scratch_base()
    base.mkdir(parents=True, exist_ok=True)
    sweep_stale_scratch(base)
    scratch = Path(tempfile.mkdtemp(prefix=f"{SCRATCH_PREFIX}{os.getpid()}-", dir=base))
    scratch_s = time.perf_counter() - began
    tracer = Tracer(workload=workload.name, enabled=False)
    host = HostIndex()
    try:
        setup_index = host.burst()
        generate = []
        for _ in range(repeats):
            began = time.perf_counter()
            dataset = build_dataset(workload, args.seed, smoke=args.smoke)
            generate.append(time.perf_counter() - began)
        setup_index = between(setup_index, host.burst())
        generate_s = statistics.median(generate)
        startup_s = statistics.median(starts)
        raw_setup_s = startup_s + scratch_s + generate_s
        setup_s = raw_setup_s / setup_index

        run = WorkloadRun(workload, dataset, args.seed, scratch, tracer, smoke=args.smoke, host=host)
        probes = None
        if args.trace:
            from bench.probes import LayerProbes

            probes = run.probes = LayerProbes(
                tracer, workload.num_hops + 1, dataset.num_features, smoke=args.smoke
            )
        passes = []
        index = 0
        if not args.smoke:
            run.run_pass(index)  # warm-up: counted for correctness, never timed
            run.recorder.samples.clear()
            index += 1
        timed_began = time.perf_counter()
        # a smoke run and the untraced reference of a traced run need one pass only
        single = args.smoke or args.trace
        while True:
            if single and passes:
                break
            if len(passes) >= MIN_PASSES:
                elapsed = time.perf_counter() - timed_began
                if elapsed + elapsed / len(passes) > args.seconds:
                    break
            if probes is not None:
                probes.host_probe()
            gc.collect()  # the harness's own garbage is collected between passes, not inside one
            passes.append(run.run_pass(index))
            if probes is not None:
                probes.host_probe()
            index += 1
            if len(passes) == (1 if single else MIN_PASSES):
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = None
        # the traced pass does extra work between phases: its samples stay out of the medians
        samples = {name: list(values) for name, values in run.recorder.samples.items()}
        raw = {name: list(values) for name, values in run.recorder.raw.items()}
        if probes is not None:
            untraced_s = statistics.median(samples["lifecycle_s"])
            probes.host_probe()
            traced = run.run_pass(index, traced=True)
            probes.host_probe()
            probes.finish(run, traced, untraced_s, generate_s)
        run.check_losses()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    recorder = run.recorder
    recorder.check(not scratch.exists(), f"scratch root {scratch} left behind")
    left = leftover_segments(segments_before)
    recorder.check(not left, f"shared-memory segments left behind: {left}")

    # ------------------------------------------------------------------ report
    samples["setup_s"] = [setup_s]
    raw["setup_s"] = [raw_setup_s]
    samples["peak_rss_mb"] = [peak_rss_mb]
    end_to_end = {}
    for metric in END_TO_END:
        if samples.get(metric.name):
            summary = summarize(samples[metric.name])
            end_to_end[metric.name] = {"unit": metric.unit, "better": metric.better, **summary}
            if metric.name in raw:
                end_to_end[metric.name]["raw_median"] = statistics.median(raw[metric.name])
        else:
            recorder.check(False, f"no sample of end-to-end metric {metric.name}")
    fail_share = recorder.failed / max(recorder.attempted, 1)
    document = {
        "workload": workload.name,
        "seed": args.seed,
        "smoke": bool(args.smoke),
        "trace": bool(args.trace),
        "scratch": str(base),
        "timed_passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setup": {"startup_s": starts, "scratch_s": scratch_s, "generate_s": generate, "host_index": setup_index},
        "host_index": summarize([index for _, index in host.bursts]),
        "pass_host_indices": [p["host_indices"] for p in passes],
        "end_to_end": end_to_end,
        "fail_share": fail_share,
        "final_loss": run.final_losses[-1] if run.final_losses else None,
        "failures": recorder.failures,
        "samples": samples,
        "raw_samples": raw,
    }

    print(f"\n=== {workload.name}  seed {args.seed}  {len(passes)} timed pass(es)"
          f"{'  [smoke]' if args.smoke else ''} ===")
    print(f"  store roots under {base} (tmpfs makes fsync free: flushes are counted as bytes"
          " written, not timed)" if str(base).startswith("/dev/shm") else f"  store roots under {base}")
    print(f"  host index {document['host_index']['median']:.3f} (median of {document['host_index']['n']} bursts;"
          " 1 = the nominal host): durations and rates are divided by the index around them")
    print_table(
        "end-to-end (median over the run's timed samples; 'wall' = the same before the host index)",
        [("metric", "unit", "median", "q1", "q3", "n", "wall")]
        + [(name, e["unit"], _fmt(e["median"]), _fmt(e["q1"]), _fmt(e["q3"]), e["n"], _fmt(e.get("raw_median")))
           for name, e in end_to_end.items()]
        + [("fail_share", "ratio", _fmt(fail_share), "", "", recorder.attempted, "")],
    )
    context = {name: summarize(values) for name, values in samples.items()
               if name not in end_to_end}
    document["context"] = context
    print_table(
        "whole open-loop segment of each pass, every stall included (context, not gated)",
        [("metric", "unit", "median", "q1", "q3", "n")]
        + [(name, LAYERS_BY_NAME[name].unit, _fmt(e["median"]), _fmt(e["q1"]), _fmt(e["q3"]), e["n"])
           for name, e in context.items()],
    )

    if probes is not None:
        known = {layer.name: layer for layer in LAYERS}
        layers = {
            name: {"unit": known[name].unit, "value": probes.values.get(name),
                   "reason": probes.reasons.get(name)}
            for name in known
        }
        for name, layer in known.items():
            if layers[name]["value"] is None and not layer.optional:
                recorder.check(False, f"layer metric {name} unavailable: {layers[name]['reason'] or 'not probed'}")
        table = tracer.layer_table(traced["index"])
        document["layers"] = layers
        document["reported"] = probes.reported
        document["layer_table"] = table
        document["traced_pass_wall_s"] = traced_wall_s = tracer.durations("pass", traced["index"])[0]
        trace_path = ROOT / "bench" / "out" / f"trace-{workload.name}.json"
        tracer.write(trace_path)
        print_table(
            "per-layer (traced pass)",
            [("metric", "unit", "value", "")]
            + [(name, e["unit"], _fmt(e["value"]), e["reason"] or "") for name, e in layers.items()]
            + [(name, "s", _fmt(value), "(reported by the program: cross-check)")
               for name, value in sorted(probes.reported.items())],
        )
        print_table(
            f"self time by span, traced pass wall {traced_wall_s:.3f} s (rows sum to the wall)",
            [("layer", "span", "self_s", "share", "")]
            + [(r["layer"], r["span"], f"{r['self_s']:.4f}", f"{r['share']:.1%}",
                "beside (another thread; not in the sum)" if r["beside"] else "") for r in table],
        )
        print(f"  spans written to {trace_path}")

    document["attempted"] = recorder.attempted
    document["failed"] = recorder.failed
    document["correct"] = recorder.failed == 0
    if args.trace:
        document["contract_metrics"] = {
            layer.name: {"value": document["layers"][layer.name]["value"], "unit": layer.unit}
            for layer in LAYERS
            if not layer.optional
        }
    else:
        document["contract_metrics"] = {
            name: {"value": entry["median"], "unit": entry["unit"]} for name, entry in end_to_end.items()
        }
    if recorder.failures:
        print_table("FAILED", [(failure,) for failure in recorder.failures])
    return document
