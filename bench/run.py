#!/usr/bin/env python3
"""The benchmark's one command.

    python3 bench/run.py --seed S [--workload W] [--seconds N] [--trace [0|1]]
                         [--smoke] [--scratch DIR] [--out FILE]

Runs the chosen workload (default: every one) through the ``repro.api.Session``
lifecycle, prints every metric by name with its unit, median, quartiles and
sample count, verifies outputs bit for bit, and exits non-zero on any
mismatch.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Each workload runs in its own subprocess so that ``peak_rss_mb`` and
``setup_s`` are its own: pinned to one CPU, with one BLAS thread and with glibc
told to keep freed memory in the process (see README, "Sandbox hazards").
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    # run as a script: import ``bench.*`` from the checkout root, and keep
    # bench/trace.py from shadowing the standard library's ``trace``
    sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

#: a worker that has not finished by then is killed (the contract allows 180 s)
WORKER_TIMEOUT_SECONDS = 170.0
#: keep freed arrays inside the process heap: on the sizing VM, memory handed
#: back to the kernel comes back as never-touched pages at ~0.17 GB/s
MALLOC_ENV = {
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": str(1 << 40),
    "MALLOC_TOP_PAD_": str(256 << 20),
    "MALLOC_ARENA_MAX": "1",
}
#: one BLAS thread: with two cores shared with other tenants, a second BLAS thread beside
#: the load, prefetch and dispatcher threads measures the scheduler (and was no faster)
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True, help="drives dataset, request streams and deltas")
    parser.add_argument("--workload", default=None, help="one workload name (default: every one)")
    parser.add_argument("--seconds", type=float, default=34.0, help="time budget of the timed passes")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="1 = traced run: per-layer metrics instead of end-to-end ones")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one pass; never compared")
    parser.add_argument("--scratch", default=None,
                        help="directory for store roots (default: /dev/shm when writable, else bench/out)")
    parser.add_argument("--out", default=None, help="also write the full result document to this file")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--result", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--spawned", type=float, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def contract_line(documents: list) -> dict:
    """The JSON object the contract asks for, from one or several workload results."""
    single = len(documents) == 1
    metrics = {}
    for document in documents:
        for name, entry in document["contract_metrics"].items():
            metrics[name if single else f"{document['workload']}.{name}"] = entry
    return {
        "correct": all(document["correct"] for document in documents),
        "attempted": sum(document["attempted"] for document in documents),
        "failed": sum(document["failed"] for document in documents),
        "metrics": metrics,
    }


def run_worker_process(args: argparse.Namespace, workload: str, result_path: Path) -> int:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--worker",
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--result", str(result_path), "--spawned", repr(time.time()),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.scratch is not None:
        command += ["--scratch", args.scratch]
    child = subprocess.Popen(command, env={**os.environ, **MALLOC_ENV, **THREAD_ENV}, cwd=str(ROOT))
    try:
        return child.wait(timeout=WORKER_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        print(f"bench: workload {workload} exceeded {WORKER_TIMEOUT_SECONDS:.0f} s; killed", file=sys.stderr)
        return 124
    finally:
        if child.poll() is None:  # timeout, Ctrl-C or SIGTERM: never leave the worker behind
            child.kill()
            child.wait()
        if child.returncode != 0:
            from bench.worker import clean_up_after

            for path in clean_up_after(child.pid, args.scratch):
                print(f"bench: removed {path}, left behind by the failed worker", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.worker:
        # One CPU for the worker and everything it starts.  Two Python threads that hand work
        # to each other (client -> dispatcher -> client) across two vCPUs ran at 31-35k or at
        # 50-55k req/s on the sizing VM, depending on a host state that flips every few
        # minutes; on one CPU they run at 50-55k in both states (README, "Sandbox hazards").
        try:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        except (AttributeError, OSError) as exc:  # not Linux, or a sandbox that forbids it
            print(f"bench: worker not pinned to one CPU ({exc}); expect wider spreads", file=sys.stderr)
        from bench.worker import run_workload

        document = run_workload(args)
        Path(args.result).write_text(json.dumps(document) + "\n")
        return 0 if document["correct"] else 1

    from bench.workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    documents = []
    status = 0
    for name in names:
        result_path = out_dir / f".result-{name}-{os.getpid()}.json"
        try:
            code = run_worker_process(args, name, result_path)
            if not result_path.is_file():
                print(f"bench: workload {name} produced no result (exit code {code})", file=sys.stderr)
                return code or 1
            documents.append(json.loads(result_path.read_text()))
            status = status or code
        finally:
            result_path.unlink(missing_ok=True)
    if args.out is not None:
        Path(args.out).write_text(json.dumps({"seed": args.seed, "runs": documents}, indent=1) + "\n")
    sys.stdout.flush()
    print(json.dumps(contract_line(documents)), flush=True)
    return status


if __name__ == "__main__":
    import signal

    # a driver that stops the benchmark with SIGTERM must stop the worker too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
