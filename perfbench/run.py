"""Benchmark for the KG engine: one command, three workloads.

    python3 perfbench/run.py --workload kg_wide --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. Each run starts its own Ray session with
a fixed count of logical CPUs, generates its inputs from ``--seed``, repeats
whole rounds of the workload's operations for ``--seconds`` seconds, checks
every output apart from the engine, stops Ray and checks that no Ray
process is left. The last line of stdout is the result:

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a run that calls each layer one stage at a time and writes its
spans to ``.perfbench/trace-<workload>-<seed>.json``. Everything else the
run writes goes to a temporary directory under ``.perfbench/`` that it
removes. See README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import sys
import tempfile
import threading
import time
import traceback

import ray  # also puts the psutil that Ray bundles on sys.path
import psutil

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# run_kg clamps its actor pools to max(1, CPUs - 2): with one logical CPU
# the encoder actor takes the only slot and the canonicalize shuffle waits
# for it forever. Two is the smallest count that runs every workload.
NUM_CPUS = 2
DEADLINE_S = 170  # a run that hangs is killed before the 180 s limit
# Unix socket paths are limited to 107 bytes and Ray puts its sockets up to
# 65 bytes below its temp dir: under a longer checkout path Ray's directory
# goes to the system's temp dir instead
MAX_RAY_TEMP_LEN = 42

WORKLOADS = ("kg_wide", "stream_trickle", "registry_mix")
END_TO_END = {"setup_s": "s", "rows_per_s": "rows/s", "op_s": "s",
              "out_bytes": "bytes", "peak_rss_mb": "MB"}


class Ops:
    """Counts operations: an operation fails if it raises or if its check
    returns the names of properties that do not hold."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = False

    def run(self, name: str, fn) -> bool:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            bad = fn()
        except Exception:  # noqa: BLE001 — a failed operation is a result
            traceback.print_exc()
            self.failed += 1
            print(f"perfbench: {name} raised", file=sys.stderr)
            return False
        if bad:
            self.failed += 1
            self.wrong = True
            print(f"perfbench: {name} failed checks {bad}", file=sys.stderr)
            return False
        print(f"perfbench: {name} ok, {time.perf_counter() - t0:.3f} s with "
              "its check", file=sys.stderr)
        return True


class RssSampler(threading.Thread):
    """Peak resident memory summed over this process and every process it
    started (Ray's GCS, raylet and workers), sampled every 100 ms."""

    def __init__(self):
        super().__init__(daemon=True)
        self.peak = 0
        self._done = threading.Event()

    def sample(self) -> None:
        me = psutil.Process()
        total = 0
        for p in [me, *me.children(recursive=True)]:
            try:
                total += p.memory_info().rss
            except psutil.Error:
                pass
        self.peak = max(self.peak, total)

    def run(self) -> None:
        while not self._done.wait(0.1):
            self.sample()

    def stop(self) -> float:
        self._done.set()
        self.join()
        self.sample()
        return self.peak / 1e6


ENGINE_MODULES = ("vectrain_ray.pipelines.kg", "vectrain_ray.pipelines.queries",
                  "vectrain_ray.pipelines.stream")


def _import_engine(batch=None):
    for name in ENGINE_MODULES:
        importlib.import_module(name)
    return batch


class Session:
    """One Ray session with the engine imported, in this process and in its
    task workers."""

    def __init__(self, work: str):
        self.work = work
        self.ops = Ops()
        self.timings: dict[str, float] = {}
        self.ray_temp = os.path.join(ROOT, ".perfbench", "ray")
        if len(self.ray_temp) > MAX_RAY_TEMP_LEN:
            self.ray_temp = tempfile.mkdtemp(prefix="pb-ray-")

    def start(self) -> None:
        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
                 logging_level="ERROR", object_store_memory=1_000_000_000,
                 _temp_dir=self.ray_temp)
        t1 = time.perf_counter()
        from vectrain_ray.tuning import apply_data_context

        apply_data_context()
        _import_engine()
        # one small execution starts Ray Data's own actors and imports the
        # engine in the task workers
        ray.data.range(NUM_CPUS, override_num_blocks=NUM_CPUS).map_batches(
            _import_engine).materialize()
        self.timings = {"setup.ray_init_s": t1 - t0,
                        "setup.warm_s": time.perf_counter() - t1}


def _descendants() -> list[psutil.Process]:
    return psutil.Process().children(recursive=True)


def stop_ray(session: Session) -> list[str]:
    """ray.shutdown(), then no process this run started may remain."""
    ray.shutdown()
    _, alive = psutil.wait_procs(_descendants(), timeout=20)
    for p in alive:
        p.kill()
    psutil.wait_procs(alive, timeout=10)
    shutil.rmtree(session.ray_temp, ignore_errors=True)
    return [f"ray_process_left:{p.pid}" for p in alive]


def _watchdog() -> None:
    """Kill everything this run started and exit without a result."""
    print(f"perfbench: no result after {DEADLINE_S} s, stopping", file=sys.stderr)
    import faulthandler

    faulthandler.dump_traceback(file=sys.stderr)
    for p in _descendants():
        try:
            p.kill()
        except psutil.Error:
            pass
    os._exit(3)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # stdout carries only the result: everything else, Ray's and the
    # workers' output included, goes to stderr
    result_out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    if not os.path.isdir(os.path.join(ROOT, "vectrain_ray")):
        print(f"perfbench: no engine package under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE, os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"

    timer = threading.Timer(
        DEADLINE_S - (time.time() - psutil.Process().create_time()), _watchdog)
    timer.daemon = True
    timer.start()
    rss = RssSampler()
    rss.start()
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".perfbench"))
    session = Session(work)
    try:
        session.start()
        setup_s = time.time() - psutil.Process().create_time()
        if args.trace:
            import traced

            metrics = traced.run(session, args)
        else:
            import workloads

            metrics = workloads.run(session, args)
            metrics["setup_s"] = (setup_s, "s")
    finally:
        session.ops.run("stop_ray", lambda: stop_ray(session))
        shutil.rmtree(work, ignore_errors=True)
        timer.cancel()
    peak = rss.stop()
    if not args.trace:
        metrics["peak_rss_mb"] = (peak, "MB")
    ops = session.ops
    result = {
        "correct": not ops.wrong,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result), file=result_out, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
