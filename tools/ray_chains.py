"""Record the Ray Data operator chains the KG drivers execute, and compare
two recordings. Usage, from the root of a checkout:

    python tools/ray_chains.py record chains.json [--num-cpus 4] [--runs a,b]
    python tools/ray_chains.py compare parent.json change.json

``record`` runs each driver on a small generated corpus with
``resume.LOCAL_MAX_ROWS`` at 0, so every phase takes its Ray path, and
records every ``StreamingExecutor.execute`` call as its physical operator
DAG: operator class and name, bundle and batch sizes, actor-pool size and
remote args. The runs are ``run_kg`` with a broadcast and with a 3-shard
link index; ``run_kg_resumable`` broadcast, 3-shard, with
``EDGE_FINALIZE_SINGLE_TASK_MAX`` at 0 (the bucketed finalize), and with
its view of the cluster shimmed to 32 CPUs (the overlap branches); and a
cold ``StreamDriver`` poll; ``--runs`` records only the runs it names.
Overlapped sinks make the order of executions
vary, so ``compare`` compares each run's chains as a sorted list; it prints
every difference and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


def describe(op) -> str:
    """One physical operator and its inputs, as one line."""
    ins = [describe(i) for i in op.input_dependencies]
    own = f"{type(op).__name__} {op.name}"
    bundler = getattr(op, "_block_ref_bundler", None)
    if bundler is not None:
        own += f" bundle={bundler._min_rows_per_bundle}"
    transformer = getattr(op, "_map_transformer", None)
    if transformer is not None:
        sizes = [str(fn.batch_size) for fn in transformer.get_transform_fns()
                 if hasattr(fn, "batch_size")]
        own += f" batches={','.join(sizes)}"
    pool = getattr(op, "_actor_pool", None)
    if pool is not None:
        own += f" pool={pool.min_size()}-{pool.max_size()}"
    remote = getattr(op, "_ray_remote_args", None)
    if remote:
        own += " remote=" + ",".join(f"{k}={remote[k]}"
                                     for k in sorted(remote))
    return f"({' | '.join(ins)}) -> {own}" if ins else own


def _runs(work: str):
    """(name, callable) for every recorded run, over one corpus."""
    import ray

    from vectrain_ray import synth
    from vectrain_ray.pipelines import resume
    from vectrain_ray.pipelines.kg import run_kg
    from vectrain_ray.pipelines.stream import StreamDriver

    corpus = os.path.join(work, "in")
    synth.write_transcripts(corpus, 30, 8, seed=5, num_files=3)

    def out(name: str) -> str:
        return os.path.join(work, name)

    def with_attr(obj, attr: str, value, fn):
        def run():
            old = getattr(obj, attr)
            setattr(obj, attr, value)
            try:
                fn()
            finally:
                setattr(obj, attr, old)
        return run

    class WideRay:
        """``ray`` as the resumable driver sees it, on a 32-CPU cluster;
        Ray Data itself keeps the real view."""

        def __getattr__(self, name):
            return getattr(ray, name)

        @staticmethod
        def cluster_resources() -> dict:
            return {"CPU": 32.0}

    return [
        ("kg_broadcast", lambda: run_kg(corpus, out_dir=out("kg_b"))),
        ("kg_sharded", lambda: run_kg(corpus, out_dir=out("kg_s"),
                                      link_shards=3)),
        ("resume_broadcast", lambda: resume.run_kg_resumable(
            corpus, out("r_b"), num_parts=4)),
        ("resume_sharded", lambda: resume.run_kg_resumable(
            corpus, out("r_s"), num_parts=4, link_shards=3)),
        ("resume_shuffle", with_attr(
            resume, "EDGE_FINALIZE_SINGLE_TASK_MAX", 0,
            lambda: resume.run_kg_resumable(corpus, out("r_x"),
                                            num_parts=4))),
        ("resume_wide_shim", with_attr(
            resume, "ray", WideRay(),
            lambda: resume.run_kg_resumable(corpus, out("r_w"),
                                            num_parts=4))),
        ("stream", lambda: StreamDriver(corpus, out("st"), num_parts=4,
                                        poll_sec=0).poll_once()),
    ]


def record(path: str, num_cpus: int, runs: list[str] | None) -> None:
    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    from vectrain_ray.pipelines import resume

    DataContext.get_current().enable_progress_bars = False
    resume.LOCAL_MAX_ROWS = 0
    seen: list[str] = []
    lock = threading.Lock()
    execute = StreamingExecutor.execute

    def recording(self, dag, *args, **kwargs):
        with lock:
            seen.append(describe(dag))
        return execute(self, dag, *args, **kwargs)

    StreamingExecutor.execute = recording
    chains: dict[str, list[str]] = {}
    try:
        with tempfile.TemporaryDirectory(prefix="ray_chains_") as work:
            for name, run in _runs(work):
                if runs and name not in runs:
                    continue
                del seen[:]
                run()
                chains[name] = sorted(seen)
                print(f"{name}: {len(seen)} executions", file=sys.stderr)
    finally:
        StreamingExecutor.execute = execute
        ray.shutdown()
    with open(path, "w") as f:
        json.dump({"num_cpus": num_cpus, "chains": chains}, f, indent=1)


def compare(a_path: str, b_path: str) -> int:
    a, b = (json.load(open(p))["chains"] for p in (a_path, b_path))
    differ = 0
    for name in sorted(set(a) | set(b)):
        left, right = a.get(name), b.get(name)
        if left == right:
            print(f"{name}: identical ({len(left)} executions)")
            continue
        differ += 1
        print(f"{name}: DIFFERENT")
        left, right = Counter(left or []), Counter(right or [])
        for chain in sorted(left - right):
            print(f"  - {chain}")
        for chain in sorted(right - left):
            print(f"  + {chain}")
    return 1 if differ else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("out")
    rec.add_argument("--num-cpus", type=int, default=4)
    rec.add_argument("--runs", type=lambda s: s.split(","), default=None)
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = p.parse_args()
    if args.cmd == "record":
        record(args.out, args.num_cpus, args.runs)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
