#!/usr/bin/env python3
"""treesent benchmark: time the CLI stages in-process on seeded inputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload finetune-phrases --seed 0 --seconds 12 --trace 0

One process drives one workload in a closed loop: each stage call starts
only after the previous one has returned. The run sets the workload up,
makes one untimed warm-up call, and then calls the stage until
``--seconds`` have passed, setting the workload up once more after every
measured call. ``setup_s`` is the median of all those set-ups, so it is
sampled over the whole run, as the stage calls are. Every call is checked.
With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics, taken from traced calls that
alternate with untraced ones. The line before it is a JSON detail record:
environment stamp, input properties, sample counts, quality numbers,
artifact digests and any check failures.
"""

from __future__ import annotations

import argparse
import os
import sys

BLAS_THREADS = 1  # one client, one BLAS thread: steady and within nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def blas_threads():
    """Threads OpenBLAS reports, or None where it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            try:
                getter = getattr(ctypes.CDLL(lib), fn)
            except (OSError, AttributeError):
                continue
            getter.restype = ctypes.c_int
            return int(getter())
    return None


def git_rev(root):
    """HEAD commit of ``root``, or None where ``root`` is no git checkout."""
    if not (root / ".git").exists():  # else git would answer for an enclosing repo
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def src_digest(src):
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(ts):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": git_rev(ROOT),
        "src_sha256": src_digest(ROOT / "src" / "treesent"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "treesent": getattr(ts, "__version__", None),
    }


def import_treesent():
    src = ROOT / "src"
    if not (src / "treesent" / "__init__.py").is_file():
        raise SystemExit(f"error: no treesent sources under {src}")
    sys.path.insert(0, str(src))
    import treesent
    from treesent import (autodiff, checkpoint, classify, cli, encoder, optim,  # noqa: F401
                          pretrain, tokenizer, treebank)
    if Path(treesent.__file__).resolve().parent != (src / "treesent").resolve():
        raise SystemExit(f"error: imported treesent from {treesent.__file__}, not {src}")
    return treesent


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class Run:
    """One benchmark run of one workload."""

    def __init__(self, ts, workload, seed, seconds, trace, scale=1.0):
        self.ts = ts
        self.wl = workloads.WORKLOADS[workload](seed, scale)
        self.seconds = seconds
        self.trace = trace
        self.work = ROOT / ".perfbench_work" / f"{workload}-s{seed}-p{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.setup_s = []
        self.setup_digests = set()
        self.stage_digests = set()
        self.probe = spans.Probe(self.wl.train_batches)

    def setup(self):
        """One timed set-up in a fresh directory -> the directory, or None."""
        directory = self.work / f"setup{len(self.setup_s)}"
        directory.mkdir(parents=True)
        start = spans.now()
        calls = self.wl.setup(self.ts.cli, directory)
        self.setup_s.append(spans.now() - start)
        self.attempted += len(calls)
        bad = [(argv[0], rc) for argv, rc in calls if rc != 0]
        if bad:
            self.failed += len(bad)
            self.failures.append(f"setup {len(self.setup_s)}: {bad}")
            return None
        self.setup_digests.add(workloads.digest(directory, self.wl.setup_artifacts))
        if len(self.setup_digests) > 1:
            self.failed += 1
            self.failures.append("set-up artifacts differ from the first set-up's")
        return directory

    def call(self, tracer=None):
        """One checked stage call -> (seconds, probe snapshot)."""
        self.probe.reset()
        with spans.Patches() as patches:
            self.probe.install(patches, self.ts)
            if tracer is not None:
                tracer.install(patches, self.ts)
                fn = tracer.timed("stage", workloads.cli_call)
            else:
                fn = workloads.cli_call
            start = spans.now()
            rc, stdout = fn(self.ts.cli, self.dir, list(self.wl.stage))
            elapsed = spans.now() - start
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            self.failures.append(f"stage exited {rc}")
            return elapsed, None
        failures, quality = self.wl.check(self.dir, stdout, self.probe)
        self.stage_digests.add(workloads.digest(self.dir, self.wl.stage_artifacts))
        if len(self.stage_digests) > 1:
            failures.append("stage artifacts differ from the first call's")
        if failures:
            self.failed += 1
            self.failures.extend(failures)
            return elapsed, None
        sample = {"stage_s": elapsed, "batch_s": list(self.probe.batch_s),
                  "real_tokens": self.probe.real_tokens, "rows": self.probe.rows,
                  "slots": self.probe.slots, "quality": quality}
        return elapsed, sample

    def execute(self):
        """Set up, warm up, measure and check -> (detail, result)."""
        try:
            return self._execute()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            if self.work.parent.is_dir() and not any(self.work.parent.iterdir()):
                self.work.parent.rmdir()

    def _execute(self):
        self.dir = self.setup()
        if self.dir is None:
            return self.report([], None)
        self.call()  # warm-up: checked, not timed
        samples, traced = [], []
        deadline = spans.now() + self.seconds
        while True:
            _, sample = self.call()
            if sample is not None:
                samples.append(sample)
            if self.trace:
                tracer = spans.Tracer()
                elapsed, sample = self.call(tracer)
                traced.append((elapsed, tracer))
            again = self.setup()  # timed for setup_s only; the stage keeps self.dir
            if again is not None:
                shutil.rmtree(again)
            if spans.now() >= deadline:
                break
        return self.report(samples, traced)

    def end_to_end(self, samples):
        stage = [s["stage_s"] for s in samples]
        batches = [b for s in samples for b in s["batch_s"]]
        return {
            "setup_s": statistics.median(self.setup_s),
            "stage_s": statistics.median(stage),
            "tokens_per_s": statistics.median(s["real_tokens"] / s["stage_s"] for s in samples),
            "batch_ms_p50": 1e3 * percentile(batches, 50),
            "batch_ms_p90": 1e3 * percentile(batches, 90),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "loss_end": statistics.median(s["quality"]["loss_end"] for s in samples),
        }

    def per_layer(self, samples, traced):
        n = len(traced)
        totals, counts = {}, Counter()
        for _, tracer in traced:
            for name, row in tracer.totals().items():
                acc = totals.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += row[i]
            counts.update(tracer.counts)

        def column(i, *names):  # per-call mean of a totals column over span names
            return sum(totals.get(x, (0, 0.0, 0.0))[i] for x in names) / n

        def count(name):
            return counts[name] / n

        def pad_frac(layer):
            slots = counts[f"{layer}.slots"]
            return 1.0 - counts[f"{layer}.real"] / slots if slots else 0.0

        m = {}
        for op in spans.OPS:
            m[f"autodiff.{op}.fwd_s"] = column(2, f"autodiff.{op}")
            m[f"autodiff.{op}.bwd_s"] = column(2, f"autodiff.{op}.bwd")
            m[f"autodiff.{op}.calls"] = column(0, f"autodiff.{op}")
        op_self = sum(v for k, v in m.items() if k.endswith(("fwd_s", "bwd_s")))
        traced_stage = statistics.median(t for t, _ in traced)
        untraced_stage = statistics.median(s["stage_s"] for s in samples)
        m.update({
            "autodiff.backward_s": column(1, "autodiff.backward"),
            "autodiff.matmul.gflop": count("autodiff.matmul.flop") / 1e9,
            "encoder.encode_batch.fwd_s": column(1, "encoder.encode_batch"),
            "encoder.attention_block.fwd_s": column(1, "encoder.attention_block"),
            "encoder.rows": count("encoder.rows"),
            "encoder.row_pad_frac": pad_frac("encoder"),
            "tokenizer.encode_s": column(1, "tokenizer.encode", "tokenizer.encode_pair"),
            "tokenizer.sequences": count("tokenizer.sequences"),
            "tokenizer.pad_frac": pad_frac("tokenizer"),
            "classify.predict_s": column(1, "classify.predict_texts"),
            "classify.texts": count("classify.texts"),
            "classify.distinct_text_frac": (counts["classify.distinct"] / counts["classify.texts"]
                                            if counts["classify.texts"] else 0.0),
            "classify.dev_eval_s": column(1, "classify.dev_eval"),
            "pretrain.data_s": column(1, "pretrain.make_nsp_pairs", "pretrain.mask_tokens"),
            "pretrain.step_s": column(1, "pretrain.pretrain_step"),
            "optim.step_s": column(1, "optim.step"),
            "optim.steps": column(0, "optim.step"),
            "checkpoint.save_s": column(1, "checkpoint.save_checkpoint"),
            "checkpoint.load_s": column(1, "checkpoint.load_checkpoint"),
            "checkpoint.bytes": count("checkpoint.bytes"),
            "treebank.load_s": column(1, "treebank.load_corpus"),
            "treebank.trees": count("treebank.trees"),
            "trace.overhead_frac": traced_stage / untraced_stage - 1.0,
            "trace.op_self_frac": op_self / column(1, "stage"),
        })
        return m

    def inputs(self, samples):
        texts = self.wl.stage_texts()
        rows = sum(s["rows"] for s in samples)
        real = sum(s["real_tokens"] for s in samples)
        slots = sum(s["slots"] for s in samples)
        return {
            # None for a workload that BENCHMARK.json does not list (eval-grid)
            "why": next((w["why"] for w in BENCH["workloads"] if w["name"] == self.wl.name),
                        None),
            "nodes": {name: len(split.nodes) for name, split in self.wl.data.items()},
            "stage_texts": len(texts),
            "distinct_text_frac": len(set(texts)) / len(texts),
            "vocab_size": self.wl.vocab_size(self.dir),
            "mean_real_len": real / rows if rows else None,
            "pad_frac": 1.0 - real / slots if slots else None,
        }

    def report(self, samples, traced):
        detail = {
            "workload": self.wl.name, "seed": self.wl.seed, "trace": int(self.trace),
            "seconds": self.seconds, "closed_loop_clients": 1,
            "env": environment(self.ts),
            "samples": {"setups": len(self.setup_s), "stage_calls": len(samples),
                        "batches": sum(len(s["batch_s"]) for s in samples),
                        "traced_calls": len(traced or [])},
            "setup_s_all": self.setup_s,
            "digests": {"setup": sorted(self.setup_digests), "stage": sorted(self.stage_digests)},
            "failures": self.failures[:20],
        }
        detail["error_rate"] = self.failed / max(self.attempted, 1)
        metrics = {}
        if samples:
            detail["inputs"] = self.inputs(samples)
            quality = samples[-1]["quality"]
            detail["quality"] = quality
            e2e = self.end_to_end(samples)
            detail["stage_s_all"] = [s["stage_s"] for s in samples]
            if self.trace and traced:
                layer = self.per_layer(samples, traced)
                metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layer.items()}
                detail["end_to_end"] = e2e
                out = ROOT / ".perfbench_out"
                out.mkdir(exist_ok=True)
                path = out / f"spans_{self.wl.name}_s{self.wl.seed}.jsonl"
                with open(path, "w", encoding="utf-8") as fh:
                    for i, (_, tracer) in enumerate(traced):
                        tracer.dump(fh, i)
                detail["spans_file"] = str(path.relative_to(ROOT))
            else:
                metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
        result = {"correct": not self.failures and bool(samples),
                  "attempted": max(self.attempted, 1), "failed": self.failed,
                  "metrics": metrics}
        return detail, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    ts = import_treesent()
    seed = args.seed % 2**32  # numpy seeds must be non-negative
    detail, result = Run(ts, args.workload, seed, args.seconds, bool(args.trace)).execute()
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
