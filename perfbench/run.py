"""jerklab benchmark: three closed-loop workloads, end-to-end metrics, and a
traced run for per-layer metrics.

Run from the root of a jerklab checkout:

    python3 perfbench/run.py --workload simulate-set --seed 1 --seconds 50 --trace 0

One client runs ops back to back in this process through
``jerklab.cli.main(argv)``; the next op starts when the previous returns.
Inputs are generated from ``--seed`` before timing starts (``gen.py``, in its
own process); every op's artifacts are checked against independent oracles
(``checks.py``) and their SHA-256 digests recorded.

Other tenants of a shared host slow whole stretches of a run, so the host's
speed is sampled while every bounded timing is taken (``probe.py``), and the
timing is reported at a fixed reference speed.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates untraced
and traced ops and prints the per-layer metrics; the ratio of the two op-time
medians is ``trace.overhead_ratio``. The last line of stdout is one JSON
object; the full record of the run (machine, versions, seed, raw and scaled
times, speed probes, per-op digests, spans) goes to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path
from time import perf_counter

import tracing
import workloads
from checks import CheckFailed
from probe import Sampler, at_ref_speed, speed_probe
from spec import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

#: Fresh interpreter processes per set-up measurement, after one warm-up that
#: may compile bytecode. End-to-end runs take half of them before the timed
#: ops and half after.
SETUP_PROCESSES = 12
#: One set-up process: it imports jerklab.cli while sampling its own speed,
#: then prints the time spent sampling and the mean sample.
SETUP_CHILD = """
import sys
sys.path.insert(0, {here!r})
import probe
with probe.Sampler() as speed:
    import jerklab.cli
print(speed.spent_s, speed.mean_s())
"""
#: Ops timed at least, whatever ``--seconds`` says.
MIN_OPS = 4
SUBPROCESS_TIMEOUT = 120


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "platform": platform.platform(), "python": platform.python_version()}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _python(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT,
                          check=True)


def setup_times(count: int) -> list[dict]:
    """Wall time of fresh ``import jerklab.cli`` processes, and that time,
    less the sampling, at the reference speed."""
    out = []
    for _ in range(count):
        t = perf_counter()
        child = _python(["-c", SETUP_CHILD.format(here=str(HERE))])
        wall = perf_counter() - t
        spent, mean = map(float, child.stdout.split())
        out.append({"wall_s": wall, "sampling_s": spent, "mean_sample_s": mean,
                    "ref_s": at_ref_speed(wall - spent, mean)})
    return out


def parse_importtime(text: str) -> tuple[float, float]:
    """(numpy, jerklab without numpy) cumulative import seconds from
    ``-X importtime`` output of ``import jerklab.cli``."""
    total_us = numpy_us = 0
    block = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        name = name.strip()
        if level > 0:
            block[name] = int(cum)
            continue
        if name.startswith("jerklab"):
            total_us += int(cum)
            numpy_us += block.get("numpy", 0)
        block = {}
    return numpy_us / 1e6, (total_us - numpy_us) / 1e6


def import_breakdown() -> tuple[float, float]:
    runs = [parse_importtime(_python(["-X", "importtime", "-c", "import jerklab.cli"]).stderr)
            for _ in range(SETUP_PROCESSES)]
    return (statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs))


class Harness:
    """Runs one workload's ops through ``cli.main`` and checks each one."""

    def __init__(self, workload: str, inputs: dict, in_dir: Path, out_dir: Path, cli):
        self.workload = workload
        self.inputs = inputs
        self.out_dir = out_dir
        self.cli = cli
        self.steps = workloads.op_steps(workload, inputs, in_dir, out_dir)
        self.tracer = tracing.Tracer()
        self.first_digests = None

    def call(self, argv) -> workloads.StepResult:
        out, err = io.StringIO(), io.StringIO()
        code = raised = None
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # an op that raises is a failed op
                raised = f"{type(exc).__name__}: {exc}"
        return workloads.StepResult(code, out.getvalue(), err.getvalue(), raised)

    def run_op(self, index: int, traced: bool) -> dict:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        gc.collect()
        tr = self.tracer
        tr.op, tr.enabled = index, traced
        results = {}
        with Sampler() as speed:
            t0 = perf_counter()
            for step in self.steps:
                results[step.label] = self.call(step.argv)
            seconds = perf_counter() - t0 - speed.spent_s
        tr.enabled = False
        tr.end_op()
        error = None
        try:
            workloads.check_op(self.workload, self.inputs, results, self.out_dir)
        except CheckFailed as exc:
            error = str(exc)
        except Exception as exc:  # a malformed or missing artifact fails the op
            error = f"{type(exc).__name__}: {exc}"
        digests = workloads.digests(self.out_dir, results)
        if self.first_digests is None:
            self.first_digests = digests
        if error is None and digests != self.first_digests:
            error = "artifacts differ from the first op's on the same inputs"
        report_bytes = sum(p.stat().st_size for p in self.out_dir.iterdir()
                           if p.suffix == ".json" or p.name.endswith("_windows.csv"))
        return {"index": index, "traced": traced, "seconds": seconds,
                "ref_s": at_ref_speed(seconds, speed.mean_s()),
                "sampling_s": speed.spent_s, "speed_samples": len(speed.samples),
                "mean_sample_s": speed.mean_s(), "ok": error is None, "error": error,
                "report_bytes": report_bytes, "sha256": digests}

    def run(self, seconds: float, trace: bool) -> list[dict]:
        """One untimed warm-up op, then ops back to back for ``seconds``.
        Traced runs trace every other op."""
        if trace:
            self.tracer.install()
        ops = [dict(self.run_op(0, False), warmup=True)]
        start = perf_counter()
        while perf_counter() - start < seconds or len(ops) - 1 < MIN_OPS:
            index = len(ops)
            ops.append(dict(self.run_op(index, trace and index % 2 == 1), warmup=False))
        self.tracer.uninstall()
        return ops


def op_stats(times: list[float]) -> dict:
    """Wall op-time statistics for the results file: median, 10th percentile,
    throughput, and the highest whole percentile with at least ten ops beyond
    it (None when the run has too few ops for one)."""
    n = len(times)
    out = {"ops": n, "p10_s": statistics.quantiles(times, n=10, method="inclusive")[0],
           "p50_s": statistics.median(times), "ops_per_s": n / sum(times),
           "tail_percentile": None, "tail_s": None}
    if n > 10:
        pct = (100 * (n - 10)) // n
        if pct >= 1:
            out["tail_percentile"] = pct
            out["tail_s"] = statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
    return out


def end_to_end(ops: list[dict], setup: list[dict]) -> dict:
    return {
        "setup_s": (statistics.median(s["ref_s"] for s in setup), "s"),
        "op_ref_s": (statistics.median(op["ref_s"] for op in ops if not op["warmup"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (sum(op["ok"] for op in ops) / len(ops), "ratio"),
    }


LAYER_UNITS = {"_per_s": "1/s", "_ns_per_substep": "ns", "_us_per_sample": "us",
               "_s": "s", "_bytes": "B", "_ratio": "ratio"}


def _unit(name: str) -> str:
    if name.startswith("share."):
        return "ratio"
    return next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)), "count")


def per_layer(ops: list[dict], spans: list[tracing.Span], imports) -> tuple[dict, list]:
    timed = [op for op in ops if not op["warmup"]]
    by_op: dict[int, tuple[list, list]] = {}
    for s, st in zip(spans, tracing.self_times(spans)):
        own = by_op.setdefault(s.op, ([], []))
        own[0].append(s)
        own[1].append(st)
    per_op = []
    for op in timed:
        if op["traced"]:
            # Spans include the speed samples taken inside them.
            m = tracing.op_layer_metrics(*by_op[op["index"]],
                                         op["seconds"] + op["sampling_s"])
            m["cli.report_bytes"] = float(op["report_bytes"])
            # Times at the reference speed, like the end-to-end op time.
            scale = op["ref_s"] / op["seconds"]
            for k in m:
                unit = _unit(k)
                if unit in ("s", "ns", "us"):
                    m[k] *= scale
                elif unit == "1/s":
                    m[k] /= scale
            per_op.append(m)
    med = tracing.median_per_op(per_op)
    traced = [op["ref_s"] for op in timed if op["traced"]]
    plain = [op["ref_s"] for op in timed if not op["traced"]]
    med["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    med["setup.numpy_import_s"], med["setup.jerklab_import_s"] = imports
    return {k: (v, _unit(k)) for k, v in sorted(med.items())}, per_op


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jerklab" / "__init__.py").is_file():
        print(f"error: no jerklab sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import jerklab.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported jerklab from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out_root = ROOT / ".bench_out"
    work = out_root / f"work-{os.getpid()}"
    in_dir, out_dir = work / "in", work / "out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine(),
              "numpy": numpy.__version__, "speed_probe_s": {"start": speed_probe()}}
    try:
        _python([str(HERE / "gen.py"), args.workload, str(args.seed), str(in_dir)])
        inputs = json.loads((in_dir / "inputs.json").read_text(encoding="utf-8"))
        record["inputs"] = {
            "draw": inputs["draw"],
            "files": {p.name: {"bytes": p.stat().st_size, "sha256": _sha256(p)}
                      for p in sorted(in_dir.iterdir()) if p.name != "inputs.json"},
        }
        setup_times(1)  # warm-up: may write bytecode
        harness = Harness(args.workload, inputs, in_dir, out_dir, cli)
        if args.trace:
            imports = import_breakdown()
            ops = harness.run(args.seconds, trace=True)
            metrics, record["layer_per_op"] = per_layer(ops, harness.tracer.spans, imports)
            record["unwrapped"] = harness.tracer.missing
            record["computed_counts"] = tracing.COMPUTED_COUNTS
        else:
            setup = setup_times(SETUP_PROCESSES // 2)
            ops = harness.run(args.seconds, trace=False)
            setup += setup_times(SETUP_PROCESSES - len(setup))
            record["setup_samples"] = setup
            record["op_time"] = op_stats([op["seconds"] for op in ops if not op["warmup"]])
            metrics = end_to_end(ops, setup)
    except subprocess.CalledProcessError as exc:
        print(f"error: {' '.join(map(str, exc.cmd))} failed:\n{exc.stderr}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["speed_probe_s"]["end"] = speed_probe()
    record["ops"] = ops
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    results = out_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        with (results / f"{tag}-spans.jsonl").open("w", encoding="utf-8") as f:
            for s in harness.tracer.spans:
                f.write(json.dumps(asdict(s)) + "\n")

    failed = [op for op in ops if not op["ok"]]
    for op in failed[:5]:
        print(f"FAILED op {op['index']}: {op['error']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    for name, value in record.get("op_time", {}).items():
        print(f"op_time.{name:26s} {value}")
    print(f"results: {results / (tag + '.json')}")
    print(json.dumps({
        "correct": not failed, "attempted": len(ops), "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
