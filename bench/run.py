"""Seeded benchmark for ccsym: one workload per run, in a fresh interpreter.

    python3 bench/run.py --workload symbol-suites --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --out results/base

Load is a closed loop with a single caller: one process, one thread, one
operation at a time, CLI subprocesses one at a time.  A run builds the
workload's pass from the seed, repeats the pass until ``--seconds`` are used
(at least twice), checks every output of the first pass against the
workload's oracles and every later pass against the first, and prints each
metric by name and unit.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``) listed in
BENCHMARK.json.  The traced run first makes one untraced pass, whose outputs
the traced passes must reproduce, and reports the difference of the two as
``trace.overhead_s``.  Times are speed-normalized (see ``Speed``); the raw
ones go to the result file.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 3          # set-ups per run; setup_s is their median
IMPORT_SAMPLES = 5  # fresh interpreters timing `import ccsym.cli`
ROUNDTRIP_EVERY_S = 1.0  # one subprocess round trip per this much pass time
MIN_PASSES = 2
REF_S = 0.0035      # nominal time of one reference-kernel call
BARE_S = 0.05       # nominal start-up time of a bare interpreter
CHUNK_S = 0.1       # operation time between two speed samples
WINDOW = 4          # speed samples on each side of an interval that judge it


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def reference_kernel():
    """A fixed standard-library computation shaped like the engine's scalar
    kernel: a product of two sparse polynomials with Fraction coefficients."""
    a = {(i, j, k): Fraction(i + 1, j + k + 2)
         for i in range(3) for j in range(3) for k in range(3)}
    out = {}
    for ea, sa in a.items():
        for eb, sb in a.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + sa * sb
    return out


class Speed:
    """The machine's speed through a run, sampled with ``reference_kernel``.

    Shared hosts change speed by up to 1.7x from one few-second stretch to the
    next, for the engine and the kernel alike, which no number of passes
    averages out.  ``mark`` takes a sample (the median of three kernel calls)
    and returns its index.  A time measured between marks ``i`` and ``j`` is
    divided by ``factor(i, j)``, the median of the samples from WINDOW before
    ``i`` to WINDOW after ``j`` over REF_S: it becomes the time on a machine
    where the kernel takes REF_S.  The kernel uses nothing of ccsym, so a
    change to the engine cannot move it.
    """

    def __init__(self):
        self.samples = []

    def mark(self):
        times = []
        for _ in range(3):
            t = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - t)
        self.samples.append(statistics.median(times))
        return len(self.samples) - 1

    def factor(self, i, j):
        window = self.samples[max(0, i - WINDOW):j + WINDOW + 1]
        return statistics.median(window) / REF_S

    def normalize(self, timed):
        """Normalized seconds of ``(raw seconds, first mark, last mark)``."""
        raw, i, j = timed
        return raw / self.factor(i, j)


def bare_start():
    """Seconds to start and stop a bare interpreter, `python -c pass`."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(), cwd=ROOT,
                   timeout=60, check=True)
    return time.perf_counter() - t


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


class Run:
    """One workload, one seed: set-up, timed passes, checks, metrics."""

    def __init__(self, workloads, name, seed, seconds, trace):
        self.W = workloads
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.speed = Speed()
        self.failures = {}
        self.inprocess = {}
        self.attempted = 0
        self.failed = 0

    def setup(self):
        """Import in fresh interpreters, then build and warm the workload SETUPS times.

        Every timing is a (raw seconds, first mark, last mark) triple.
        """
        speed = self.speed
        code = ("import time; t = time.perf_counter(); import ccsym.cli; "
                "print(time.perf_counter() - t)")
        self.imports = []
        for _ in range(IMPORT_SAMPLES):
            i = speed.mark()
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, env=child_env(), cwd=ROOT, timeout=60,
                                  check=True)
            self.imports.append((float(proc.stdout), i, speed.mark()))
        self.builds, self.setups = [], []
        for _ in range(SETUPS):
            i = speed.mark()
            t = time.perf_counter()
            wl = self.W.WORKLOADS[self.name](self.seed)
            built = time.perf_counter() - t
            wl.warm_up()
            total = time.perf_counter() - t
            j = speed.mark()
            self.builds.append((built, i, j))
            self.setups.append((total, i, j))
        self.wl = wl
        self.props = wl.describe()
        # The pass's inputs live for the whole run; keep them out of the
        # collector's way, as a caller holding a few small inputs would be.
        gc.collect()
        gc.freeze()

    def one_pass(self, tracer=None):
        """Run every operation once: (timings by name, outputs by name)."""
        wl = self.wl
        wl.reset()
        if tracer is not None:
            tracer.reset()
        timings, outs = {}, {}
        chunk, chunk_s = [], 0.0
        start = self.speed.mark()
        for index, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op = index
            if op.prepare is not None:
                op.prepare()
            t = time.perf_counter()
            try:
                outs[op.name] = op.fn()
            except Exception as exc:  # an untyped failure of the engine
                outs[op.name] = exc
            seconds = time.perf_counter() - t
            chunk.append((op.name, seconds))
            chunk_s += seconds
            if chunk_s >= CHUNK_S or index == len(wl.ops) - 1:
                end = self.speed.mark()
                for name, seconds in chunk:
                    timings[name] = (seconds, start, end)
                chunk, chunk_s, start = [], 0.0, end
        if tracer is not None:
            tracer.op = -1
        return timings, outs

    def fail(self, name, detail):
        self.failures.setdefault(name, str(detail)[:500])

    def measure(self):
        """Timed passes until the run's seconds are used, at least MIN_PASSES.

        In a traced run every pass after the first is traced.
        """
        self.passes = []
        self.layer = []
        self.roundtrips = []
        self.first = None
        self.tracer = None
        deadline = time.perf_counter() + self.seconds
        try:
            while True:
                traced = bool(self.trace and self.passes)
                if traced and self.tracer is None:
                    import layertrace
                    self.tracer = layertrace.Tracer()
                    self.tracer.install()
                timings, outs = self.one_pass(self.tracer if traced else None)
                self.passes.append((traced, timings))
                self.attempted += len(outs)
                if traced:
                    marks = [m for _, *m in timings.values()]
                    self.layer.append((self.tracer.metrics(), min(marks)[0], max(marks)[1]))
                self.compare_outputs(outs, traced)
                pass_s = sum(s for s, _, _ in timings.values())
                self.sample_roundtrips(min(10, max(1, round(pass_s / ROUNDTRIP_EVERY_S))))
                left = deadline - time.perf_counter()
                if len(self.passes) >= MIN_PASSES and left < pass_s:
                    break
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()

    def compare_outputs(self, outs, traced):
        """Every pass must reproduce the first pass's outputs exactly."""
        if self.first is None:
            self.first = outs
            self.canon = {k: self.W.canon(v) for k, v in outs.items()}
            return
        for name, value in outs.items():
            if self.W.canon(value) != self.canon[name]:
                self.failed += 1
                self.fail(name, ("traced output differs from untraced: " if traced
                                 else "output differs between passes: ") + self.W.canon(value))

    def sample_roundtrips(self, count):
        """Subprocess requests after a pass, rotating through the sample.

        Each follows a bare interpreter start: a round trip is normalized by
        that start-up time over BARE_S, because process start-up on a shared
        host slows and speeds up apart from the reference kernel.
        """
        sample = self.wl.roundtrip
        for _ in range(count):
            name, doc = sample[len(self.roundtrips) % len(sample)]
            text = doc if isinstance(doc, str) else json.dumps(doc, sort_keys=True)
            bare = bare_start()
            t = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "ccsym.cli"], input=text,
                                  capture_output=True, text=True, env=child_env(), cwd=ROOT,
                                  timeout=120)
            self.roundtrips.append((time.perf_counter() - t, bare))
            self.attempted += 1
            if name not in self.inprocess:
                self.inprocess[name] = self.first.get(name) or self.W.run_main(text)
            want = self.inprocess[name]
            if (proc.returncode, proc.stdout) != want:
                self.failed += 1
                self.fail(f"subprocess/{name}",
                          f"exit {proc.returncode} {proc.stdout!r}, in process {want!r}")

    def verify(self):
        outs = self.first
        bad = [(k, repr(v)) for k, v in outs.items() if isinstance(v, Exception)]
        if not bad:
            bad = self.wl.check(outs)
        for name, detail in bad:
            self.fail(name, detail)
        self.failed += len(self.passes) * len({name for name, _ in bad})

    # -- metrics ------------------------------------------------------------------

    def end_to_end(self, normalized=True):
        """Timing metrics from each operation's median over the untraced passes.

        Taking the median per operation first keeps a burst of machine noise in
        one pass from moving the figures; ``wall_s`` is the pass these medians
        make up.
        """
        def seconds(timed):
            return self.speed.normalize(timed) if normalized else timed[0]

        timed = [timings for traced, timings in self.passes if not traced]
        op = {name: statistics.median(seconds(t[name]) for t in timed) for name in timed[0]}
        samples = list(op.values())
        p90 = quantile(samples, 90)
        setup = statistics.median(map(seconds, self.imports)) + \
            statistics.median(map(seconds, self.setups))
        return {
            "setup_s": setup,
            "wall_s": sum(samples),
            "op_p50_ms": 1e3 * statistics.median(samples),
            "op_p90_ms": 1e3 * p90,
            "worst_case_s": sum(op[name] for name in self.wl.worst),
            "cli_roundtrip_ms": 1e3 * statistics.median(
                rt * BARE_S / bare if normalized else rt for rt, bare in self.roundtrips),
            "fail_ratio": self.failed / self.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }, {"ops_per_pass": len(samples),
            "ops_beyond_p90": sum(1 for t in samples if t > p90),
            "passes": len(timed),
            "roundtrips": len(self.roundtrips)}

    def per_layer(self):
        """Medians over the traced passes; times scaled by each pass's speed."""
        scaled = []
        for metrics, i, j in self.layer:
            f = self.speed.factor(i, j)
            scaled.append({k: v / f if k.endswith("_s") else v for k, v in metrics.items()})
        layer = {k: statistics.median(m[k] for m in scaled) for k in scaled[0]}
        walls = {False: [], True: []}
        for traced, timings in self.passes:
            walls[traced].append(sum(map(self.speed.normalize, timings.values())))
        layer["trace.overhead_s"] = statistics.median(walls[True]) - \
            statistics.median(walls[False])
        layer["checks.input_gen_s"] = statistics.median(map(self.speed.normalize, self.builds))
        layer["checks.input_repeat_share"] = self.props["checks.input_repeat_share"]
        layer["cli.import_s"] = statistics.median(map(self.speed.normalize, self.imports))
        return layer


def print_metrics(title, metrics, units):
    print(title)
    for name, value in metrics.items():
        unit = units.get(name, "")
        print(f"  {name:<34} {value:>14.6g} {unit}")


def run_one(args, spec):
    if not (SRC / "ccsym" / "__init__.py").is_file():
        sys.exit(f"no ccsym sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    run = Run(workloads, args.workload, args.seed, args.seconds, args.trace)
    run.setup()
    run.measure()
    run.verify()
    e2e, counts = run.end_to_end()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(fail_ratio="1")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {run.attempted}  failed {run.failed}  passes {counts['passes']}")
    print_metrics("end to end:", e2e, units)
    print(f"  (percentiles over {counts['ops_per_pass']} operations, "
          f"{counts['ops_beyond_p90']} beyond p90; each operation's median over "
          f"{counts['passes']} passes; {counts['roundtrips']} round trips)")
    kernel = sorted(run.speed.samples)
    print(f"  (times normalized to a {REF_S * 1e3:g} ms reference kernel; it took "
          f"{kernel[0] * 1e3:.3g}-{kernel[-1] * 1e3:.3g} ms, median "
          f"{statistics.median(kernel) * 1e3:.3g} ms, over {len(kernel)} samples)")
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "end_to_end": e2e,
              "end_to_end_raw": run.end_to_end(normalized=False)[0], "counts": counts,
              "inputs": run.props, "failures": run.failures,
              "environment": {"python": platform.python_version(), "nproc": os.cpu_count(),
                              "commit": commit(), "platform": platform.platform(),
                              "reference_kernel_s": {"median": statistics.median(kernel),
                                                     "min": kernel[0], "max": kernel[-1]}}}
    names = [m["name"] for m in spec["end_to_end"]]
    values = e2e
    if args.trace:
        values = result["per_layer"] = run.per_layer()
        print_metrics("per layer (traced passes):", values, units)
        names = [m["name"] for m in spec["per_layer"]]
    if args.workload == "cli-corpus":
        result["responses"] = run.wl.responses(run.first)
    print("inputs: " + json.dumps(run.props, sort_keys=True))
    for name, detail in sorted(run.failures.items()):
        print(f"FAILED {name}: {detail}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        (out / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True))
        if args.trace:
            run.tracer.dump(out / f"{stem}.spans.jsonl")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {n: {"value": values[n], "unit": units[n]} for n in names}}))
    return 0


def run_all(args, names):
    """Every workload in its own fresh interpreter, one after another."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--out", args.out] if args.out else [])
        proc = subprocess.run(cmd, cwd=ROOT)
        status = status or proc.returncode
    return status


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for the full result JSON (and spans)")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args, names)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
