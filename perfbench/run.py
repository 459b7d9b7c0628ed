"""pageseq benchmark: runs one workload through `pageseq.cli.main`, in process,
the way a user runs the CLI (synth, train, infer, eval, compare), checks
every output, and prints the metrics.

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload untraced: set-up (`synth`, repeated), one
pass of every command, then the repeatable commands round-robin for
``--seconds``.  It prints every end-to-end metric.  ``--trace 1`` runs one
untraced and one traced pass and prints every per-layer metric; the two
passes must write byte-identical artifacts.  The last stdout line is the
JSON result; the full record (environment, percentiles, failures, artifact
hashes, spans) goes to ``.perfbench_work/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from calibration import Calibration
from checks import CheckFailed, sha256_of
from tracing import Tracer
from workloads import WORKLOADS, Layout, pipeline, synth_op, write_configs

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# A command shorter than this repeats within its round-robin turn, so quick
# commands get enough samples next to multi-second ones.
MIN_TURN_S = 0.5


class Runner:
    """Runs ops, times the successful ones, and keeps every failure."""

    def __init__(self, cli, base: Path, tracer: Tracer | None = None,
                 calibration: Calibration | None = None):
        self.cli = cli
        self.base = base
        self.tracer = tracer
        self.calibration = calibration
        self.facts = None
        self.samples: dict[str, list[float]] = defaultdict(list)
        # machine speed during each timed sample (Calibration.command_speeds)
        self.sample_speeds: dict[str, list[dict[str, float]]] = defaultdict(list)
        self.values: dict[str, object] = {}
        self.hashes: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong: list[str] = []
        self.busy_s = 0.0

    def run(self, op) -> bool:
        cal = self.calibration
        self.attempted += 1
        if cal is None:
            seconds, error = self._call(op)
            speed = None
        else:
            before = cal.probe()
            with cal.sampling() as during:
                seconds, error = self._call(op)
            speed = cal.command_speeds(before, cal.probe(), during)
        self.busy_s += seconds
        value = None
        if error is None:
            try:
                value = op.check(self.facts)
                self._check_unchanged(op)
            except CheckFailed as exc:
                error = f"wrong output: {exc}"
                self.wrong.append(f"{op.name}: {exc}")
        if error is not None:
            self.failures.append(f"{op.name}: {error}")
            return False
        self.samples[op.name].append(seconds)
        if speed is not None:
            self.sample_speeds[op.name].append(speed)
        if value is not None:
            self.values[op.name] = value
        return True

    def _call(self, op) -> tuple[float, str | None]:
        out, err = io.StringIO(), io.StringIO()
        root = (self.tracer.span(f"cli.{op.command}") if self.tracer
                else contextlib.nullcontext())
        rc, error = None, None
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), root:
                rc = self.cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # the run goes on; the op counts as failed
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
        if error is None and rc != 0:
            lines = err.getvalue().strip().splitlines()
            error = f"exit code {rc}" + (f": {lines[-1]}" if lines else "")
        return seconds, error

    def _check_unchanged(self, op) -> None:
        """Repeating an op must rewrite byte-identical artifacts."""
        for path in op.outputs:
            if not path.is_file():
                raise CheckFailed(f"{path.name} was not written")
            key = str(path.relative_to(self.base))
            digest = sha256_of(path)
            if self.hashes.setdefault(key, digest) != digest:
                raise CheckFailed(f"{key} differs from an earlier {op.name}")


def one_pass(cli, workload, seed: int, layout: Layout, tracer=None,
             setup_repeats: int = 1, seconds: float = 0.0,
             calibration: Calibration | None = None) -> Runner:
    """Set-up, every op once, then the repeatable ops round-robin for
    ``seconds``.  An op is started only when its last duration still fits.

    The round-robin spreads each repeated op's samples over the whole
    window, so their median follows the machine's typical speed rather
    than its speed at one moment."""
    write_configs(workload, seed, layout)
    runner = Runner(cli, layout.root, tracer, calibration)
    synth = synth_op(workload, layout)
    for _ in range(setup_repeats):
        runner.run(synth)
    runner.facts = runner.values.get("synth")
    if runner.facts is None:
        return runner
    ops = [synth] + pipeline(workload, layout)
    for op in ops[1:]:
        runner.run(op)
    deadline = time.perf_counter() + seconds
    fill = [op for op in ops if op.repeat and runner.samples[op.name]]
    ran = True
    while ran:
        ran = False
        for op in list(fill):
            turn_end = time.perf_counter() + MIN_TURN_S
            while time.perf_counter() + runner.samples[op.name][-1] <= deadline:
                ran = True
                if not runner.run(op):
                    fill.remove(op)
                    break
                if time.perf_counter() >= turn_end:
                    break
    return runner


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


TIME, RATE, FIXED = 1, -1, 0  # power of the machine speed that normalizes a metric


def end_to_end(runner: Runner, workload) -> list[tuple]:
    """(name, unit, kind, samples, speeds) of every end-to-end metric this
    workload has, with the machine speed for the kind of work (see
    calibration.py) during each sample.  A metric whose op never succeeded
    has no samples and is reported as absent, never as zero."""
    facts, samples = runner.facts, runner.samples
    train_work = facts.train_pages * workload.train["epochs"]
    test_pages = len(facts.test_pages)

    def timed(op, job="python", work=None):
        times = samples[op]
        scale = [speed[job] for speed in runner.sample_speeds[op]]
        if work is None:
            return TIME, times, scale
        return RATE, [work / s for s in times], scale

    def fixed(values):
        return FIXED, values, [1.0] * len(values)

    models = ["recurrent", "oblivious"]
    metrics = [
        ("setup_s", "s", *timed("synth")),
        ("train_pages_per_s", "pages/s",
         *timed("train_recurrent", workload.train_work, train_work)),
        ("oblivious_train_pages_per_s", "pages/s",
         *timed("train_oblivious", workload.train_work, train_work)),
    ]
    if workload.crf is not None:
        models.append("crf")
        metrics.append(("crf_train_s", "s", *timed("train_oblivious")))
    metrics += [(f"infer_{m}_pages_per_s", "pages/s",
                 *timed(f"infer_{m}", workload.infer_work if m in ("recurrent", "oblivious")
                        else "python", test_pages)) for m in models]
    metrics.append(("compare_s", "s", *timed("compare")))
    metrics += [(f"macro_f1_{m}", "%",
                 *fixed([runner.values[f"eval_{m}"]] if f"eval_{m}" in runner.values
                        else [])) for m in models]
    metrics += [
        ("failed_ops", "share", *fixed([len(runner.failures) / runner.attempted])),
        ("peak_rss_mb", "MB",
         *fixed([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0])),
    ]
    return metrics


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest of the usual percentiles with at least ten samples above
    it, by nearest rank; None when there are fewer than twenty samples."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = -(-p * n // 100)  # ceil
        if n - rank >= 10:
            return p, ordered[int(rank) - 1]
    return None


def summarize(metrics) -> dict[str, dict]:
    """Median, tail percentile and count of each metric, plus the median of
    its samples normalized to the reference machine speed: times x speed,
    rates / speed (see calibration.py)."""
    out = {}
    for name, unit, kind, samples, speeds in metrics:
        entry = {"unit": unit, "n": len(samples)}
        if samples:
            entry["median"] = statistics.median(samples)
            entry["normalized"] = statistics.median(
                s * speed ** kind for s, speed in zip(samples, speeds))
            tail = tail_percentile(samples)
            if tail is not None:
                entry["tail"] = {"percentile": tail[0], "value": tail[1]}
            entry["samples"] = samples
            entry["speeds"] = speeds
        out[name] = entry
    return out


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, if it exposes one."""
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs")
                      .glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "process": "one single-threaded benchmark process",
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def timed_run(cli, workload, seed, seconds, work: Path, declared: dict) -> dict:
    layout = Layout(work / "pass")
    calibration = Calibration()
    runner = one_pass(cli, workload, seed, layout, setup_repeats=SETUP_REPEATS,
                      seconds=seconds, calibration=calibration)
    speeds = calibration.speeds()
    summary = summarize(end_to_end(runner, workload)) if runner.facts else {}
    shutil.rmtree(layout.root, ignore_errors=True)
    return {
        "speed": speeds,
        "summary": summary,
        "metrics": {name: {"value": summary[name]["normalized"], "unit": unit}
                    for name, unit in declared.items()
                    if "median" in summary.get(name, {})},
        "attempted": runner.attempted,
        "failures": runner.failures,
        "wrong": runner.wrong,
        "hashes": runner.hashes,
    }


def traced_run(cli, workload, seed, work: Path, declared: dict) -> dict:
    plain_layout, traced_layout = Layout(work / "plain"), Layout(work / "traced")
    plain = one_pass(cli, workload, seed, plain_layout)
    tracer = Tracer()
    tracer.install()
    try:
        traced = one_pass(cli, workload, seed, traced_layout, tracer)
    finally:
        tracer.uninstall()

    wrong = [f"untraced {w}" for w in plain.wrong] + [f"traced {w}" for w in traced.wrong]
    for key in sorted(set(plain.hashes) | set(traced.hashes)):
        if plain.hashes.get(key) != traced.hashes.get(key):
            wrong.append(f"{key} differs between the untraced and traced pass")
    for key in sorted(k for k in plain.values if k.startswith("eval_")):
        if plain.values[key] != traced.values.get(key):
            wrong.append(f"{key} macro-F1 differs between the untraced and traced pass")

    totals = tracer.layer_totals()
    special = {
        "trace.overhead_share": traced.busy_s / plain.busy_s - 1.0,
        "trace.missing_sites": float(len(tracer.missing)),
    }
    metrics = {name: {"value": special[name] if name in special
                      else float(tracer.metric(name, totals)), "unit": unit}
               for name, unit in declared.items()}
    (work / "spans.json").write_text(json.dumps(tracer.spans_payload()),
                                     encoding="utf-8")
    shutil.rmtree(plain_layout.root, ignore_errors=True)
    shutil.rmtree(traced_layout.root, ignore_errors=True)
    return {
        "summary": {"untraced_pass_s": plain.busy_s, "traced_pass_s": traced.busy_s,
                    "missing_trace_sites": tracer.missing},
        "metrics": metrics,
        "attempted": plain.attempted + traced.attempted,
        "failures": [f"untraced {f}" for f in plain.failures]
        + [f"traced {f}" for f in traced.failures],
        "wrong": wrong,
        "hashes": plain.hashes,
    }


def print_report(record: dict, declared: dict) -> None:
    env = record["environment"]
    print(f"pageseq benchmark: workload {env['workload']}, seed {env['seed']}, "
          f"trace {record['trace']}")
    print("environment: " + json.dumps(env, sort_keys=True))
    if record["trace"]:
        print(f"{'per-layer metric':40s} {'unit':>8s} {'value':>14s}")
        for name, m in record["metrics"].items():
            print(f"{name:40s} {m['unit']:>8s} {m['value']:14.6g}")
        s = record["summary"]
        print(f"tracing overhead: untraced pass {s['untraced_pass_s']:.3f} s, "
              f"traced pass {s['traced_pass_s']:.3f} s")
    else:
        speeds = ", ".join(f"{job} {v:.4f}" for job, v in record["speed"].items())
        print(f"run speed vs the reference machine: {speeds}; "
              f"'normalized' = median at reference speed")
        print(f"{'end-to-end metric':30s} {'unit':>8s} {'median':>12s} "
              f"{'normalized':>12s} {'tail':>18s} {'n':>4s}  (* gated)")
        for name, m in record["summary"].items():
            mark = "*" if name in declared else " "
            if "median" not in m:
                print(f"{name:30s} {m['unit']:>8s} {'absent':>12s} {'':>12s} "
                      f"{'':>18s} {m['n']:4d} {mark} no successful sample")
                continue
            tail = (f"p{m['tail']['percentile']:g}={m['tail']['value']:.6g}"
                    if "tail" in m else "-")
            print(f"{name:30s} {m['unit']:>8s} {m['median']:12.6g} "
                  f"{m['normalized']:12.6g} {tail:>18s} {m['n']:4d} {mark}")
    print(f"operations: {record['attempted']} attempted, "
          f"{len(record['failures'])} failed")
    for failure in record["failures"]:
        print(f"  failed: {failure}")
    for wrong in record["wrong"]:
        print(f"  WRONG OUTPUT: {wrong}")
    print("artifact sha256 (first write):")
    for key, digest in sorted(record["hashes"].items()):
        print(f"  {digest}  {key}")


def load_pageseq():
    """Import the program from this checkout's ``src``, never from anywhere
    else; exits non-zero when the checkout has no program to measure."""
    src = ROOT / "src"
    if not (src / "pageseq" / "__init__.py").is_file():
        sys.exit(f"error: no pageseq sources under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    from pageseq import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: imported pageseq from {cli.__file__}, not {src}")
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"error: {spec_path} not found")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    # One BLAS thread: the run is one single-threaded process, and a second
    # BLAS thread on a small shared machine makes timings depend on whatever
    # else runs there.  Must be set before numpy is first imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    cli = load_pageseq()

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if args.trace:
        record = traced_run(cli, workload, args.seed, work, declared)
    else:
        record = timed_run(cli, workload, args.seed, args.seconds, work, declared)
    record.update(environment=environment(workload.name, args.seed),
                  trace=args.trace, seconds=args.seconds)
    (work / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True),
                                      encoding="utf-8")
    print_report(record, declared)
    print(json.dumps({
        "correct": not record["wrong"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
