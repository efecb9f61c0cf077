"""fieldnet benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from ``src/``.
Each operation is the workload's timed fieldnet commands run back to back
in this process, and the next operation starts when the previous one has
finished.  With ``--trace 0`` the last stdout line holds the end-to-end
metrics; with ``--trace 1`` untraced and traced operations alternate and
the last line holds the per-layer metrics.  See README.md in this
directory.
"""

from __future__ import annotations

import os
import sys

# BLAS threads must be fixed before numpy is first imported.
NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = {k: str(NPROC) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS")}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import check_output, path_objective, report_counts, tree_digest  # noqa: E402
from microbench import normal_apply  # noqa: E402
from tracer import Tracer, layer_metrics, summarize_spans  # noqa: E402
from workloads import WORKLOADS, command_argv, run_command, setup, write_config  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7


def _median(values):
    return statistics.median(values) if values else 0.0


def _src_files():
    return sorted((SRC / "fieldnet").rglob("*.py"))


def environment():
    """Versions, thread counts and code identity, recorded with every run."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV,
        "nproc": NPROC,
        "commit": commit,
        "src_lines": sum(len(p.read_text().splitlines()) for p in _src_files()),
        "load_model": "closed loop, 1 client, 1 process",
    }


def code_digest(workload):
    """Identity of what the deterministic counts depend on: the package
    source and the workload's config."""
    h = hashlib.sha256()
    for p in _src_files() + [HERE / "configs" / f"{workload.name}.ini"]:
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def import_package():
    if not (SRC / "fieldnet" / "__init__.py").is_file():
        sys.exit(f"error: no fieldnet package under {SRC}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import fieldnet  # noqa: F401


def probe_setup_times(args, workdir):
    """Set-up seconds of fresh processes, from spawn until ready."""
    times = []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload",
               args.workload, "--seed", str(args.seed), "--workdir", str(workdir / f"probe{k}")]
        if args.tiny:
            cmd.append("--tiny")
        started = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - started)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        shutil.rmtree(workdir / f"probe{k}", ignore_errors=True)
    return times


class Loop:
    """The closed loop over operations, with their checks and timings."""

    def __init__(self, workload, seed, workdir, tiny, fixture, tracer=None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.fixture = fixture
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.pipeline = []  # seconds per untraced operation
        self.pairs = []  # (untraced, traced) seconds of one instance
        self.command_s = {c: [] for c in workload.timed}
        self.digests = {}
        self.counts = {}
        self.layers = []  # per traced operation
        self.first_spans = None  # (start, spans) of the first traced operation
        self.first_dir = None  # instance 0's first output
        self.n_ops = 0

    def operation(self, index, traced):
        config = self.workdir / f"instance{index:02d}.ini"
        if not config.is_file():
            write_config(self.workload, self.seed, index, self.workdir, self.tiny)
        out_root = self.workdir / f"op{self.n_ops:03d}"
        self.n_ops += 1
        tracer = self.tracer if traced else None
        if tracer:
            tracer.reset()
            tracer.install()
        ok = True
        wall = 0.0  # the commands' own time; output checks run between them
        started = time.perf_counter()
        try:
            for command in self.workload.timed:
                argv, out_dir = command_argv(command, config, out_root, self.fixture)
                t0 = time.perf_counter()
                if tracer:
                    tracer.open(f"cli.{command}")
                code, text = run_command(argv)
                if tracer:
                    tracer.close()
                elapsed = time.perf_counter() - t0
                wall += elapsed
                self.attempted += 1
                problems = check_output(command, code, out_dir)
                if problems:
                    self.failed += 1
                    self.problems += problems + [text[-2000:]]
                    ok = False
                    break
                if not traced:
                    self.command_s[command].append(elapsed)
        finally:
            if tracer:
                tracer.uninstall()
        if not ok:
            shutil.rmtree(out_root, ignore_errors=True)
            return None
        if not traced:
            self.pipeline.append(wall)
        if tracer:
            self.layers.append((index, summarize_spans(tracer)))
            if self.first_spans is None:
                self.first_spans = (started, tracer.spans)
            tracer.reset()
        self._compare(index, tree_digest(out_root))
        fit_dir = self.fixture or out_root / "fit"
        report = json.loads((fit_dir / "report.json").read_text())
        self._repeat_exactly(index, report_counts(report))
        # Instance 0's first output stays for the microbenchmark and the
        # path objective; the digests are all a repeat needs.
        if index == 0 and self.first_dir is None:
            self.first_dir = out_root
        else:
            shutil.rmtree(out_root, ignore_errors=True)
        return wall

    def _compare(self, index, digest):
        first = self.digests.setdefault(index, digest)
        if first != digest:
            diff = sorted(k for k in set(first) | set(digest) if first.get(k) != digest.get(k))
            self.problems.append(f"instance {index}: repeat differs in {diff[:5]}")

    def _repeat_exactly(self, index, counts):
        first = self.counts.setdefault(index, counts)
        if first != counts:
            self.problems.append(f"instance {index}: deterministic counts differ: "
                                 f"{first} != {counts}")

    def run(self, seconds, traced_pairs):
        """Run operations until the next would end after ``seconds``.

        Instance 0 runs twice (in trace mode once untraced, once traced) so
        every run checks that repeats are byte-identical.
        """
        started = time.perf_counter()
        durations = []
        index = 0
        while True:
            per_step = 2 if traced_pairs else 1
            min_steps = 1 if traced_pairs else 2
            steps = len(durations) // per_step
            elapsed = time.perf_counter() - started
            if steps >= min_steps and elapsed + per_step * _median(durations) > seconds:
                break
            if traced_pairs:
                plain = self.operation(index, traced=False)
                traced = self.operation(index, traced=True) if plain is not None else None
                if plain is None or traced is None:
                    break
                durations += [plain, traced]
                self.pairs.append((plain, traced))
            else:
                wall = self.operation(index, traced=False)
                if wall is None:
                    break
                durations.append(wall)
                if len(durations) == 1:
                    continue
            # A fixture workload summarizes one fit, so it has one instance.
            if not self.fixture:
                index += 1
        return time.perf_counter() - started


def check_ledger(key, counts):
    """Deterministic counts must repeat exactly across runs of the same code."""
    path = OUT / "counts.json"
    ledger = json.loads(path.read_text()) if path.is_file() else {}
    known = ledger.get(key, {})
    problems = [f"{name}: {known[name]} in an earlier run, {value} now"
                for name, value in counts.items() if name in known and known[name] != value]
    ledger[key] = {**known, **counts}
    OUT.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    tmp.replace(path)
    return problems


def end_to_end(loop, setup_times):
    report_path = (loop.fixture or (loop.first_dir or WORK) / "fit") / "report.json"
    objective = 0.0  # only when every operation failed, which also clears "correct"
    if report_path.is_file():
        objective = path_objective(json.loads(report_path.read_text()))
    return {
        "setup_s": (_median(setup_times), "s"),
        "pipeline_s": (_median(loop.pipeline), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "path_objective": (objective, "ratio"),
        "ok_rate": ((loop.attempted - loop.failed) / max(loop.attempted, 1), "fraction"),
    }


COUNT_SUFFIXES = (".calls", ".points", ".bytes", ".alternations", ".sweeps", ".converged",
                  ".dual_gap", ".converged_ratio", "solver.iterations.stimulus",
                  "solver.iterations.network", "solver.iterations.memory")
UNITS = {"arrays.dta1.bytes": "B", "solver.converged_ratio": "fraction",
         "precision.graphical_lasso.converged": "fraction",
         "precision.graphical_lasso.dual_gap": "gap"}


def per_layer(loop, microbench):
    """Counts from instance 0's traced operation (they repeat exactly);
    times as the median over traced operations."""
    per_op = [layer_metrics(op) for _, op in loop.layers]
    out = {}
    for name, value in per_op[0].items():
        if name.endswith(COUNT_SUFFIXES):
            out[name] = (value, UNITS.get(name, "count"))
        else:
            out[name] = (_median([m[name] for m in per_op]), "s")
    seconds, flops, nbytes = microbench
    out["design.normal_apply.s"] = (seconds, "s")
    out["design.normal_apply.flops_computed"] = (flops, "flop")
    out["design.normal_apply.bytes_computed"] = (nbytes, "B")
    for command in ("simulate", "fit", "summarize"):
        out[f"{command}_s"] = (_median(loop.command_s.get(command, [])), "s")
    ratios = [traced / plain for plain, traced in loop.pairs]
    out["trace.overhead_frac"] = (_median(ratios) - 1.0, "fraction")
    out["error_rate"] = (loop.failed / max(loop.attempted, 1), "fraction")
    return out


def deterministic_counts(loop):
    counts = {"report": loop.counts.get(0)}
    if loop.layers:
        metrics = layer_metrics(loop.layers[0][1])
        counts["trace"] = {k: v for k, v in metrics.items()
                           if k.endswith(COUNT_SUFFIXES)}
    return counts


def write_trace(loop, path):
    """Spans of the first traced operation, then one line per traced
    operation with its per-name totals."""
    OUT.mkdir(exist_ok=True)
    start, spans = loop.first_spans
    with open(path, "w") as fh:
        for span_id, name, t0, t1, parent, own in sorted(spans, key=lambda sp: sp[2]):
            fh.write(json.dumps({"id": span_id, "name": name, "start": t0 - start,
                                 "end": t1 - start, "parent": parent, "self_s": own}) + "\n")
        for k, (index, op) in enumerate(loop.layers):
            fh.write(json.dumps({"op": k, "instance": index, "calls": op["calls"],
                                 "s": op["s"], "self_s": op["self_s"]}) + "\n")


def print_table(workload, loop, metrics, elapsed):
    """Human-readable metrics, each timing with its slowest sample and
    sample count; in untraced runs also the per-command medians and the
    error rate, which are not gated end-to-end metrics."""
    print(f"{workload.name}: {loop.n_ops} operations, {loop.attempted} commands, "
          f"{loop.failed} failed, {elapsed:.1f} s measured")
    samples = {"pipeline_s": loop.pipeline,
               **{f"{c}_s": v for c, v in loop.command_s.items()}}
    rows = dict(metrics)
    if "ok_rate" in metrics:
        rows.update({name: (_median(v), "s") for name, v in samples.items()})
        rows["error_rate"] = (loop.failed / max(loop.attempted, 1), "fraction")
    for name, (value, unit) in rows.items():
        extra = ""
        if samples.get(name):
            extra = f"  (max {max(samples[name]):.4g} of n={len(samples[name])})"
        print(f"  {name:46s} {value:14.6g} {unit}{extra}")
    print("  pipeline_s samples: " + " ".join(f"{v:.3f}" for v in loop.pipeline))


def run(args):
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_times = [] if args.trace else probe_setup_times(args, workdir)
        fixture = setup(workload, args.seed, workdir, args.tiny)
        tracer = Tracer() if args.trace else None
        loop = Loop(workload, args.seed, workdir, args.tiny, fixture, tracer)
        elapsed = loop.run(args.seconds, traced_pairs=bool(args.trace))
        problems = list(loop.problems)
        if loop.first_dir is None or (args.trace and not loop.layers):
            sys.exit("error: no operation succeeded:\n" + "\n".join(problems))
        if args.trace:
            inst0 = loop.first_dir
            data = (fixture.parent if fixture else inst0) / "sim" / "data.dta1"
            micro = normal_apply(workdir / "instance00.ini", fixture or inst0 / "fit", data)
            metrics = per_layer(loop, micro)
            trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl"
            write_trace(loop, trace_path)
            print(f"trace written to {trace_path.relative_to(ROOT)}")
        else:
            metrics = end_to_end(loop, setup_times)
        size = "tiny" if args.tiny else "full"
        key = f"{code_digest(workload)}:{workload.name}:{args.seed}:{size}"
        problems += check_ledger(key, deterministic_counts(loop))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print_table(workload, loop, metrics, elapsed)
    print("env " + json.dumps(environment(), sort_keys=True))
    result = {
        "correct": not problems and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def smoke():
    """Every workload at a tiny size, both modes; checks the metric schema."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    bad = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            got = set(result.get("metrics", {}))
            ok = (result.get("correct") is True and result.get("failed") == 0
                  and result.get("attempted", 0) >= 1 and got == expected[trace])
            print(f"smoke {w['name']} trace={trace}: {'ok' if ok else 'FAILED'}")
            if not ok:
                bad += 1
                print(proc.stderr[-3000:], file=sys.stderr)
                print(f"  missing {sorted(expected[trace] - got)} extra "
                      f"{sorted(got - expected[trace])}", file=sys.stderr)
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs (smoke mode)")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload tiny, both modes, and check the schema")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_package()
    if args.smoke:
        return smoke()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.probe:
        setup(WORKLOADS[args.workload], args.seed, Path(args.workdir), args.tiny)
        print("ready", flush=True)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
