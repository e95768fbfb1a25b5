"""hardedge benchmark: CLI workloads timed end to end, per-layer spans on request.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a source checkout.  Every measured pass is a fresh
Python process that imports ``hardedge`` from ``src/`` and hands each
experiment's arguments to ``hardedge.cli.main`` in turn, with the BLAS
environment left as the user has it.  Passes repeat while the next one fits
in ``--seconds`` (at least two); timings are medians over passes.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced pass
and then traced passes, whose spans give the per-layer metrics; the
difference of their wall times is the tracing overhead.

Correctness: an invocation fails when it raises, exits other than 0 or 1,
leaves no CSV or JSON report, or gives a verdict, exit code or report bytes
that differ from the first run of the same experiment in this benchmark run
(traced passes included, so wrapping must change no result).
``eigen-suite`` also runs ``apriori`` once with ``--threads 2``, untimed: the
thread pool must not change a byte of the report.  Independent numpy
recomputations (oracle.py) check report rows.  The last line of standard output is the JSON result; the line before it
holds the environment, verdicts and report digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

# A run must end within this many seconds, whatever --seconds says.
DEADLINE_S = 170.0
SETUP_PROBES = 3

EIGEN_TRIALS = 30  # the config minimum
EXACT_SIZES = ("16", "32")
EXACT_TRIALS = 20
HW_TRIALS = 10_000
PROJMASS_TRIALS = 4_000
ORACLE_SIZE = 256  # smallest eigen size: the oracle re-derives its rows

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "matrices_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def _eigen_config(kind: str, seed: int) -> dict:
    return {"sizes": [256, 512], "trials": EIGEN_TRIALS, "distribution": kind, "seed": seed}


def workload(name: str, seed: int) -> dict:
    """Config (or None), CLI argument lists by label, and N x N matrices drawn per pass."""
    if name == "exact":
        s = str(seed)
        return {
            "config": None,
            "invocations": [
                ("identities", ["identities", "--n", *EXACT_SIZES, "--trials", str(EXACT_TRIALS), "--seed", s]),
                ("hw", ["hw", "--dist", "uniform-symmetric", "--trials", str(HW_TRIALS), "--seed", s]),
                ("projmass", ["projmass", "--dist", "uniform-symmetric", "--trials", str(PROJMASS_TRIALS), "--seed", s]),
            ],
            "matrices": EXACT_TRIALS * len(EXACT_SIZES),
        }
    if name == "eigen-suite":
        config, experiments = _eigen_config("complex-gaussian", seed), ("apriori", "locallaw", "wegner", "hardedge")
    elif name == "vectors":
        config, experiments = _eigen_config("uniform-symmetric", seed), ("deloc",)
    else:
        raise BenchError(f"unknown workload {name!r}")
    spec = {
        "config": config,
        "invocations": [(e, [e, "--config", "{config}", "--threads", "1"]) for e in experiments],
        "matrices": len(experiments) * config["trials"] * len(config["sizes"]),
    }
    if name == "eigen-suite":
        # untimed: the report must not depend on the thread count
        spec["reference"] = [("apriori", ["apriori", "--config", "{config}", "--threads", "2"])]
    return spec


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    """Spawns the processes of one benchmark run, each with its own scratch directory."""

    def __init__(self, name: str, seed: int, started: float):
        self.spec = workload(name, seed)
        self.started = started
        self.count = 0
        self.config_path = None
        if self.spec["config"] is not None:
            self.config_path = WORK / "config.json"
            self.config_path.write_text(json.dumps(self.spec["config"]), encoding="utf-8")

    def _argv(self, argv):
        return [str(self.config_path) if a == "{config}" else a for a in argv]

    def process(self, invocations, trace: bool = False) -> dict:
        """Spawn one child process; return its timings, records and report digests."""
        self.count += 1
        tag = f"p{self.count:02d}"
        pdir = WORK / tag
        pdir.mkdir()
        plan = {
            "configs": [str(self.config_path)] if self.config_path else [],
            "trace": trace,
            "spans": str(pdir / "spans.csv"),
            "invocations": [
                {"label": label, "argv": self._argv(argv) + ["--out", str(pdir / label)]}
                for label, argv in invocations
            ],
        }
        (pdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining < 1.0:
            raise BenchError("out of time before the next pass")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(pdir / "plan.json"), str(pdir / "result.json")],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"pass {tag} did not finish within {remaining:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"pass {tag} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        res = json.loads((pdir / "result.json").read_text(encoding="utf-8"))
        if not Path(res["module"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"hardedge was imported from {res['module']}, not from this checkout")
        res["trace"] = trace
        res["dir"] = pdir
        res["setup_s"] = res["t_setup"] - t_spawn
        res["wall_s"] = res["t_end"] - t_spawn
        res["import_s"] = res["t_import1"] - res["t_import0"]
        res["load_config_s"] = res["t_setup"] - res["t_import1"]
        for rec in res["invocations"]:
            rec["digests"] = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted((pdir / rec["label"]).glob("*"))
                if p.suffix in (".csv", ".json") and p.name != "manifest.json"
            }
        return res

    def passes(self, seconds: float, trace: bool, least: int) -> list:
        """At least `least` passes, more while the next is expected to end within `seconds`."""
        t0 = time.monotonic()
        done = []
        while len(done) < least or (
            time.monotonic() - t0 + statistics.median(p["wall_s"] for p in done) <= seconds
        ):
            done.append(self.process(self.spec["invocations"], trace))
        return done


_VERDICT = re.compile(r"^\S+: (PASS|FAIL) \(")


class Ledger:
    """Per-invocation outcomes; the first run of each label is its reference."""

    def __init__(self):
        self.reference = {}
        self.records = []

    def add(self, rec: dict, where: str) -> None:
        lines = rec["stdout"].strip().splitlines()
        match = _VERDICT.match(lines[-1]) if lines else None
        outcome = {
            "label": rec["label"],
            "pass": where,
            "code": rec["code"],
            "verdict": match.group(1) if match else None,
            "digests": rec["digests"],
        }
        problems = []
        if rec["error"]:
            problems.append("raised: " + rec["error"].strip().splitlines()[-1])
        elif rec["code"] not in (0, 1):
            problems.append(f"exit {rec['code']}: {rec['stderr'].strip()[-300:]}")
        elif outcome["verdict"] != ("PASS" if rec["code"] == 0 else "FAIL"):
            problems.append(f"exit {rec['code']} does not match verdict {outcome['verdict']}")
        if {Path(n).suffix for n in rec["digests"]} != {".csv", ".json"}:
            problems.append(f"reports written: {sorted(rec['digests'])}")
        first = self.reference.setdefault(rec["label"], outcome)
        for key in ("code", "verdict", "digests"):
            if outcome[key] != first[key]:
                problems.append(f"{key} not the same as in the first ({first['pass']}) run")
        outcome["problems"] = problems
        self.records.append(outcome)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["problems"])


def _oracle_problems(name: str, seed: int, labels, first: Path) -> list:
    import oracle

    def csv_of(label):
        paths = list((first / label).glob("*.csv"))
        return paths[0] if len(paths) == 1 else None

    reports = {label: csv_of(label) for label in labels}
    missing = [label for label, path in reports.items() if path is None]
    if missing:
        return [f"no single CSV report for {missing}"]
    if name == "eigen-suite":
        return oracle.check_eigen(reports, seed, ORACLE_SIZE, EIGEN_TRIALS, "complex-gaussian")
    if name == "vectors":
        return oracle.check_deloc(reports["deloc"], seed, ORACLE_SIZE, EIGEN_TRIALS, "uniform-symmetric")
    problems = oracle.check_hw(reports["hw"], seed, 64, HW_TRIALS, "uniform-symmetric")
    problems += oracle.check_projmass(reports["projmass"], seed, 64, PROJMASS_TRIALS, "uniform-symmetric", 4)
    return problems


def environment() -> dict:
    """Facts about the machine and libraries the passes ran under; no metrics."""
    import ctypes

    import numpy
    import numpy.linalg  # noqa: F401  loads the BLAS library
    import scipy

    blas = dict(numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {}))
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, fn):
                    getter = getattr(handle, fn)
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    threads = getter()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "default_threads": threads},
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith(("OPENBLAS_", "OMP_", "MKL_", "GOTO"))},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _median(values) -> float:
    return float(statistics.median(values))


def run(name: str, seed: int, seconds: int, trace: bool) -> int:
    started = time.monotonic()
    if not (ROOT / "src" / "hardedge" / "cli.py").is_file():
        raise BenchError(f"no hardedge source tree under {ROOT / 'src'}")
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    runner = Runner(name, seed, started)
    runner.process([])  # warm-up: bytecode and shared libraries in the page cache

    ledger = Ledger()
    if trace:
        plain = [runner.process(runner.spec["invocations"])]
        traced = runner.passes(seconds, trace=True, least=1)
        measured = plain + traced
    else:
        measured = runner.passes(seconds, trace=False, least=2)
    probes = [runner.process([]) for _ in range(0 if trace else SETUP_PROBES)]
    for p in measured:
        for rec in p["invocations"]:
            ledger.add(rec, "traced" if p["trace"] else "plain")
    checks = {}
    if "reference" in runner.spec:
        ref = runner.process(runner.spec["reference"])
        for rec in ref["invocations"]:
            ledger.add(rec, "threads-2 reference")
        checks["thread_invariance"] = not any(r["problems"] for r in ledger.records[-len(ref["invocations"]):])
    labels = [label for label, _ in runner.spec["invocations"]]
    oracle_problems = _oracle_problems(name, seed, labels, measured[0]["dir"])
    checks["oracle"] = oracle_problems or "agrees"
    if trace:
        checks["trace_digests_equal"] = not any(r["problems"] for r in ledger.records if r["pass"] == "traced")

    attempted = len(ledger.records)
    failed = ledger.failed
    walls = [p["wall_s"] for p in measured if not p["trace"]]
    if trace:
        walls_traced = [p["wall_s"] for p in traced]
        layers = {}
        for key in traced[0]["layers"]:
            layers[key] = _median(p["layers"][key] for p in traced)
        layers["cli.import_s"] = _median(p["import_s"] for p in traced)
        layers["cli.load_config_s"] = _median(p["load_config_s"] for p in traced)
        layers["trace.overhead_s"] = _median(walls_traced) - _median(walls)
        layers["trace.missing"] = len(traced[0]["missing"])
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {
            "wall_s": _median(walls),
            "setup_s": _median(p["setup_s"] for p in measured + probes),
            "matrices_per_s": _median(runner.spec["matrices"] / (p["wall_s"] - p["setup_s"]) for p in measured),
            "peak_rss_mb": _median(p["maxrss_kb"] / 1024.0 for p in measured),
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}

    print(f"workload {name}  seed {seed}  trace {int(trace)}  passes {len(measured)}")
    for key, m in metrics.items():
        print(f"  {key:44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':44s} {failed / attempted:.6g} ratio ({failed}/{attempted} invocations)")
    if trace:
        print(f"  traced wall_s {_median(walls_traced):.6g} s vs untraced {_median(walls):.6g} s")
    for r in ledger.records:
        if r["problems"]:
            print(f"  FAILED {r['label']} ({r['pass']}): {'; '.join(r['problems'])}")
    for problem in oracle_problems:
        print(f"  ORACLE {problem}")
    detail = {
        "environment": environment(),
        "walls_s": [round(p["wall_s"], 6) for p in measured],
        "verdicts": {k: {"code": v["code"], "verdict": v["verdict"], "sha256": v["digests"]}
                     for k, v in ledger.reference.items()},
        "checks": checks,
        "missing_wrappers": traced[0]["missing"] if trace else None,
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    correct = failed == 0 and not oracle_problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def self_check() -> int:
    """Short run of every workload in both modes; fails on an incorrect result
    or on any metric that is missing, undeclared, non-finite or in the wrong unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "7",
                   "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
            where = f"{w['name']} trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
            got = result.get("metrics", {})
            for key in sorted(set(expected[trace]) | set(got)):
                m = got.get(key)
                if m is None:
                    problems.append(f"{where}: metric {key} missing")
                elif key not in expected[trace]:
                    problems.append(f"{where}: metric {key} not declared in BENCHMARK.json")
                elif m.get("unit") != expected[trace][key]:
                    problems.append(f"{where}: {key} unit {m.get('unit')} != {expected[trace][key]}")
                elif not (isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"])):
                    problems.append(f"{where}: {key} value {m.get('value')!r} is not finite")
            print(f"self-check {where}: {'ok' if not problems else 'problems so far: ' + str(len(problems))}")
    for p in problems:
        print(f"PROBLEM {p}")
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        if not 0 <= args.seed < 2**64:
            raise BenchError(f"--seed must be a u64, got {args.seed}")
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
