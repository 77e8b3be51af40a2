"""Paper-regeneration benchmark: one run of one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ideal-paper --seed 20050610 \
        --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (``wall_s``, ``cpu_s``,
``setup_s``, ``peak_rss_mb``); with ``--trace 1`` they are the per-layer
ones.  The times are in reference seconds: rescaled by the host's speed
while they were taken (``hostspeed.py``), since the host's speed drifts.
Everything else goes to standard error, and the full record
(per-pass figures, machine fingerprint) is written to
``.perfbench/results/``, beside every recorded span of a traced run.

This process never imports the program.  It times interpreter set-up in
fresh interpreters, runs the untimed cache fill of a warm workload in a
child process, and runs the measurement itself in another child
(``measure.py``), so peak memory and CPU are those of the measured work
and its pool workers alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: Metric names and units, as declared beside the benchmark.
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_PROBES = 9

#: What the program loads before its first figure: the CLI with the
#: experiment registry, plus the packages figures import lazily.
_SETUP_PROBE = """\
import time
import repro.cli
import repro.analysis
import repro.detailed.batched
import repro.detailed.simulator
from repro.experiments import Scale, get_experiment
get_experiment("fig04")
Scale.full()
print(repr(time.time()))
"""

_CHILD_TIMEOUT_S = 170.0


def _env(root: Path) -> Dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


def _child(args: List[str], root: Path, deadline: float) -> None:
    """Run a child to completion; its stdout joins our stderr.

    The child leads its own process group, so on timeout its pool workers
    are killed with it and every process is reaped before we return.
    """
    child = subprocess.Popen(
        [sys.executable, *args],
        cwd=root,
        env=_env(root),
        stdout=sys.stderr,
        start_new_session=True,
    )
    try:
        code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    finally:
        try:  # stragglers of a child that exited on its own
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0:
        raise subprocess.CalledProcessError(code, args)


def setup_seconds(root: Path, deadline: float) -> List[float]:
    """Interpreter launch to ready-to-run, in fresh interpreters.

    Each probe is timed between two calibrations and rescaled to
    reference seconds, as the measured passes are.
    """
    samples = []
    speed = [hostspeed.calibrate()]
    for _ in range(SETUP_PROBES):
        launched = time.time()
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE],
            cwd=root,
            env=_env(root),
            capture_output=True,
            text=True,
            check=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        elapsed = float(done.stdout.strip().splitlines()[-1]) - launched
        speed.append(hostspeed.calibrate())
        samples.append(hostspeed.reference_seconds(elapsed, *speed[-2:]))
    return samples


def fingerprint(root: Path) -> Dict[str, object]:
    """Machine and code identity recorded with every result."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    commit = "unknown"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            ref = ref_path.read_text(encoding="utf-8").strip() if ref_path.is_file() else ref
        commit = ref
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description="paper-regeneration benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + _CHILD_TIMEOUT_S

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = root / ".perfbench" / "work" / f"{tag}-{os.getpid()}"
    results_dir = root / ".perfbench" / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        common = ["--workload", workload.name, "--seed", str(args.seed),
                  "--work", str(work)]
        if workload.warm:
            _child(["perfbench/measure.py", *common, "--fill",
                    "--out", str(work / "fill.json")], root, deadline)
        _child(["perfbench/measure.py", *common,
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(work / "findings.json")], root, deadline)
        findings = json.loads((work / "findings.json").read_text(encoding="utf-8"))
        if args.trace:
            shutil.move(work / "spans.jsonl", results_dir / f"{tag}.spans.jsonl")
        # Probed after the measurement, so every run of a workload finds
        # the processors as that workload left them: an idle vCPU starts
        # an interpreter measurably slower than a busy one.
        setup = [] if args.trace else setup_seconds(root, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values = findings["layers"]
        declared = BENCHMARK["per_layer"]
    else:
        untraced = [p for p in findings["passes"] if not p["traced"]]
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(findings["peak_rss_self_mb"],
                               findings["peak_rss_children_mb"]),
        }
        declared = BENCHMARK["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    correct = not findings["problems"] and findings["failed"] == 0
    record = {
        "fingerprint": fingerprint(root),
        "setup_samples_s": setup,
        "run_s": time.monotonic() - started,
        "metrics": metrics,
        **findings,
    }
    (results_dir / f"{tag}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for line in findings["problems"][:20] + findings["warnings"]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": findings["attempted"],
        "failed": findings["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
