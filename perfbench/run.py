"""archsmith benchmark: one workload, one seed, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload evolve|guide|model --seed N \
        --seconds S --trace 0|1 [--smoke] [--out RESULT.json]

The package is imported from ``src/`` of the working directory; nothing is
installed.  Each run starts fresh worker processes (see worker.py): some
time set-up and one measures, so
``peak_rss_mb`` is the peak of a fresh process that ran set-up and the
measured loop.  With ``--trace 0`` the last line of standard output holds
the end-to-end metrics, with ``--trace 1`` the per-layer metrics; the
lines before it print every figure by name and unit, and the machine the
run was taken on.  ``--smoke`` runs the reduced scale of acceptance
criterion 8 in seconds.  Work files go to ``.perfbench/`` in the working
directory; the generated input archives stay in ``.perfbench/inputs/`` and
span traces in ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, STAGES, UNITS  # noqa: E402

WORKLOAD_NAMES = ("evolve", "guide", "model")
SETUP_SAMPLES = 3  # set-ups timed per run: two probes plus the measuring one
PHASE_TIMEOUT_S = 150


def machine() -> dict:
    """Processor and interpreter facts recorded with every result."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model,
            "python": platform.python_version()}


def _phase(phase: str, args, workdir: Path, trace_file: Path,
           env: dict) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), phase,
               "--workload", args.workload, "--seed", str(args.seed),
               "--workdir", str(workdir), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--trace-file", str(trace_file)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, env=env, capture_output=True, text=True,
                          timeout=PHASE_TIMEOUT_S + args.seconds)
    if done.returncode != 0:
        raise RuntimeError(f"worker {phase} exited with {done.returncode}:\n"
                           + done.stderr[-4000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


def _table(values: dict[str, float]) -> str:
    return "\n".join(f"  {name:<44} {value:>16.6g} {UNITS[name]}"
                     for name, value in values.items())


def run(args) -> dict:
    root = Path.cwd()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    # A fixed string-hash seed, so two runs of one seed lay out their sets
    # and dicts alike and differ only in machine noise.
    env["PYTHONHASHSEED"] = "0"
    workdir = root / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    trace_file = (root / ".perfbench" / "traces"
                  / f"{args.workload}-seed{args.seed}.jsonl")
    workdir.mkdir(parents=True)
    try:
        trace_file.unlink(missing_ok=True)
        probes = [] if args.trace else [
            _phase("setup", args, workdir, trace_file, env)
            for _ in range(SETUP_SAMPLES - 1)]
        worker = _phase("measure", args, workdir, trace_file, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    end_to_end = {
        "wall_s": worker["wall_s"],
        "setup_s": statistics.median(
            [p["setup_s"] for p in probes] + [worker["setup_s"]]),
        "peak_rss_mb": worker["peak_rss_mb"],
    }
    stages = {name: worker[name] for name, _, _ in STAGES}
    stages["setup_raw_s"] = statistics.median(
        [p["setup_raw_s"] for p in probes] + [worker["setup_raw_s"]])
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "machine": {**machine(), **worker["versions"]},
        "iterations": worker["iterations"],
        "iteration_wall_raw_s": worker["iteration_wall_raw_s"],
        "reference_s": worker["reference_s"],
        "attempted": worker["attempted"], "failed": worker["failed"],
        "failures": worker["failures"],
        "end_to_end": end_to_end,
        "error_rate": worker["failed"] / worker["attempted"],
        "stages": stages,
        "per_layer": ({**stages, **worker["per_layer"]}
                      if args.trace else None),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="criterion 8's reduced scale, for tests")
    parser.add_argument("--out", help="also write the full result here")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (Path.cwd() / "src" / "archsmith" / "__init__.py").is_file():
        print("error: run from the root of an archsmith checkout "
              "(src/archsmith not found)", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (RuntimeError, subprocess.TimeoutExpired,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    for failure in result["failures"]:
        print(f"failed: {failure}")
    print(f"{args.workload} seed {args.seed}: {result['iterations']} "
          f"iterations, {result['failed']} of {result['attempted']} "
          "operations failed")
    shown = {**result["end_to_end"], "error_rate": result["error_rate"],
             **(result["per_layer"] or result["stages"])}
    print(_table(shown))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
    chosen = PER_LAYER if args.trace else END_TO_END
    source = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": source[name], "unit": unit}
                    for name, unit, _ in chosen}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
