"""One benchmark process, started by run.py.

    python3 perfbench/worker.py setup|measure --workload NAME
        --seed N --workdir DIR [--seconds S] [--trace 0|1]
        [--trace-file PATH] [--smoke]

Both phases first make sure the workload's input archive exists, untimed.
``setup`` times one set-up: package imports from process start, loading
the input archive and building the landscapes.  ``measure`` sets up once
more, then runs iterations in a closed loop for about ``--seconds``.  With
``--trace 1`` it alternates untraced and traced iterations, so the trace
overhead is measured in the same process.  Each phase prints one JSON
object as its last line.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from workloads import (  # noqa: E402  (imports the package)
    WORKLOADS,
    Iteration,
    OperationFailed,
    make_inputs,
)

_IMPORT_S = time.perf_counter() - _START

import archsmith  # noqa: E402
from archsmith import archive as archive_mod  # noqa: E402
from archsmith import experiments  # noqa: E402

import metrics  # noqa: E402
from tracer import Tracer  # noqa: E402

MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 4  # two untraced, two traced

# Shared virtual machines drift in speed by up to a third over minutes, and
# the drift slows all code alike.  A fixed kernel timed in the same process
# right after set-up and around every iteration tracks it, and the
# end-to-end times are scaled to the kernel's nominal duration, so they
# read as seconds on a machine of steady speed.  Raw times are reported
# too (``*_raw_s``, ``machine.reference_s``).
REFERENCE_NOMINAL_S = 0.04


def _reference_kernel() -> int:
    """Fixed work in the package's mix: bytecode, sha256, JSON, numpy."""
    digest, table = b"", {}
    for i in range(8000):
        digest = hashlib.sha256(digest).digest()
        table[digest[:4]] = json.dumps([i, digest.hex()[:8]])
    values = numpy.arange(3000)
    for _ in range(60):
        numpy.unique((values * 7) % 97)
    return len(table)


def reference_s() -> float:
    """Median time of five runs of the reference kernel."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _archive_path(args, inputs) -> str | None:
    """Cached input archive, keyed by its config and the package source.

    ``guide`` and ``model`` read the same archive for every seed, so it is
    generated once per checkout; any edit under src/ changes the key.
    """
    field = WORKLOADS[args.workload].input_archive
    if field is None:
        return None
    digest = hashlib.sha256(repr(getattr(inputs, field)).encode())
    for source in sorted(Path(archsmith.__file__).parent.glob("*.py")):
        digest.update(source.read_bytes())
    return os.path.join(os.path.dirname(args.workdir), "inputs",
                        f"{field}-{digest.hexdigest()[:16]}.jsonl")


def _ensure_input(args, inputs) -> str | None:
    path = _archive_path(args, inputs)
    if path is not None and not os.path.exists(path):
        field = WORKLOADS[args.workload].input_archive
        archive = experiments.generate_archive(getattr(inputs, field))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        partial = os.path.join(args.workdir, "input.partial")
        archive_mod.save_archive(archive, partial)
        os.replace(partial, path)
    return path


def _setup_figures(raw_s: float, reference: float) -> dict:
    return {"setup_s": raw_s * REFERENCE_NOMINAL_S / reference,
            "setup_raw_s": raw_s}


def setup(args, inputs) -> dict:
    archive_path = _ensure_input(args, inputs)
    start = time.perf_counter()
    WORKLOADS[args.workload].setup(inputs, archive_path)
    return _setup_figures(_IMPORT_S + time.perf_counter() - start,
                          reference_s())


def _stage_values(it: Iteration) -> dict[str, float]:
    values = {name: it.stages.get(name, 0.0)
              for name, _, _ in metrics.OP_STAGES}
    values["model_mb"] = it.model_bytes / 1e6
    return values


def measure(args, inputs) -> dict:
    workload = WORKLOADS[args.workload]
    archive_path = _ensure_input(args, inputs)
    start = time.perf_counter()
    setup_tracer = None
    if args.trace:
        setup_tracer = Tracer()
        setup_tracer.install()
        try:
            state = setup_tracer.root("setup", workload.setup, inputs,
                                      archive_path)
        finally:
            setup_tracer.uninstall()
        spans = [("setup", setup_tracer)]
    else:
        state = workload.setup(inputs, archive_path)
    setup_raw_s = _IMPORT_S + time.perf_counter() - start
    references = [reference_s()]

    plain, traced = [], []
    attempted = failed = 0
    failures: list[str] = []
    digests: list[str] = []
    minimum = MIN_TRACED_ITERATIONS if args.trace else MIN_ITERATIONS
    loop_start = time.perf_counter()
    count = 0
    while True:
        tracer = Tracer() if args.trace and count % 2 == 1 else None
        gc.collect()
        it = Iteration(tracer)
        if tracer is not None:
            tracer.install()
        try:
            workload.iteration(it, inputs, state, args.workdir)
        except OperationFailed:
            pass
        finally:
            if tracer is not None:
                tracer.uninstall()
        count += 1
        attempted += it.attempted
        failed += len(it.failed)
        failures.extend(it.failures)
        digests.append(it.hexdigest)
        references.append(reference_s())
        speed = REFERENCE_NOMINAL_S / statistics.fmean(references[-2:])
        record = {"wall_s": it.wall_s * speed,
                  "wall_raw_s": it.wall_s,
                  "machine.reference_s": references[-1],
                  "evals_per_s": it.evaluations / it.wall_s,
                  **_stage_values(it)}
        if tracer is None:
            plain.append(record)
        else:
            merged = Tracer()
            merged.absorb(setup_tracer)
            merged.absorb(tracer)
            setup_wall = setup_tracer.total_s["harness.setup"]
            record["layers"] = metrics.layer_values(
                merged, setup_wall + it.wall_s)
            traced.append(record)
            spans.append((f"iteration-{count}", tracer))
        elapsed = time.perf_counter() - loop_start
        if count >= minimum and elapsed * (count + 1) / count > args.seconds:
            break

    if args.trace:
        for label, source in spans:
            source.write_spans(args.trace_file, label)

    # Every iteration runs the same inputs, so every output digest matches.
    mismatched = sum(1 for d in digests[1:] if d != digests[0])
    if mismatched:
        attempted += len(digests) - 1
        failed += mismatched
        failures.append(f"{mismatched} of {len(digests)} iterations gave "
                        "a different output digest")
    out = {
        **_setup_figures(setup_raw_s, references[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        * 1024 / 1e6,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "iterations": count,
        "iteration_wall_raw_s": [r["wall_raw_s"] for r in plain + traced],
        "reference_s": references,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        **metrics.median_of(plain),
    }
    if traced:
        layers = metrics.median_of([r["layers"] for r in traced])
        layers["trace.overhead_s"] = (
            statistics.median(r["wall_raw_s"] for r in traced)
            - statistics.median(r["wall_raw_s"] for r in plain))
        out["per_layer"] = layers
    return out


PHASES = {"setup": setup, "measure": measure}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=sorted(PHASES))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    result = PHASES[args.phase](args, make_inputs(args.seed, args.smoke))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
