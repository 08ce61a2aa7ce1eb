"""In-memory tracer that wraps the package's public functions from outside.

Every public function of each layer module (plus a few public methods) is
replaced by a timing wrapper.  The name is rebound in every ``archsmith``
module that holds the same object, because ``experiments``, ``metamodel``
and ``search`` import their callees by name.  Nothing under ``src/``
changes; ``uninstall`` puts every original back.

Each call pushes a frame on one stack.  A frame's self time is its duration
minus the time of the wrapped calls nested inside it, so the self times of
all frames, the harness's own root frames included, add up to the traced
wall time.  Every wrapped function is aggregated as a call count plus self
time; only the coarse functions in ``SPAN_NAMES`` also leave one span
record per call, so high-frequency primitives (``gan_hash``, ``evaluate``,
``score``, ``log_likelihood_many``) cost no per-call record.  Spans stay in
memory until ``write_spans`` at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("landscape", "genotype", "search", "bayesnet", "metamodel",
          "archive", "stats", "experiments")

# Public methods timed alongside the module-level functions, named as
# <module>.<method> because callers see them as the layer's operations.
METHODS = {
    "landscape": (("SurrogateLandscape", "evaluate"),
                  ("SurrogateLandscape", "evaluate_values")),
    "metamodel": (("Metamodel", "score"), ("Metamodel", "score_values"),
                  ("Metamodel", "sample_many"), ("Metamodel", "sample")),
    "archive": (("RunArchive", "content_hash"),),
}

SPAN_NAMES = frozenset({
    "experiments.generate_archive", "experiments.run_likelihood",
    "experiments.run_sampling", "experiments.run_initialization",
    "experiments.run_guided_search", "search.simple_ea", "search.random_hc",
    "search.guided_hc", "metamodel.learn", "metamodel.save_metamodel",
    "metamodel.load_metamodel", "archive.load_archive",
    "archive.save_archive", "archive.extract_sets", "archive.content_hash",
    "landscape.make_landscape",
})

MAX_IN_DEGREE = "bayesnet.max_in_degree"
HOOK_FRAME = "trace.hooks"


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or inspect.isclass(obj):
            continue
        if callable(obj) and getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


class Tracer:
    """Counts, self times and spans for one traced iteration or setup."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[dict] = []
        self.distinct: set = set()
        # frame: [child seconds, span id, name]
        self._stack: list[list] = [[0.0, 0, "root"]]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- accounting ----------------------------------------------------------

    def add(self, counter: str, amount: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def absorb(self, other: "Tracer") -> None:
        """Add another tracer's counts and times to this one's."""
        in_degree = max(self.counts.get(MAX_IN_DEGREE, 0),
                        other.counts.get(MAX_IN_DEGREE, 0))
        for mine, theirs in ((self.calls, other.calls),
                             (self.self_s, other.self_s),
                             (self.total_s, other.total_s),
                             (self.counts, other.counts)):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value
        self.counts[MAX_IN_DEGREE] = in_degree
        self.distinct |= other.distinct

    def inside(self, name: str) -> bool:
        return any(frame[2] == name for frame in self._stack)

    def _enter(self, name: str) -> tuple[list, float]:
        span_id = 0
        if name in SPAN_NAMES or name.startswith("harness."):
            span_id = self._next_id
            self._next_id += 1
        frame = [0.0, span_id, name]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, frame: list, start: float) -> None:
        end = time.perf_counter()
        duration = end - start
        self._stack.pop()
        parent = self._stack[-1]
        parent[0] += duration
        name = frame[2]
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[0]
        self.total_s[name] = self.total_s.get(name, 0.0) + duration
        if frame[1]:
            self.spans.append({"id": frame[1], "parent": parent[1],
                               "name": name, "start": start, "end": end})

    def root(self, name: str, fn, *args):
        """Run one harness operation as a root frame named harness.<name>."""
        frame, start = self._enter(f"harness.{name}")
        try:
            return fn(*args)
        finally:
            self._exit(frame, start)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, start = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame, start)
            if hook is not None:
                # Counting is tracing overhead: keep it out of every layer.
                frame, start = enter(HOOK_FRAME)
                try:
                    hook(self, args, kwargs, result)
                finally:
                    leave(frame, start)
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced name at its definition and import sites."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"archsmith.{layer}")
            for attr, fn in _public_functions(module):
                originals[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
            for cls_name, method in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original,
                            self._wrap(f"{layer}.{method}", original))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "archsmith"
                                      or mod_name.startswith("archsmith.")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patch(module, attr, obj, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def write_spans(self, path, label: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({"trace": label, **span}) + "\n")


# ---------------------------------------------------------------------------
# Counters taken from arguments and results at the layer boundary


def _rows(counter):
    def hook(tracer, args, kwargs, result):
        tracer.add(counter, len(result))
    return hook


def _evaluate(tracer, args, kwargs, result):
    land, gan = args[0], args[1]
    tracer.distinct.add((land.config.family_seed, land.seed, gan))


def _neighbor_groups(tracer, args, kwargs, result):
    tracer.add("search.neighbor_groups.rows",
               sum(len(rows) for _, rows in result))


def _simple_ea(tracer, args, kwargs, result):
    tracer.add("search.simple_ea.generations",
               len(result.best_per_generation) - 1)


def _climb(prefix):
    def hook(tracer, args, kwargs, result):
        tracer.add(f"{prefix}.evaluated", result.evaluations)
        tracer.add(f"{prefix}.accepted",
                   sum(1 for s in result.steps if s.accepted))
        tracer.add(f"{prefix}.exhausted_steps",
                   sum(1 for s in result.steps if s.exhausted))
    return hook


def _score_values(tracer, args, kwargs, result):
    rows = len(result[0])
    tracer.add("metamodel.score_values.rows", rows)
    if tracer.inside("search.guided_hc"):
        tracer.add("search.guided_hc.scored", rows)


def _save_metamodel(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.add("metamodel.save_metamodel.bytes", os.path.getsize(path))


def _learn(tracer, args, kwargs, result):
    for submodel in result.submodels.values():
        bn = submodel.bn
        tracer.add("bayesnet.cpt_cells", sum(int(t.size) for t in bn.cpts))
        tracer.add("bayesnet.edges", sum(len(p) for p in bn.dag.parents))
        in_degree = max((len(p) for p in bn.dag.parents), default=0)
        if in_degree > tracer.counts.get(MAX_IN_DEGREE, 0):
            tracer.counts[MAX_IN_DEGREE] = in_degree


def _load_archive(tracer, args, kwargs, result):
    tracer.add("archive.load_archive.rows", result.n_individuals)


HOOKS = {
    "landscape.evaluate": _evaluate,
    "landscape.evaluate_values": _rows("landscape.evaluate_values.rows"),
    "search.neighbor_groups": _neighbor_groups,
    "search.simple_ea": _simple_ea,
    "search.random_hc": _climb("search.random_hc"),
    "search.guided_hc": _climb("search.guided_hc"),
    "bayesnet.log_likelihood_many": _rows("bayesnet.log_likelihood_many.rows"),
    "bayesnet.pls_sample_many": _rows("bayesnet.pls_sample_many.rows"),
    "metamodel.score_values": _score_values,
    "metamodel.sample_many": _rows("metamodel.sample_many.rows"),
    "metamodel.save_metamodel": _save_metamodel,
    "metamodel.learn": _learn,
    "archive.load_archive": _load_archive,
}
