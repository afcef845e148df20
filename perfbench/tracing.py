"""Spans around the calls into each shatterlab layer, installed from outside.

The tracer wraps public functions and methods of the library while a traced
pass runs and restores them afterwards.  A function imported by name into
another module is patched there too (``shatterlab.cli.sfat`` as well as
``shatterlab.dimensions.sfat``), so every call site goes through the wrapper.

Spans (name, start, end, parent, job) live in compact arrays in memory and
are written out once at the end.  ``SfatCache.dimension_of_mask`` recurses
about a million times per sfat-ladder pass, so it gets no span: its wrapper
counts calls and times only the outermost entry.  Self time is a span's
duration minus the part its direct children cover; one thread runs every
span, so children nest inside their parent and never overlap.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

#: (module under ``shatterlab``, attribute path, span name)
SPANS = (
    ("classes", "generate_class", "classes.generate_class"),
    ("seeding", "child_rng", "seeding.child_rng"),
    ("concepts", "Distribution.sample", "concepts.sample"),
    ("dimensions", "sfat", "dimensions.sfat"),
    ("dimensions", "SfatCache.__init__", "dimensions.cache_build"),
    ("dimensions", "SfatCache.witness_of_mask", "dimensions.witness"),
    ("dimensions", "validate_tree", "dimensions.validate_tree"),
    ("online", "RsoaState.__init__", "online.state_build"),
    ("online", "RsoaState.predict_with_maximizers", "online.predict"),
    ("online", "RsoaState.update", "online.update"),
    ("online", "RsoaState.final_hypothesis", "online.final_hypothesis"),
    ("online", "run_online_game", "online.game"),
    ("online", "run_weak_forcing_game", "online.forcing"),
    ("stability", "stability_experiment", "stability.experiment"),
    ("stability", "stable_learner_G", "stability.G"),
    ("stability", "stable_learner_parameters", "stability.params"),
    ("stability", "sample_ext", "stability.sample_ext"),
    ("privacy", "dp_test", "privacy.dp_test"),
    ("privacy", "generic_private_learner", "privacy.learner"),
    ("privacy", "exponential_weights", "privacy.weights"),
    ("communication", "augindex_via_eval", "communication.augindex"),
    ("quantum", "max_holevo", "quantum.max_holevo"),
    ("quantum", "holevo_chi", "quantum.holevo_chi"),
    ("quantum", "random_density_matrix", "quantum.state_gen"),
    ("quantum", "materialize_concept_class", "quantum.materialize"),
)

#: root span of every job: one ``cli.main`` call, opened by the runner
JOB_SPAN = "cli.job"

#: the layers whose share of job time the report prints, in span-name order
LAYERS = ("cli", "classes", "seeding", "concepts", "dimensions", "online",
          "stability", "privacy", "communication", "quantum")


def self_times(parents: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Duration of every span minus the time its direct children cover."""
    dur = ends - starts
    child = parents >= 0
    covered = np.bincount(parents[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def _resolve(owner, path: str):
    """(object holding the last attribute, attribute name, current value)."""
    *outer, last = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, last, getattr(owner, last)


class Tracer:
    """Span store plus the counters that are measured where the work happens."""

    def __init__(self) -> None:
        self.span_names: list[str] = [JOB_SPAN] + [name for _, _, name in SPANS]
        self._ids = {n: i for i, n in enumerate(self.span_names)}
        self.name = array("H")
        self.parent = array("i")
        self.job = array("I")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._job = 0
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        # count-only state of the sfat recursion and the Holevo iterations
        self.mask_queries = 0
        self.mask_s = 0.0
        self._mask_depth = 0
        self.eigh_calls = 0
        # per-job sets, folded into counts by end_job
        self._caches: list = []
        self._trees: set[int] = set()
        self._weight_keys: set = set()

    # -- spans -----------------------------------------------------------
    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.job.append(self._job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def begin_job(self, job_index: int) -> int:
        self._job = job_index
        return self.open(0)

    def end_job(self, idx: int) -> None:
        """Close the job span and fold the job's counts into `counts`."""
        self.close(idx)
        self._add("dimensions.subsets", sum(len(getattr(c, "_memo", ())) for c in self._caches))
        self._add("dimensions.trees_validated", len(self._trees))
        self._add("privacy.weights.distinct", len(self._weight_keys))
        self._caches.clear()
        self._trees.clear()
        self._weight_keys.clear()

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- wrappers --------------------------------------------------------
    def _timed(self, name: str, fn, pre=None, post=None):
        nid = self._ids[name]
        tr = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            idx = tr.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.close(idx)
            if post is not None:
                post(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _mask_counter(self, fn):
        tr = self

        def dimension_of_mask(cache, mask):
            tr.mask_queries += 1
            if tr._mask_depth:
                return fn(cache, mask)
            tr._mask_depth = 1
            t0 = perf_counter()
            try:
                return fn(cache, mask)
            finally:
                tr.mask_s += perf_counter() - t0
                tr._mask_depth = 0

        return dimension_of_mask

    def _eigh_counter(self, fn):
        tr = self
        holevo = self._ids["quantum.max_holevo"]

        def eigh(*args, **kwargs):
            top = tr._stack[-1]
            if top >= 0 and tr.name[top] == holevo:
                tr.eigh_calls += 1
            return fn(*args, **kwargs)

        return eigh

    # -- hooks reading arguments and results ---------------------------------
    def _hooks(self, name: str, fn):
        if name == "online.game":
            def post(tr_, args, kwargs):
                self._add("online.rounds", len(tr_.rounds))
                self._add("online.feedback_rounds",
                          sum(1 for r in tr_.rounds if r.feedback is not None))
            return None, post
        if name == "stability.sample_ext":
            sig = inspect.signature(fn)

            def post(res, args, kwargs):
                self._add("stability.draws", res.draws_used)
                if hasattr(res, "segments"):
                    m = sig.bind(*args, **kwargs).arguments["m"]
                    self._add("stability.min_draws", 2 * m * (2 ** res.k - 1))
            return None, post
        if name == "stability.G":
            def post(res, args, kwargs):
                self._add("stability.fails", type(res).__name__ == "Fail")
            return None, post
        if name == "privacy.weights":
            sig = inspect.signature(fn)

            def pre(args, kwargs):
                if kwargs or len(args) != 4:
                    args = tuple(sig.bind(*args, **kwargs).arguments.values())
                coll, sample, eps, zeta = args
                self._weight_keys.add((id(coll), tuple(sample), eps, zeta))
            return pre, None
        if name == "dimensions.validate_tree":
            sig = inspect.signature(fn)

            def pre(args, kwargs):
                tree = args[1] if len(args) > 1 else sig.bind(*args, **kwargs).arguments["tree"]
                self._trees.add(id(tree))
            return pre, None
        if name == "dimensions.cache_build":
            def post(res, args, kwargs):
                self._caches.append(args[0])
            return None, post
        return None, None

    # -- install / uninstall -----------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target; a target the library no longer has is listed in `missing`."""
        import shatterlab  # noqa: F401  (the package must be importable)

        lib = {n: m for n, m in list(sys.modules.items())
               if n == "shatterlab" or n.startswith("shatterlab.")}
        self.missing = []
        for mod_name, path, name in SPANS:
            module = lib.get(f"shatterlab.{mod_name}")
            try:
                owner, attr, original = _resolve(module, path)
            except AttributeError:
                self.missing.append(f"shatterlab.{mod_name}.{path}")
                continue
            pre, post = self._hooks(name, original)
            wrapper = self._timed(name, original, pre, post)
            if "." in path:  # a method: the class attribute is the only lookup
                self._patch(owner, attr, wrapper)
                continue
            for m in lib.values():  # the definition and every by-name import
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._patch(m, key, wrapper)
        try:
            owner, attr, original = _resolve(lib["shatterlab.dimensions"],
                                             "SfatCache.dimension_of_mask")
            self._patch(owner, attr, self._mask_counter(original))
        except (AttributeError, KeyError):
            self.missing.append("shatterlab.dimensions.SfatCache.dimension_of_mask")
        self._patch(np.linalg, "eigh", self._eigh_counter(np.linalg.eigh))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def set_installed(self, on: bool) -> None:
        if on and not self._patches:
            self.install()
        elif not on and self._patches:
            self.uninstall()

    # -- results -----------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.uint32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds `s` and `self_s`."""
        a = self.arrays()
        n = len(self.span_names)
        dur = a["end"] - a["start"]
        own = self_times(a["parent"], a["start"], a["end"])
        calls = np.bincount(a["name"], minlength=n)
        incl = np.bincount(a["name"], weights=dur, minlength=n)
        selfs = np.bincount(a["name"], weights=own, minlength=n)
        return {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(selfs[i])}
            for i, name in enumerate(self.span_names)
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.span_names), **self.arrays())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(agg: dict, tr: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """The traced per-layer metrics, per traced pass (name -> (value, unit))."""
    c = tr.counts.get
    per = 1.0 / passes

    def calls(span):
        return agg[span]["calls"] * per

    def secs(span, key="s"):
        return agg[span][key] * per

    def us(span):
        return 1e6 * _ratio(agg[span]["s"], agg[span]["calls"])

    subsets = c("dimensions.subsets", 0)
    iterations = tr.eigh_calls
    return {
        "classes.generate_class.calls": (calls("classes.generate_class"), "count"),
        "classes.generate_class.s": (secs("classes.generate_class"), "s"),
        "seeding.child_rng.calls": (calls("seeding.child_rng"), "count"),
        "seeding.child_rng.us_per_call": (us("seeding.child_rng"), "us"),
        "concepts.sample.calls": (calls("concepts.sample"), "count"),
        "concepts.sample.s": (secs("concepts.sample"), "s"),
        "concepts.sample.us_per_call": (us("concepts.sample"), "us"),
        "dimensions.sfat.calls": (calls("dimensions.sfat"), "count"),
        "dimensions.sfat.s": (secs("dimensions.sfat"), "s"),
        "dimensions.witness.s": (secs("dimensions.witness"), "s"),
        "dimensions.mask_queries": (tr.mask_queries * per, "count"),
        "dimensions.subsets": (subsets * per, "count"),
        "dimensions.memo_hit_ratio": (1.0 - _ratio(subsets, tr.mask_queries) if tr.mask_queries else 0.0, "ratio"),
        "dimensions.us_per_subset": (1e6 * _ratio(tr.mask_s, subsets), "us"),
        "dimensions.cache_builds": (calls("dimensions.cache_build"), "count"),
        "dimensions.cache_build.s": (secs("dimensions.cache_build"), "s"),
        "dimensions.validate_tree.calls": (calls("dimensions.validate_tree"), "count"),
        "dimensions.validate_tree.s": (secs("dimensions.validate_tree"), "s"),
        "online.state_builds": (calls("online.state_build"), "count"),
        "online.state_build.s": (secs("online.state_build"), "s"),
        "online.predict.calls": (calls("online.predict"), "count"),
        "online.predict.us_per_call": (us("online.predict"), "us"),
        "online.update.calls": (calls("online.update"), "count"),
        "online.update.us_per_call": (us("online.update"), "us"),
        "online.final_hypothesis.calls": (calls("online.final_hypothesis"), "count"),
        "online.final_hypothesis.s": (secs("online.final_hypothesis"), "s"),
        "online.game.calls": (calls("online.game"), "count"),
        "online.game.self_s": (secs("online.game", "self_s"), "s"),
        "online.rounds": (c("online.rounds", 0) * per, "count"),
        "online.updates_per_round": (_ratio(c("online.feedback_rounds", 0), c("online.rounds", 0)), "ratio"),
        "online.forcing.s": (secs("online.forcing"), "s"),
        "stability.G.calls": (calls("stability.G"), "count"),
        "stability.G.self_s": (secs("stability.G", "self_s"), "s"),
        "stability.params.calls": (calls("stability.params"), "count"),
        "stability.params.s": (secs("stability.params"), "s"),
        "stability.sample_ext.calls": (calls("stability.sample_ext"), "count"),
        "stability.sample_ext.s": (secs("stability.sample_ext"), "s"),
        "stability.draws": (c("stability.draws", 0) * per, "count"),
        "stability.draw_efficiency": (_ratio(c("stability.min_draws", 0), c("stability.draws", 0)), "ratio"),
        "stability.fail_ratio": (_ratio(c("stability.fails", 0), agg["stability.G"]["calls"]), "ratio"),
        "privacy.learner.calls": (calls("privacy.learner"), "count"),
        "privacy.weights.calls": (calls("privacy.weights"), "count"),
        "privacy.weights.us_per_call": (us("privacy.weights"), "us"),
        "privacy.weights.distinct_ratio": (_ratio(c("privacy.weights.distinct", 0), agg["privacy.weights"]["calls"]), "ratio"),
        "privacy.dp_test.self_s": (secs("privacy.dp_test", "self_s"), "s"),
        "communication.augindex.calls": (calls("communication.augindex"), "count"),
        "communication.augindex.self_s": (secs("communication.augindex", "self_s"), "s"),
        "communication.validations_per_tree": (_ratio(agg["dimensions.validate_tree"]["calls"], c("dimensions.trees_validated", 0)), "ratio"),
        "quantum.max_holevo.calls": (calls("quantum.max_holevo"), "count"),
        "quantum.max_holevo.s": (secs("quantum.max_holevo"), "s"),
        "quantum.max_holevo.iterations": (iterations * per, "count"),
        "quantum.max_holevo.us_per_iteration": (1e6 * _ratio(agg["quantum.max_holevo"]["s"], iterations), "us"),
        "quantum.holevo_chi.s": (secs("quantum.holevo_chi"), "s"),
        "quantum.state_gen.calls": (calls("quantum.state_gen"), "count"),
        "quantum.state_gen.s": (secs("quantum.state_gen"), "s"),
        "quantum.materialize.s": (secs("quantum.materialize"), "s"),
    }


def layer_shares(agg: dict, tr: Tracer) -> dict[str, tuple[float, float]]:
    """Per layer: (self seconds, entry seconds), summed over traced passes.

    Self seconds add up the self time of the layer's spans.  Entry seconds
    add up the inclusive time of the spans a job calls directly, so a layer
    is charged for everything beneath the calls it receives from the CLI;
    the job span's own self time counts as ``cli`` in both.
    """
    a = tr.arrays()
    direct = a["parent"] >= 0
    direct[direct] = a["name"][a["parent"][direct]] == tr._ids[JOB_SPAN]
    entry = np.bincount(a["name"][direct], weights=(a["end"] - a["start"])[direct],
                        minlength=len(tr.span_names))
    out = {layer: [0.0, 0.0] for layer in LAYERS}
    for i, name in enumerate(tr.span_names):
        layer = name.split(".", 1)[0]
        out[layer][0] += agg[name]["self_s"]
        out[layer][1] += float(entry[i])
    out["cli"][1] += agg[JOB_SPAN]["self_s"]
    return {layer: (s, e) for layer, (s, e) in out.items()}
