"""Per-layer timing and counting for the traced run.

:class:`LayerProbe` replaces public functions and methods of the
program's modules with thin wrappers that time and count each call, and
puts the originals back on :meth:`LayerProbe.uninstall`.  Nothing in the
program is edited: a wrapper is installed on the attribute the program
looks up at call time (a module global, a class attribute, or the name a
module imported), so only calls made while the probe is installed are
seen.

Seconds are inclusive: ``aig.cuts_s`` sits inside ``core.atomic_s``,
``core.vanishing.reduce_s`` inside ``core.rewrite.attempt_s``, which sits
inside ``core.rewrite_s``.  The top-level pipeline stages in
:data:`STAGES` do not nest, so their sum can be set against the time to
verdict.
"""

from __future__ import annotations

import importlib
import time

# (module, class or None, attribute, metric): plain timed wrappers.
TIMED = (
    ("repro.aig.cuts", None, "enumerate_cuts", "aig.cuts_s"),
    ("repro.aig.aiger", None, "read_aag", "aig.read_aag_s"),
    ("repro.analysis.lint", None, "preflight", "analysis.preflight_s"),
    ("repro.analysis.structure", None, "analyze_aig",
     "analysis.stage_map_s"),
    ("repro.analysis.structure", None, "component_stage_map",
     "analysis.stage_map_s"),
    ("repro.core.pipeline", None, "multiplier_specification",
     "core.spec_s"),
    ("repro.core.pipeline", None, "detect_atomic_blocks", "core.atomic_s"),
    ("repro.core.pipeline", None, "rules_from_blocks", "core.vanishing_s"),
    ("repro.core.pipeline", None, "build_components", "core.components_s"),
    ("repro.core.implications", None, "add_implication_rules",
     "core.implications_s"),
    ("repro.core.pipeline", "Pipeline", "stage_decide", "core.decide_s"),
    ("repro.core.pipeline", None, "counterexample_for",
     "core.counterexample_s"),
    ("repro.core.rewriting", "RewritingEngine", "occurrence_counts",
     "core.rewrite.occurrence_s"),
    ("repro.poly.arena", "PolyArena", "partition_var", "poly.partition_s"),
    ("repro.poly.arena", "PolyArena", "partition_pair", "poly.partition_s"),
    ("repro.poly.arena", "PolyArena", "rebuild", "poly.rebuild_s"),
    ("repro.poly.polynomial", "Polynomial", "adopt_occurrence_index",
     "poly.adopt_index_s"),
    ("repro.service.core", "VerificationService", "submit",
     "service.submit_s"),
    ("repro.service.fingerprint", None, "design_fingerprint",
     "service.fingerprint_s"),
    ("repro.service.persistence", None, "cache_lookup",
     "service.cache_lookup_s"),
    ("repro.service.persistence", None, "cache_store",
     "service.cache_store_s"),
    ("repro.service.persistence", None, "ingest_verify_records",
     "service.ingest_s"),
)

#: Top-level pipeline stages of one fresh verify; they do not nest.
STAGES = ("analysis.preflight_s", "core.spec_s", "core.atomic_s",
          "core.vanishing_s", "core.components_s", "core.implications_s",
          "analysis.stage_map_s", "core.rewrite_s", "core.decide_s")

#: Counters kept by the special wrappers below.
COUNTED = ("core.rewrite.attempts", "core.rewrite.commits",
           "core.rewrite.backtracks", "core.rewrite.too_large",
           "core.vanishing.reduce_calls", "core.vanishing.reduce_products")

#: Seconds kept by the special wrappers below.
SPECIAL_SECONDS = ("core.rewrite_s", "core.rewrite.attempt_s",
                   "core.rewrite.discarded_attempt_s",
                   "core.vanishing.reduce_s")


def _resolve(module_name, class_name):
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class LayerProbe:
    """Wrap the program's layer boundaries; read totals from
    :attr:`values` (seconds and counts since the last :meth:`reset`)."""

    def __init__(self):
        self.values = {}
        self._saved = []          # (owner, attribute, original)
        self._pending = {}        # id(attempt result) -> [seconds, result]
        self.reset()

    def reset(self):
        """Zero every total (in place: the wrappers hold this dict)."""
        names = {metric for *_, metric in TIMED}
        names.update(SPECIAL_SECONDS, COUNTED)
        self.values.clear()
        self.values.update(dict.fromkeys(sorted(names), 0))
        self._pending.clear()

    # -- install / uninstall -------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("probe already installed")
        try:
            for module_name, class_name, attribute, metric in TIMED:
                owner = _resolve(module_name, class_name)
                self._replace(owner, attribute,
                              self._timed(getattr(owner, attribute), metric))
            self._install_rewrite()
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self):
        """Put every original back, last wrapped first."""
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)
        self._pending.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def originals(self):
        """``(owner, attribute, original)`` of every installed wrapper."""
        return list(self._saved)

    def _replace(self, owner, attribute, wrapper):
        original = getattr(owner, attribute)
        wrapper.__wrapped__ = original
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    # -- wrappers ------------------------------------------------------

    def _timed(self, original, metric):
        values = self.values
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                values[metric] += clock() - start

        return wrapper

    def _install_rewrite(self):
        """Attempts, commits, backtracks and the reducer.

        An attempt is *discarded* when its result never reaches
        ``commit``: Algorithm 2 caches one step's attempts and commits at
        most one of them, so at each commit every other pending attempt
        of the step is discarded, and whatever is pending when the
        rewrite stage ends is discarded too.
        """
        from repro.core.pipeline import Pipeline
        from repro.core.rewriting import AttemptTooLarge, RewritingEngine
        from repro.core.vanishing import VanishingRuleSet

        values = self.values
        pending = self._pending
        clock = time.perf_counter

        def drop_pending():
            values["core.rewrite.discarded_attempt_s"] += sum(
                entry[0] for entry in pending.values())
            pending.clear()

        attempt = RewritingEngine.attempt

        def attempt_wrapper(engine, index):
            start = clock()
            try:
                result = attempt(engine, index)
            except AttemptTooLarge:
                seconds = clock() - start
                values["core.rewrite.too_large"] += 1
                values["core.rewrite.discarded_attempt_s"] += seconds
                raise
            finally:
                values["core.rewrite.attempts"] += 1
                values["core.rewrite.attempt_s"] += clock() - start
            entry = pending.setdefault(id(result), [0.0, result])
            entry[0] += clock() - start
            return result

        commit = RewritingEngine.commit

        def commit_wrapper(engine, index, new_sp, threshold=None):
            values["core.rewrite.commits"] += 1
            pending.pop(id(new_sp), None)
            drop_pending()
            return commit(engine, index, new_sp, threshold)

        note_backtrack = RewritingEngine.note_backtrack

        def backtrack_wrapper(engine, index, growth=None, threshold=None):
            values["core.rewrite.backtracks"] += 1
            return note_backtrack(engine, index, growth, threshold)

        stage_rewrite = Pipeline.stage_rewrite

        def stage_rewrite_wrapper(*args, **kwargs):
            start = clock()
            try:
                return stage_rewrite(*args, **kwargs)
            finally:
                values["core.rewrite_s"] += clock() - start
                drop_pending()

        reduce = VanishingRuleSet.reduce_products_into

        def reduce_wrapper(rules, out, base, rep_items, coeff_base,
                           depth=0):
            start = clock()
            try:
                return reduce(rules, out, base, rep_items, coeff_base, depth)
            finally:
                values["core.vanishing.reduce_s"] += clock() - start
                values["core.vanishing.reduce_calls"] += 1
                values["core.vanishing.reduce_products"] += len(rep_items)

        self._replace(RewritingEngine, "attempt", attempt_wrapper)
        self._replace(RewritingEngine, "commit", commit_wrapper)
        self._replace(RewritingEngine, "note_backtrack", backtrack_wrapper)
        self._replace(Pipeline, "stage_rewrite", stage_rewrite_wrapper)
        self._replace(VanishingRuleSet, "reduce_products_into",
                      reduce_wrapper)
