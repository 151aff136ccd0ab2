#!/usr/bin/env python3
"""End-to-end verification benchmark at ``VerifyConfig`` defaults.

Run from the repository root::

    python3 perfbench/run.py --workload clean_wide --seed 1 --seconds 25 --trace 0

``--workload`` is ``clean_wide``, ``blowup`` or ``resubmit`` (see
``perfbench/README.md``).  The run builds the workload's designs from
``--seed``, confirms every label with the benchmark's own oracle, then
repeats whole rounds of the workload until ``--seconds`` have passed and
checks every verdict.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

* ``--trace 0`` reports the end-to-end metrics, measured with no
  wrapper installed.
* ``--trace 1`` runs the workload twice, each for ``--seconds``:
  untraced, then with :class:`perfbench.layers.LayerProbe` installed.
  It reports the per-layer metrics, checks that both runs reach the
  same verdicts, steps and ``|SP_i|`` peaks, and reports the tracing
  overhead.
* ``--write-designs DIR`` writes the workload's designs for ``--seed``
  as AIGER files with a ``manifest.json`` (fingerprint and expected
  verdict of each) and exits, so a failed check can be replayed through
  ``repro verify``.

The program is imported from ``src/`` next to this directory; without
it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("clean_wide", "blowup", "resubmit")

#: Set-ups per run; ``setup_s`` reports the import plus their median.
SETUP_REPEATS = 3
#: Cache-hit probes of each design at the end of every clean_wide and
#: blowup round.
HIT_PROBES = 10
#: Returns of each design per resubmit round, after its first arrival.
RETURNS = 20
#: Client poll interval while an uncached service job runs.
POLL_S = 0.001
#: Kernel calls (median) in the calibration samples around a fresh
#: verify, a set-up and a block of cache-hit probes.
BRACKET_CALLS = 5
#: Least time between two calibration samples among cache hits.
SAMPLE_GAP_S = 0.02
#: Scratch files (stores) of one run, inside the checkout.
WORKDIR = ROOT / ".perfbench_work"

END_TO_END = {"setup_s": "s", "verdicts_per_s": "1/s",
              "verdict_s_geomean": "s", "cache_hit_s_p50": "s",
              "peak_rss_mb": "MB"}


class Failure(Exception):
    """A verdict that failed a check: counted in ``failed``, and it
    makes ``correct`` false."""


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------

def _check_counterexample(design, a_value, b_value):
    from perfbench import oracle

    if not oracle.counterexample_holds(design.netlist, design.width_a,
                                      a_value, b_value):
        raise Failure(f"{design.name}: counterexample a={a_value} "
                      f"b={b_value} does not re-simulate to a != a*b")


def check_result(design, result, fresh_status=None):
    """A ``VerificationResult`` against the design's label."""
    stats = result.stats
    if result.status != design.expected:
        raise Failure(f"{design.name}: verdict {result.status}, expected "
                      f"{design.expected}")
    if fresh_status is not None:
        if not stats.get("cache_hit"):
            raise Failure(f"{design.name}: expected a cache hit")
        if result.status != fresh_status:
            raise Failure(f"{design.name}: cache replayed {result.status}, "
                          f"fresh verdict was {fresh_status}")
    elif result.status == "correct" and not result.remainder.is_zero():
        raise Failure(f"{design.name}: correct with a non-zero remainder")
    if result.status == "buggy":
        _check_counterexample(design, stats.get("counterexample_a"),
                              stats.get("counterexample_b"))


def check_record(design, record, fresh_status=None):
    """A service verdict record against the design's label."""
    status = record.get("status")
    if status != design.expected:
        raise Failure(f"{design.name}: verdict {status}, expected "
                      f"{design.expected} ({record.get('summary')})")
    if fresh_status is None:
        if record.get("cache_hit"):
            raise Failure(f"{design.name}: first arrival answered from "
                          f"the cache")
    else:
        if not record.get("cache_hit"):
            raise Failure(f"{design.name}: resubmission missed the cache")
        if status != fresh_status:
            raise Failure(f"{design.name}: cache replayed {status}, fresh "
                          f"verdict was {fresh_status}")
    if status == "buggy":
        pair = record.get("counterexample") or {}
        _check_counterexample(design, pair.get("a"), pair.get("b"))


def outcome(stats, status):
    """What the traced and untraced halves must agree on."""
    return (status, stats.get("steps"), stats.get("max_poly_size"))


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------

class Round:
    """Timings, counts and checks of one round of a workload."""

    def __init__(self, hits_are_verdicts):
        # cache hits count towards verdicts_per_s on resubmit only: on
        # clean_wide and blowup they are probes beside the workload
        self.hits_are_verdicts = hits_are_verdicts
        # perf_counter spans, turned into reference seconds by scale()
        self.fresh = []          # (design, span to its fresh verdict)
        self.hits = []           # (design, span to a cache-hit verdict)
        self.fresh_wall_s = 0.0  # measured seconds of the fresh verdicts
        self.verdicts = 0
        self.attempted = 0
        self.failures = []       # every failed operation
        self.wrong = []          # those that failed a check (Failure)
        self.outcomes = {}       # design -> outcome()
        self.layers = {}         # per-layer values of this round

    def fail(self, what, exc):
        self.failures.append(f"{what}: {exc!r}")
        if isinstance(exc, Failure):
            self.wrong.append(self.failures[-1])

    def add_stats(self, stats):
        """Fold one fresh verdict's program-reported counts."""
        layers = self.layers
        for metric, key in (("core.atomic_blocks", "atomic_blocks"),
                            ("core.components", "components"),
                            ("core.vanishing_rules", "vanishing_rules"),
                            ("core.rewrite.compact_hits", "compact_hits"),
                            ("core.vanishing.removed", "vanishing_removed")):
            layers[metric] = layers.get(metric, 0) + (stats.get(key) or 0)
        layers["core.rewrite.sp_peak"] = max(
            layers.get("core.rewrite.sp_peak", 0),
            stats.get("max_poly_size") or 0)

    def scale(self, cal):
        """Replace every span by its reference seconds."""
        self.fresh_wall_s = sum(end - start
                                for _, (start, end) in self.fresh)
        self.fresh = [(name, cal.scale(*span)) for name, span in self.fresh]
        self.hits = [(name, cal.scale(*span)) for name, span in self.hits]


class VerifyBench:
    """``clean_wide`` and ``blowup``: one ``Pipeline(VerifyConfig()).run``
    per design and round, each on a cold cut memo, then cache-hit probes
    through the same call with a certificate store attached (the
    ``repro verify --db`` path)."""

    def __init__(self, workload, seed, short=False):
        self.workload = workload
        self.seed = seed
        self.short = short
        self.designs = []
        self.store = None
        self.fresh_status = {}

    def setup(self):
        from perfbench.workloads import build_designs
        from repro.obs.store import RunStore

        self.close()
        self.designs = build_designs(self.workload, self.seed, self.short)
        # in memory: these probes time the fingerprint and the lookup;
        # a store file's per-hit commit waits on the disk's flush, which
        # on the tuning machine took 0.2 ms or 4 ms at random, and is
        # measured on resubmit, where the service keeps a file
        self.store = RunStore(":memory:")
        self.fresh_status = {}

    def close(self):
        if self.store is not None:
            self.store.close()
            self.store = None

    def _certify(self, design, result):
        """Seed the store with the design's fresh verdict (once)."""
        from repro.service.fingerprint import design_fingerprint
        from repro.service.persistence import cache_store, verdict_record

        fingerprint = design_fingerprint(design.aig, design.width_a,
                                         design.width_b)
        cache_store(self.store, fingerprint,
                    verdict_record(result, fingerprint=fingerprint),
                    design=design.name)
        self.fresh_status[design.name] = result.status

    def round(self, rng, cal):
        from repro.aig import clear_cut_memo
        from repro.core.pipeline import Pipeline, VerifyConfig

        rnd = Round(hits_are_verdicts=False)
        order = list(self.designs)
        rng.shuffle(order)
        clock = time.perf_counter
        for design in order:
            rnd.attempted += 1
            clear_cut_memo()
            gc.collect()
            cal.sample(calls=BRACKET_CALLS)
            try:
                start = clock()
                result = Pipeline(VerifyConfig()).run(design.aig)
                end = clock()
                check_result(design, result)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                rnd.fail(design.name, exc)
                continue
            cal.sample(calls=BRACKET_CALLS)
            rnd.fresh.append((design.name, (start, end)))
            rnd.verdicts += 1
            rnd.outcomes[design.name] = outcome(result.stats, result.status)
            rnd.add_stats(result.stats)
            if design.name not in self.fresh_status:
                self._certify(design, result)
        self._probe(rnd, cal, clock)
        return rnd

    def _probe(self, rnd, cal, clock):
        """Cache-hit probes: ``HIT_PROBES`` of each design, interleaved
        across the designs, alternating the design as built and its
        copies, each bracketed by calibration samples."""
        from repro.core.pipeline import Pipeline, VerifyConfig

        for k in range(HIT_PROBES):
            for design in self.designs:
                status = self.fresh_status.get(design.name)
                if status is None:
                    continue  # its fresh verify failed
                inputs = [design.aig, *design.copy_aigs]
                rnd.attempted += 1
                cal.sample(min_gap=SAMPLE_GAP_S)
                try:
                    start = clock()
                    hit = Pipeline(VerifyConfig()).run(
                        inputs[k % len(inputs)], store=self.store,
                        design=design.name)
                    end = clock()
                    check_result(design, hit, status)
                except Exception as exc:  # noqa: BLE001 - counted
                    rnd.fail(f"{design.name} hit {k}", exc)
                    continue
                rnd.hits.append((design.name, (start, end)))
        cal.sample(calls=BRACKET_CALLS)


class ServiceBench:
    """``resubmit``: one client in a closed loop over an in-process
    ``VerificationService(workers=1, use_processes=False)``.

    Each round is one service life time on a fresh store: the cut memo
    starts cold and is then left alone, as a long-lived service keeps
    it.  Every design arrives once uncached, then returns ``RETURNS``
    times, interleaved, as its byte-identical text or as an isomorphic
    renumbered copy.
    """

    def __init__(self, workload, seed, short=False):
        self.workload = workload
        self.seed = seed
        self.short = short
        self.designs = []
        self.setups = 0
        self.rounds = 0

    def _service(self, path):
        from repro.service.core import VerificationService

        return VerificationService(db=path, workers=1,
                                   use_processes=False).start()

    def setup(self):
        from perfbench.workloads import build_designs

        self.designs = build_designs(self.workload, self.seed, self.short)
        # what a service start costs: a new store file and the dispatcher
        self.setups += 1
        self._service(WORKDIR / f"setup-{self.setups}.db").shutdown()

    def close(self):
        pass

    def arrivals(self, rng):
        """``(design, text, first)`` in a seeded interleaving where each
        design's first arrival precedes its returns."""
        slots = [d for d in self.designs for _ in range(1 + RETURNS)]
        rng.shuffle(slots)
        seen = set()
        stream = []
        for design in slots:
            if design.name not in seen:
                seen.add(design.name)
                stream.append((design, design.text, True))
            else:
                text = rng.choice([design.text, *design.copies])
                stream.append((design, text, False))
        return stream

    def round(self, rng, cal):
        from repro.aig import clear_cut_memo

        rnd = Round(hits_are_verdicts=True)
        self.rounds += 1
        db = WORKDIR / f"service-{self.rounds}.db"
        stream = self.arrivals(rng)
        service = self._service(db)
        clear_cut_memo()
        gc.collect()
        fresh_status = {}
        fresh_jobs = []
        clock = time.perf_counter
        sleep = time.sleep
        try:
            for design, text, first in stream:
                rnd.attempted += 1
                if first:
                    cal.sample(calls=BRACKET_CALLS)
                else:
                    cal.sample(min_gap=SAMPLE_GAP_S)
                try:
                    start = clock()
                    job = service.submit(design.name, text)
                    while not job.finished:
                        sleep(POLL_S)
                    end = clock()
                    if job.state != "done":
                        raise Failure(f"{design.name}: job {job.state}: "
                                      f"{job.error}")
                    if first:
                        fresh_status[design.name] = job.record.get("status")
                    check_record(design, job.record,
                                 None if first else fresh_status.get(
                                     design.name))
                except Exception as exc:  # noqa: BLE001 - counted
                    rnd.fail(design.name, exc)
                    continue
                rnd.verdicts += 1
                if first:
                    cal.sample(calls=BRACKET_CALLS)
                    rnd.fresh.append((design.name, (start, end)))
                    fresh_jobs.append(job)
                    stats = job.record.get("stats", {})
                    rnd.outcomes[design.name] = outcome(
                        stats, job.record["status"])
                    rnd.add_stats(stats)
                else:
                    rnd.hits.append((design.name, (start, end)))
            cal.sample()
            rnd.layers["service.queue_wait_s"] = sum(
                job.started_at - job.submitted_at for job in fresh_jobs)
            rnd.layers["service.jobs_held"] = len(service.jobs)
            rnd.layers["service.sources_held"] = sum(
                1 for job in service.jobs.values() if job.source is not None)
        finally:
            service.shutdown()
            for path in WORKDIR.glob(f"service-{self.rounds}.db*"):
                path.unlink()
        return rnd


# ----------------------------------------------------------------------
# phases and metrics
# ----------------------------------------------------------------------

def run_phase(bench, seconds, rng, probe=None):
    """Whole rounds until ``seconds`` have passed (at least one);
    returns the rounds and the phase's :class:`Calibration`."""
    from perfbench.calibrate import Calibration

    cal = Calibration()
    rounds = []
    start = time.perf_counter()
    while True:
        if probe is not None:
            probe.reset()
        rnd = bench.round(rng, cal)
        if probe is not None:
            rnd.layers.update(probe.values)
        rounds.append(rnd)
        if time.perf_counter() - start >= seconds:
            break
    for rnd in rounds:
        rnd.scale(cal)
    return rounds, cal


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def by_design(rounds, kind):
    """Reference seconds per design of the ``kind`` ("fresh" or "hits")
    verdicts of every round."""
    groups = {}
    for rnd in rounds:
        for name, seconds in getattr(rnd, kind):
            groups.setdefault(name, []).append(seconds)
    return groups


def design_medians(rounds, kind):
    return [statistics.median(v) for v in by_design(rounds, kind).values()]


def verdict_rate(rounds):
    """Verdicts per reference second, with every timed call taking its
    design's median time: the verdicts of an average round over the
    time of a round made of median fresh verdicts (plus, on
    ``resubmit``, its cache hits at their design's median)."""
    round_s = sum(design_medians(rounds, "fresh"))
    if rounds[0].hits_are_verdicts:
        round_s += sum(len(v) / len(rounds) * statistics.median(v)
                       for v in by_design(rounds, "hits").values())
    return sum(r.verdicts for r in rounds) / len(rounds) / round_s


def end_to_end(rounds, setup_s):
    """The end-to-end metrics of one phase, times in reference seconds
    (see :mod:`perfbench.calibrate`)."""
    return {
        "setup_s": setup_s,
        "verdicts_per_s": verdict_rate(rounds),
        "verdict_s_geomean": geomean(design_medians(rounds, "fresh")),
        "cache_hit_s_p50": geomean(design_medians(rounds, "hits")),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0),
    }


def per_layer(traced, traced_factor, untraced):
    """Medians over the traced rounds (seconds in reference seconds),
    plus the traced run's own figures: the share of the time to fresh
    verdicts that the pipeline stages cover, and the untraced/traced
    ``verdicts_per_s`` ratio."""
    from perfbench.layers import STAGES

    names = sorted({name for rnd in traced for name in rnd.layers})
    values = {name: statistics.median(rnd.layers.get(name, 0)
                                      for rnd in traced)
              for name in names}
    for name in names:
        if name.endswith("_s"):
            values[name] *= traced_factor
    # both sides in measured seconds
    stage_s = sum(rnd.layers.get(name, 0) for rnd in traced
                  for name in STAGES)
    values["trace.stage_share"] = stage_s / sum(rnd.fresh_wall_s
                                                for rnd in traced)
    values["trace.overhead"] = verdict_rate(untraced) / verdict_rate(traced)
    return values


def compare_outcomes(first, second):
    """Problems where two sets of rounds disagree on a design."""
    seen = {}
    problems = []
    for rnd in [*first, *second]:
        for name, result in rnd.outcomes.items():
            if seen.setdefault(name, result) != result:
                problems.append(f"{name}: {result} differs from "
                                f"{seen[name]}")
    return problems


def layer_units():
    """Units of the per-layer metrics, as ``BENCHMARK.json`` lists
    them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end verification benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="one small design per workload (tests)")
    parser.add_argument("--write-designs", metavar="DIR",
                        help="write the designs for --seed and exit")
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's ``src`` and the benchmark on ``sys.path`` and
    import what the timed calls use; False when there is no program."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import perfbench.layers  # noqa: F401
    import perfbench.workloads  # noqa: F401
    # everything the timed calls import lazily, so no timed call pays
    # a first import
    import repro.aig  # noqa: F401
    import repro.analysis.lint  # noqa: F401
    import repro.analysis.structure  # noqa: F401
    import repro.bench.harness  # noqa: F401
    import repro.core.implications  # noqa: F401
    import repro.core.pipeline  # noqa: F401
    import repro.genmul  # noqa: F401
    import repro.obs.relay  # noqa: F401
    import repro.obs.store  # noqa: F401
    import repro.opt.scripts  # noqa: F401
    import repro.service.core  # noqa: F401
    import repro.service.fingerprint  # noqa: F401
    import repro.service.persistence  # noqa: F401
    return True


def write_designs(args, directory):
    from perfbench.workloads import build_designs
    from repro.service.fingerprint import design_fingerprint

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = []
    for design in build_designs(args.workload, args.seed, args.short):
        fingerprint = design_fingerprint(design.aig, design.width_a,
                                         design.width_b)
        for k, text in enumerate([design.text, *design.copies]):
            name = design.name + ("" if k == 0 else f".copy{k}")
            path = directory / f"{name}.aag"
            path.write_text(text, encoding="ascii")
            manifest.append({"file": path.name, "design": design.name,
                             "fingerprint": fingerprint,
                             "expected": design.expected,
                             "width_a": design.width_a,
                             "width_b": design.width_b})
    with open(directory / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "designs": manifest}, handle, indent=2)
    print(f"wrote {len(manifest)} design file(s) to {directory}; replay "
          f"one with: PYTHONPATH=src python -m repro verify "
          f"{directory}/<file>.aag")


def main(argv=None):
    args = parse_args(argv)
    if not import_program():
        print("perfbench: no program sources under src/repro",
              file=sys.stderr)
        return 2
    import_end = time.perf_counter()
    if args.write_designs:
        write_designs(args, args.write_designs)
        return 0

    from perfbench import oracle
    from perfbench.calibrate import Calibration
    from perfbench.layers import LayerProbe
    from perfbench.workloads import confirm_labels

    bench_class = ServiceBench if args.workload == "resubmit" else VerifyBench
    bench = bench_class(args.workload, args.seed, args.short)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    try:
        setups = []
        cal = Calibration()
        for _ in range(SETUP_REPEATS):
            cal.sample(calls=BRACKET_CALLS)
            start = time.perf_counter()
            bench.setup()
            setups.append((start, time.perf_counter()))
        cal.sample(calls=BRACKET_CALLS)
        setup_s = (cal.scale(_PROCESS_START, import_end)
                   + statistics.median(cal.scale(*span) for span in setups))

        problems = confirm_labels(bench.designs, args.seed)
        rng = oracle.seeded_rng(args.seed, args.workload, "rounds")
        if args.trace:
            untraced, _ = run_phase(bench, args.seconds, rng)
            probe = LayerProbe()
            with probe:
                traced, traced_cal = run_phase(bench, args.seconds, rng,
                                               probe)
            rounds = untraced + traced
            problems += compare_outcomes(untraced, traced)
        else:
            rounds, _ = run_phase(bench, args.seconds, rng)
    finally:
        bench.close()
        shutil.rmtree(WORKDIR, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    problems += [f for r in rounds for f in r.wrong]
    for problem in (failures + [p for p in problems
                                if p not in failures])[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    if problems or failures:
        print(f"perfbench: replay the designs with: python3 "
              f"perfbench/run.py --workload {args.workload} --seed "
              f"{args.seed} --write-designs <dir>", file=sys.stderr)
    if not all(r.fresh for r in rounds) or not any(r.hits for r in rounds):
        print("perfbench: a round delivered no checked verdict to time",
              file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(traced, traced_cal.factor(), untraced)
        units = layer_units()
    else:
        values = end_to_end(rounds, setup_s)
        units = END_TO_END
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in units.items()}
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(rounds)} round(s), {len(bench.designs)} design(s), "
          f"attempted {attempted}, failed {len(failures)}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
