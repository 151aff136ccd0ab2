"""The benchmark's three workloads and the designs they verify.

Every design is built here from the program's generators, optimization
scripts and (for ``resubmit``) fault injection; the labels
(``correct`` for generator output, ``buggy`` for an injected fault) are
confirmed by :mod:`perfbench.oracle` before any timed call.

* ``clean_wide`` — unoptimized simple-partial-product designs at 16 to
  48 bits: prepare stages (cuts, atomic blocks, components,
  implications, preflight) do most of the work, rewrite hardly
  backtracks.
* ``blowup`` — designs on which Algorithm 2 backtracks: rewrite, the
  vanishing reducer and discarded attempts do most of the work.
* ``resubmit`` — a closed loop with one client over an in-process
  verification service: parsing, fingerprints, the certificate cache,
  store writes, the service's always-on trace and the buggy path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from perfbench import oracle

#: (architecture, width, optimization script) of each workload.
CLEAN_WIDE = (("SP-DT-LF", 16, "none"), ("SP-DT-LF", 32, "none"),
              ("SP-DT-LF", 48, "none"), ("SP-AR-RC", 16, "none"),
              ("SP-AR-RC", 32, "none"))
BLOWUP = (("SP-WT-CL", 8, "none"), ("SP-AR-CK", 8, "none"),
          ("SP-BD-KS", 8, "map3"), ("BP-AR-RC", 4, "none"),
          ("BP-OS-CU", 4, "dc2"))
# 8x8 none/map3 cells that each verify in well under 0.3 s
RESUBMIT_CLEAN = (("SP-AR-RC", 8, "none"), ("SP-AR-RC", 8, "map3"),
                  ("SP-DT-LF", 8, "none"), ("SP-DT-LF", 8, "map3"),
                  ("SP-WT-BK", 8, "map3"), ("SP-WT-RC", 8, "none"),
                  ("SP-DT-SK", 8, "map3"), ("SP-AR-KS", 8, "map3"))
#: The design every ``resubmit`` fault is injected into.
FAULT_BASE = ("SP-AR-RC", 8, "none")

#: Short mode: one small design per workload (tests only).
SHORT = {
    "clean_wide": (("SP-AR-RC", 16, "none"),),
    "blowup": (("BP-AR-RC", 4, "none"),),
    "resubmit": (("SP-AR-RC", 8, "map3"),),
}

#: Isomorphic copies prepared per design.
COPIES = 2


@dataclass
class Design:
    """One workload input with its label and its isomorphic copies."""

    name: str
    width_a: int
    width_b: int
    expected: str              # "correct" or "buggy"
    aig: object                # repro.aig.Aig as built
    text: str                  # its AIGER text (repro.aig.write_aag)
    netlist: oracle.Netlist    # the oracle's view of ``text``
    copies: list = field(default_factory=list)   # renumbered AIGER texts
    copy_aigs: list = field(default_factory=list)  # copies, parsed


def cell_name(arch, width, script):
    return f"{arch}_{width}x{width}_{script}"


def _generate(arch, width, script):
    from repro.genmul import generate_multiplier
    from repro.opt.scripts import optimize

    aig = generate_multiplier(arch, width)
    if script != "none":
        aig = optimize(aig, script)
    return aig


def partial_product_gates(aig):
    """AND nodes fed by two primary inputs: the simple PPG's ``a_i b_j``
    gates."""
    inputs = set(aig.inputs)
    return [var for var in aig.and_vars()
            if all(lit >> 1 in inputs for lit in aig.fanins(var))]


def inject_ppg_fault(aig, kind, rng):
    """A visible fault of ``kind`` at a seeded partial-product gate.

    Faults are confined to the partial-product generator: a fault deep
    in the accumulator can blow the buggy remainder up by orders of
    magnitude (see the README), which would make a run's length depend
    on the seed.
    """
    from repro.errors import GeneratorError
    from repro.genmul.faults import inject_fault

    targets = partial_product_gates(aig)
    rng.shuffle(targets)
    for target in targets:
        try:
            return inject_fault(aig, kind=kind, target=target,
                                seed=rng.randrange(1 << 30)), target
        except GeneratorError:
            continue  # functionally invisible there; next gate
    raise oracle.OracleError(f"no visible {kind} fault in {aig.name}")


def _design(name, aig, expected, seed, parse_copies):
    from repro.aig.aiger import read_aag, write_aag

    text = write_aag(aig)
    netlist = oracle.parse_aag(text)
    width_a = aig.num_inputs // 2
    copy_rng = oracle.seeded_rng(seed, "copies", name)
    copies = [oracle.renumber_aag(netlist, copy_rng) for _ in range(COPIES)]
    return Design(name, width_a, aig.num_inputs - width_a, expected, aig,
                  text, netlist, copies,
                  [read_aag(copy) for copy in copies] if parse_copies else [])


def build_designs(workload, seed, short=False):
    """Generate, optimize and fault-inject one workload's designs."""
    from repro.genmul.faults import FAULT_KINDS

    if short:
        cells = SHORT[workload]
    else:
        cells = {"clean_wide": CLEAN_WIDE, "blowup": BLOWUP,
                 "resubmit": RESUBMIT_CLEAN}[workload]
    service = workload == "resubmit"
    designs = [_design(cell_name(*cell), _generate(*cell), "correct", seed,
                       parse_copies=not service)
               for cell in cells]
    if service:
        base = _generate(*FAULT_BASE)
        kinds = FAULT_KINDS[:1] if short else FAULT_KINDS
        for kind in kinds:
            buggy, target = inject_ppg_fault(
                base, kind, oracle.seeded_rng(seed, "fault", kind))
            name = f"{cell_name(*FAULT_BASE)}_{kind}@v{target}"
            designs.append(_design(name, buggy, "buggy", seed,
                                   parse_copies=False))
    return designs


def confirm_labels(designs, seed):
    """Check every design and copy against ``a * b``; returns a list of
    problems (empty when every label holds)."""
    problems = []
    for design in designs:
        views = [("", design.netlist)]
        views += [(f" copy {k}", oracle.parse_aag(text))
                  for k, text in enumerate(design.copies)]
        for label, netlist in views:
            rng = oracle.seeded_rng(seed, "oracle", design.name, label)
            wrong = oracle.check_product(netlist, design.width_a,
                                         design.width_b, rng)
            if design.expected == "correct" and wrong is not None:
                problems.append(f"{design.name}{label}: labelled correct "
                                f"but a*b differs at a,b={wrong}")
            elif design.expected == "buggy" and wrong is None:
                problems.append(f"{design.name}{label}: labelled buggy "
                                f"but computes a*b on every pair")
    return problems
