"""The benchmark's own verdict oracle, independent of the verifier.

Nothing here imports :mod:`repro`: a design's AIGER ASCII text is
parsed by this module's own reader into a plain :class:`Netlist` and
evaluated bit-parallel with Python integers, one lane per operand pair.
The reference is Python's own ``a * b``.

* :func:`check_product` confirms a design's label: exhaustively when
  both operands together have at most :data:`EXHAUSTIVE_BITS` bits
  (every 8x8 and smaller design), otherwise on seeded random pairs.
* :func:`evaluate_pair` re-simulates one counterexample.
* :func:`renumber_aag` writes an isomorphic copy of a netlist — fresh
  variable numbers, a random topological order, swapped AND pins and
  shuffled AND rows — which the certificate cache must still hit.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

#: Largest ``width_a + width_b`` checked on every operand pair (2^16).
EXHAUSTIVE_BITS = 16

#: Random operand pairs checked on wider designs.
RANDOM_PAIRS = 256


class OracleError(Exception):
    """A design's outputs disagree with ``a * b`` where its label says
    they must agree, or a netlist is malformed."""


@dataclass(frozen=True)
class Netlist:
    """A combinational AIG as plain data.

    ``inputs`` are variable numbers in declared position order (operand
    ``a`` LSB first, then ``b``); ``ands`` are ``(lhs_var, rhs0_lit,
    rhs1_lit)`` rows in topological order; ``outputs`` are literals,
    product LSB first.
    """

    inputs: tuple
    ands: tuple
    outputs: tuple
    input_names: tuple = ()
    output_names: tuple = ()


def parse_aag(text):
    """Minimal AIGER ASCII reader (combinational files only)."""
    lines = text.splitlines()
    header = lines[0].split()
    if len(header) != 6 or header[0] != "aag":
        raise OracleError(f"not an AIGER ASCII header: {lines[0]!r}")
    _, num_in, num_latch, num_out, num_and = (int(x) for x in header[1:])
    if num_latch:
        raise OracleError("latches are not supported")
    body = lines[1:]
    inputs = tuple(int(body[i]) >> 1 for i in range(num_in))
    outputs = tuple(int(body[num_in + i]) for i in range(num_out))
    rows = []
    for i in range(num_and):
        lhs, rhs0, rhs1 = (int(x) for x in
                           body[num_in + num_out + i].split())
        rows.append((lhs >> 1, rhs0, rhs1))
    # AIGER allows any row order; evaluation needs fan-ins first, and a
    # variable number larger than its fan-ins' is the usual convention
    rows.sort()
    in_names = [None] * num_in
    out_names = [None] * num_out
    for line in body[num_in + num_out + num_and:]:
        if not line or line == "c":
            break
        kind, _, name = line.partition(" ")
        if kind[0] == "i":
            in_names[int(kind[1:])] = name
        elif kind[0] == "o":
            out_names[int(kind[1:])] = name
    return Netlist(inputs, tuple(rows), outputs, tuple(in_names),
                   tuple(out_names))


def evaluate(netlist, input_vectors, lanes):
    """Bit-parallel evaluation.

    ``input_vectors[i]`` is the lane vector of input position ``i`` (bit
    ``p`` = the input's value in lane ``p``); returns one lane vector
    per output.
    """
    mask = (1 << lanes) - 1
    values = {0: 0}
    for var, vector in zip(netlist.inputs, input_vectors):
        values[var] = vector
    for lhs, rhs0, rhs1 in netlist.ands:
        try:
            left = values[rhs0 >> 1]
            right = values[rhs1 >> 1]
        except KeyError as exc:
            raise OracleError(
                f"AND v{lhs} reads v{exc.args[0]} before it is "
                f"defined") from None
        if rhs0 & 1:
            left ^= mask
        if rhs1 & 1:
            right ^= mask
        values[lhs] = left & right
    out = []
    for literal in netlist.outputs:
        vector = values[literal >> 1]
        out.append(vector ^ mask if literal & 1 else vector)
    return out


def _lane_vectors(words, width):
    """Lane vectors of the ``width`` bits of per-lane integers."""
    vectors = []
    for bit in range(width):
        digits = "".join("1" if (word >> bit) & 1 else "0"
                         for word in reversed(words))
        vectors.append(int(digits, 2))
    return vectors


def _stimulus(pairs, width_a, width_b, out_width):
    """Input lane vectors and expected output lane vectors."""
    inputs = (_lane_vectors([a for a, _ in pairs], width_a)
              + _lane_vectors([b for _, b in pairs], width_b))
    want = _lane_vectors([a * b for a, b in pairs], out_width)
    return pairs, tuple(inputs), tuple(want)


@functools.lru_cache(maxsize=4)
def _exhaustive_stimulus(width_a, width_b, out_width):
    pairs = [(a, b) for b in range(1 << width_b)
             for a in range(1 << width_a)]
    return _stimulus(pairs, width_a, width_b, out_width)


def _random_stimulus(width_a, width_b, out_width, rng):
    pairs = [(0, 0), ((1 << width_a) - 1, (1 << width_b) - 1)]
    while len(pairs) < RANDOM_PAIRS:
        pairs.append((rng.getrandbits(width_a), rng.getrandbits(width_b)))
    return _stimulus(pairs, width_a, width_b, out_width)


def check_product(netlist, width_a, width_b, rng):
    """Compare the design against ``a * b``.

    Returns None when every checked pair agrees, else the first
    disagreeing ``(a, b)``.  Exhaustive up to :data:`EXHAUSTIVE_BITS`
    operand bits, :data:`RANDOM_PAIRS` pairs drawn from ``rng`` above.
    """
    out_width = len(netlist.outputs)
    if len(netlist.inputs) != width_a + width_b:
        raise OracleError(f"{len(netlist.inputs)} inputs, expected "
                          f"{width_a}+{width_b}")
    if width_a + width_b <= EXHAUSTIVE_BITS:
        pairs, inputs, want = _exhaustive_stimulus(width_a, width_b,
                                                   out_width)
    else:
        pairs, inputs, want = _random_stimulus(width_a, width_b,
                                               out_width, rng)
    got = evaluate(netlist, inputs, len(pairs))
    wrong = 0
    for got_bit, want_bit in zip(got, want):
        wrong |= got_bit ^ want_bit
    if not wrong:
        return None
    return pairs[(wrong & -wrong).bit_length() - 1]


def evaluate_pair(netlist, width_a, a_value, b_value):
    """The design's output word for one operand pair."""
    bits = [(a_value >> i) & 1 for i in range(width_a)]
    bits += [(b_value >> i) & 1 for i in range(len(netlist.inputs)
                                               - width_a)]
    out = evaluate(netlist, bits, 1)
    return sum(bit << k for k, bit in enumerate(out))


def counterexample_holds(netlist, width_a, a_value, b_value):
    """True when ``(a, b)`` really is a counterexample: the design's
    output differs from ``a * b`` (truncated to the output width)."""
    if a_value is None or b_value is None:
        return False
    out_mask = (1 << len(netlist.outputs)) - 1
    return (evaluate_pair(netlist, width_a, a_value, b_value)
            != (a_value * b_value) & out_mask)


def write_aag(netlist):
    """AIGER ASCII text of a netlist, variables numbered as given."""
    max_var = max([0, *netlist.inputs, *(row[0] for row in netlist.ands)])
    lines = [f"aag {max_var} {len(netlist.inputs)} 0 "
             f"{len(netlist.outputs)} {len(netlist.ands)}"]
    lines += [str(2 * var) for var in netlist.inputs]
    lines += [str(literal) for literal in netlist.outputs]
    lines += [f"{2 * lhs} {rhs0} {rhs1}" for lhs, rhs0, rhs1 in netlist.ands]
    for prefix, names in (("i", netlist.input_names),
                          ("o", netlist.output_names)):
        lines += [f"{prefix}{index} {name}"
                  for index, name in enumerate(names) if name]
    return "\n".join(lines) + "\n"


def renumber(netlist, rng):
    """An isomorphic copy: same inputs by position, same outputs in
    order, every variable renumbered along a random topological order,
    AND pins swapped at random and AND rows listed in random order."""
    count = len(netlist.inputs) + len(netlist.ands)
    numbers = list(range(1, count + 1))
    input_numbers = rng.sample(numbers, len(netlist.inputs))
    taken = set(input_numbers)
    and_numbers = [n for n in numbers if n not in taken]
    old2new = {0: 0}
    for var, new in zip(netlist.inputs, input_numbers):
        old2new[var] = new

    # random topological order of the AND rows (Kahn, random pick)
    index_of = {row[0]: i for i, row in enumerate(netlist.ands)}
    users = [[] for _ in netlist.ands]
    waiting = []
    for i, (_, rhs0, rhs1) in enumerate(netlist.ands):
        deps = {index_of[v] for v in (rhs0 >> 1, rhs1 >> 1)
                if v in index_of}
        waiting.append(len(deps))
        for dep in deps:
            users[dep].append(i)
    ready = [i for i, n in enumerate(waiting) if n == 0]
    order = []
    while ready:
        pick = rng.randrange(len(ready))
        ready[pick], ready[-1] = ready[-1], ready[pick]
        i = ready.pop()
        order.append(i)
        for user in users[i]:
            waiting[user] -= 1
            if waiting[user] == 0:
                ready.append(user)
    if len(order) != len(netlist.ands):
        raise OracleError("netlist has a combinational cycle")

    # AND numbers ascend along the order, so a reader that sorts rows
    # by their left-hand side still sees fan-ins first
    rows = []
    for i, new in zip(order, and_numbers):
        lhs, rhs0, rhs1 = netlist.ands[i]
        old2new[lhs] = new
        rhs0 = 2 * old2new[rhs0 >> 1] + (rhs0 & 1)
        rhs1 = 2 * old2new[rhs1 >> 1] + (rhs1 & 1)
        if rng.random() < 0.5:
            rhs0, rhs1 = rhs1, rhs0
        rows.append((new, rhs0, rhs1))
    rng.shuffle(rows)
    outputs = tuple(2 * old2new[lit >> 1] + (lit & 1)
                    for lit in netlist.outputs)
    return Netlist(tuple(input_numbers), tuple(rows), outputs,
                   netlist.input_names, netlist.output_names)


def renumber_aag(netlist, rng):
    """AIGER text of :func:`renumber`'s isomorphic copy."""
    return write_aag(renumber(netlist, rng))


def seeded_rng(seed, *labels):
    """A ``random.Random`` for one purpose of one run, derived from the
    workload seed and string labels (stable across processes, unlike
    ``hash``)."""
    key = ":".join([str(seed), *map(str, labels)])
    return random.Random(key)
