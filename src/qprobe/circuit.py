"""Probe circuits: logical construction, routing onto hardware, op walks.

Bitstring convention used throughout: measured qubit 0 is the *rightmost*
character of a rendered outcome string, matching the usual little-endian
rendering of counts dictionaries.

The op walk (`walk_ops`) is the single source of truth for which error
opportunities touch which qubit.  A circuit is walked once, when it is built,
and keeps its measured-qubit events as one flip table of read-only arrays:
``flip_sites``, ``flip_bits``, ``flip_slots`` (indices into ``error_keys``)
and ``flip_salts`` (the seed-free halves of the rows' stream keys).  The
estimator, the parity oracle and the sampler all read those arrays, so they
agree; fit checks and prices read ``error_keys``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping, Sequence

import numpy as np

from ._flipcore import stream_salts
from .device import Topology

__all__ = [
    "Gate",
    "LogicalCircuit",
    "TranspiledOp",
    "TranspiledCircuit",
    "FlipEvent",
    "WalkStep",
    "CircuitError",
    "RoutingError",
    "build_bv",
    "transpile",
    "compose_probe",
    "walk_ops",
    "bit_at",
]


class CircuitError(ValueError):
    """A circuit failed structural validation."""


class RoutingError(CircuitError):
    """Routing could not place a 2-qubit op on the target topology."""


class Gate(Enum):
    H = "H"
    X = "X"
    CNOT = "CNOT"
    SWAP = "SWAP"
    MEASURE = "MEASURE"

    @property
    def n_registers(self) -> int:
        return 2 if self in (Gate.CNOT, Gate.SWAP) else 1


def bit_at(bits: str, index: int) -> str:
    """Character of measured qubit ``index`` in a rendered bitstring."""
    return bits[len(bits) - 1 - index]


@dataclass(frozen=True)
class LogicalCircuit:
    """Topology-agnostic circuit over logical qubits.

    ``measured`` lists logical qubits in measurement order; ``ideal_output``
    is the noise-free outcome over those qubits.  Builders guarantee the
    circuit lands in a single basis state before measurement; the constructor
    checks only structure (arity, ranges, measure-once-and-last).
    """

    num_qubits: int
    ops: tuple[tuple[Gate, tuple[int, ...]], ...]
    measured: tuple[int, ...]
    ideal_output: str

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise CircuitError("circuit needs at least one qubit")
        measured_at: dict[int, int] = {}
        for idx, (gate, qubits) in enumerate(self.ops):
            if len(qubits) != gate.n_registers:
                raise CircuitError(f"op {idx}: {gate.value} takes {gate.n_registers} qubits")
            if len(set(qubits)) != len(qubits):
                raise CircuitError(f"op {idx}: repeated qubit operand")
            for q in qubits:
                if not (0 <= q < self.num_qubits):
                    raise CircuitError(f"op {idx}: qubit {q} out of range")
                if q in measured_at:
                    raise CircuitError(f"op {idx}: qubit {q} used after measurement")
            if gate is Gate.MEASURE:
                measured_at[qubits[0]] = idx
        if sorted(measured_at) != sorted(self.measured):
            raise CircuitError("measured qubit list does not match MEASURE ops")
        if len(set(self.measured)) != len(self.measured):
            raise CircuitError("measured qubit listed twice")
        if len(self.ideal_output) != len(self.measured):
            raise CircuitError("ideal_output length must equal number of measured qubits")
        if any(c not in "01" for c in self.ideal_output):
            raise CircuitError("ideal_output must be a bitstring")


@dataclass(frozen=True)
class TranspiledOp:
    """One hardware op: gate, physical registers and its computed error key.

    The key is ("cnot", sorted register pair) for a CNOT or SWAP, ("meas", r)
    for a MEASURE and ("single", r) for any other gate.
    """

    gate: Gate
    registers: tuple[int, ...]
    error_key: tuple = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.registers) != self.gate.n_registers:
            raise CircuitError(f"{self.gate.value} takes {self.gate.n_registers} registers")
        if len(set(self.registers)) != len(self.registers):
            raise CircuitError("repeated register operand")
        if self.gate.n_registers == 2:
            key = ("cnot", tuple(sorted(self.registers)))
        else:
            key = ("meas" if self.gate is Gate.MEASURE else "single", self.registers[0])
        object.__setattr__(self, "error_key", key)


@dataclass(frozen=True)
class FlipEvent:
    """One error opportunity for one tracked qubit.

    ``sub`` indexes the constituent CNOTs of a SWAP (0..2) and is 0 for every
    other gate; ``register`` is the physical location of the qubit when the
    op fires.
    """

    op_index: int
    sub: int
    logical: int
    register: int
    error_key: tuple


@dataclass(frozen=True)
class WalkStep:
    op_index: int
    op: TranspiledOp
    events: tuple[FlipEvent, ...]
    locations: dict[int, int]


def _swap(loc: dict[int, int], owner: dict[int, int], a: int, b: int) -> tuple:
    """SWAP registers a and b in both placement maps; return their old qubits."""
    qa, qb = owner.pop(a, None), owner.pop(b, None)
    if qa is not None:
        loc[qa] = b
        owner[b] = qa
    if qb is not None:
        loc[qb] = a
        owner[a] = qb
    return qa, qb


def _walk(ops: Sequence[TranspiledOp], initial_mapping: dict[int, int]) -> Iterator[WalkStep]:
    loc = dict(initial_mapping)
    owner = {p: q for q, p in loc.items()}
    if len(owner) != len(loc):
        raise CircuitError("initial mapping is not injective")
    done: set[int] = set()
    for idx, op in enumerate(ops):
        for r in op.registers:
            q = owner.get(r)
            if q is not None and q in done:
                raise CircuitError(f"op {idx}: register {r} holds already-measured qubit {q}")
        events: list[FlipEvent] = []
        if op.gate is Gate.SWAP:
            a, b = op.registers
            qa, qb = _swap(loc, owner, a, b)
            for sub in range(3):
                if qa is not None:
                    events.append(FlipEvent(idx, sub, qa, a, op.error_key))
                if qb is not None:
                    events.append(FlipEvent(idx, sub, qb, b, op.error_key))
        else:
            for r in op.registers:
                q = owner.get(r)
                if q is not None:
                    events.append(FlipEvent(idx, 0, q, r, op.error_key))
            if op.gate is Gate.MEASURE:
                q = owner.get(op.registers[0])
                if q is not None:
                    done.add(q)
        yield WalkStep(idx, op, tuple(events), dict(loc))


@dataclass(frozen=True)
class TranspiledCircuit:
    """Hardware-level circuit plus the logical bookkeeping around it.

    ``initial_mapping`` maps logical qubit to physical register before any
    op; ``measured`` lists logical qubits in fingerprint order.  The
    constructor walks the ops once and checks that each measured qubit is
    measured exactly once, by the last op touching its register.  Read off
    that walk are ``final_mapping`` (registers after all routing SWAPs),
    ``error_keys`` (the ops' distinct keys, first use first) and the flip
    table, one row per measured-qubit event in walk order, held as read-only
    arrays: ``flip_sites`` (n x 3 int64: op index, sub-op, register),
    ``flip_bits`` (int64 fingerprint indices), ``flip_slots`` (int64 indices
    into ``error_keys``) and ``flip_salts`` (2 x n uint64, from
    ``_flipcore.stream_salts``).
    """

    num_qubits: int
    ops: tuple[TranspiledOp, ...]
    initial_mapping: dict[int, int]
    measured: tuple[int, ...]
    ideal_output: str
    final_mapping: dict[int, int] = field(init=False, compare=False)
    error_keys: tuple[tuple, ...] = field(init=False, compare=False)
    flip_sites: np.ndarray = field(init=False, compare=False, repr=False)
    flip_bits: np.ndarray = field(init=False, compare=False, repr=False)
    flip_slots: np.ndarray = field(init=False, compare=False, repr=False)
    flip_salts: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for q, p in self.initial_mapping.items():
            if not (0 <= p < self.num_qubits):
                raise CircuitError(f"initial mapping sends {q} to bad register {p}")
        for op in self.ops:
            for r in op.registers:
                if not (0 <= r < self.num_qubits):
                    raise CircuitError(f"register {r} out of range")
        steps = tuple(_walk(self.ops, self.initial_mapping))
        seen_measures = [ev.logical for step in steps if step.op.gate is Gate.MEASURE
                         for ev in step.events]
        if sorted(seen_measures) != sorted(self.measured):
            raise CircuitError("MEASURE ops do not cover the measured qubit list")
        if len(self.ideal_output) != len(self.measured):
            raise CircuitError("ideal_output length must equal number of measured qubits")
        if any(c not in "01" for c in self.ideal_output):
            raise CircuitError("ideal_output must be a bitstring")
        object.__setattr__(self, "final_mapping",
                           dict(steps[-1].locations if steps else self.initial_mapping))
        error_keys = tuple(dict.fromkeys(op.error_key for op in self.ops))
        object.__setattr__(self, "error_keys", error_keys)
        bit_of = {q: i for i, q in enumerate(self.measured)}
        slot_of = {key: i for i, key in enumerate(error_keys)}
        events = [ev for step in steps for ev in step.events if ev.logical in bit_of]
        sites = np.array([(ev.op_index, ev.sub, ev.register) for ev in events],
                         dtype=np.int64).reshape(-1, 3)
        for name, array in (
                ("flip_sites", sites),
                ("flip_bits", np.array([bit_of[ev.logical] for ev in events], dtype=np.int64)),
                ("flip_slots", np.array([slot_of[ev.error_key] for ev in events], np.int64)),
                ("flip_salts", stream_salts(sites))):
            array.flags.writeable = False
            object.__setattr__(self, name, array)


def walk_ops(circuit: TranspiledCircuit) -> Iterator[WalkStep]:
    """Per-op flip events and locations of a transpiled circuit.

    Walks ``circuit.ops`` anew on each call; jobs never do.  A SWAP contributes
    three events (its constituent CNOTs) to each tracked qubit it touches and
    then exchanges their locations; a MEASURE contributes one event at the
    qubit's final register.
    """
    return _walk(circuit.ops, circuit.initial_mapping)


def build_bv(secret: str) -> LogicalCircuit:
    """Bernstein-Vazirani probe for a secret bitstring.

    Inputs are logical 0..n-2, the ancilla is logical n-1 and is prepared in
    the |-> state via X then H.  Oracle CNOTs run from each input whose
    secret bit is 1 into the ancilla, in ascending input order.  The ideal
    outcome equals the secret.
    """
    if not secret or any(c not in "01" for c in secret):
        raise CircuitError("secret must be a non-empty bitstring")
    n_inputs = len(secret)
    ancilla = n_inputs
    ops: list[tuple[Gate, tuple[int, ...]]] = [(Gate.X, (ancilla,)), (Gate.H, (ancilla,))]
    ops += [(Gate.H, (i,)) for i in range(n_inputs)]
    ops += [(Gate.CNOT, (i, ancilla)) for i in range(n_inputs) if bit_at(secret, i) == "1"]
    ops += [(Gate.H, (i,)) for i in range(n_inputs)]
    ops += [(Gate.MEASURE, (i,)) for i in range(n_inputs)]
    return LogicalCircuit(
        num_qubits=n_inputs + 1,
        ops=tuple(ops),
        measured=tuple(range(n_inputs)),
        ideal_output=secret,
    )


def _route_path(topology: Topology, start: int, goal: int, blocked: set[int]) -> list[int]:
    """Shortest register path start -> goal avoiding blocked interior nodes.

    Ties are broken toward the lowest physical index at each hop.
    """
    dist = topology.distances_from(goal, blocked=frozenset(blocked - {start, goal}))
    if start not in dist:
        raise RoutingError(f"no route from register {start} to {goal}")
    path = [start]
    cur = start
    while cur != goal:
        steps = [v for v in topology.neighbors(cur)
                 if v not in blocked and v in dist and dist[v] == dist[cur] - 1]
        cur = min(steps)
        path.append(cur)
    return path


def _route(circuit: LogicalCircuit, topology: Topology,
           initial_mapping: Sequence[int] | Mapping[int, int]
           ) -> tuple[tuple[TranspiledOp, ...], dict[int, int]]:
    """Checked mapping and routing of one part: (ops, initial map)."""
    if isinstance(initial_mapping, Mapping):
        try:
            initial_mapping = [initial_mapping[q] for q in range(len(initial_mapping))]
        except KeyError:
            raise CircuitError("mapping must place logical qubits 0..n-1") from None
    if len(initial_mapping) != circuit.num_qubits:
        raise CircuitError("initial mapping must place every logical qubit")
    if len(set(initial_mapping)) != len(initial_mapping):
        raise CircuitError("initial mapping is not injective")
    for p in initial_mapping:
        if not (0 <= p < topology.num_qubits):
            raise CircuitError(f"mapping register {p} out of range")

    l2p = dict(enumerate(initial_mapping))
    p2l = {p: q for q, p in l2p.items()}
    frozen: set[int] = set()
    out: list[TranspiledOp] = []

    for gate, qubits in circuit.ops:
        if gate.n_registers == 1:
            p = l2p[qubits[0]]
            out.append(TranspiledOp(gate, (p,)))
            if gate is Gate.MEASURE:
                frozen.add(p)
            continue
        pa, pb = l2p[qubits[0]], l2p[qubits[1]]
        if not topology.adjacent(pa, pb):
            path = _route_path(topology, pa, pb, frozen)
            for nxt in path[1:-1]:
                out.append(TranspiledOp(Gate.SWAP, (pa, nxt)))
                _swap(l2p, p2l, pa, nxt)
                pa = nxt
        out.append(TranspiledOp(gate, (pa, pb)))
    return tuple(out), dict(enumerate(initial_mapping))


def _assemble(parts: Sequence[tuple[LogicalCircuit, Sequence[int] | Mapping[int, int]]],
              topology: Topology) -> TranspiledCircuit:
    """Route each (circuit, mapping) part, at graph distance >= 2 from each
    other, and build one circuit; part 0 holds the rightmost output bits."""
    routed = [_route(circ, topology, mapping) for circ, mapping in parts]
    used = [set(initial.values()).union(*(op.registers for op in ops))
            for ops, initial in routed]
    for i in range(len(used)):
        for j in range(i + 1, len(used)):
            gap = topology.set_distance(used[i], used[j])
            if gap is not None and gap < 2:
                raise CircuitError(
                    f"subprobes {i} and {j} are at graph distance {gap}; need >= 2")

    ops: list[TranspiledOp] = []
    initial: dict[int, int] = {}
    measured: list[int] = []
    offset = 0
    for (circ, _), (part_ops, part_initial) in zip(parts, routed):
        ops.extend(part_ops)
        initial.update((q + offset, p) for q, p in part_initial.items())
        measured.extend(q + offset for q in circ.measured)
        offset += circ.num_qubits
    return TranspiledCircuit(
        num_qubits=topology.num_qubits,
        ops=tuple(ops),
        initial_mapping=initial,
        measured=tuple(measured),
        ideal_output="".join(circ.ideal_output for circ, _ in reversed(parts)),
    )


def transpile(circuit: LogicalCircuit, topology: Topology,
              initial_mapping: Sequence[int] | Mapping[int, int]) -> TranspiledCircuit:
    """Route a logical circuit onto a topology under a fixed initial mapping.

    The mapping is a register per logical qubit, either as a sequence indexed
    by logical id or as an explicit {logical: register} mapping.  Non-adjacent
    2-qubit ops move their first operand along a shortest path with SWAPs
    placed immediately before the blocked op; nothing is swapped back
    afterwards.  Registers holding already-measured qubits are never routed
    through.
    """
    return _assemble([(circuit, initial_mapping)], topology)


def compose_probe(subprobes: Sequence[tuple[str, Sequence[int]]],
                  topology: Topology) -> TranspiledCircuit:
    """Union of BV subprobes running on disjoint regions of one device.

    Each subprobe is a (secret, initial_mapping) pair.  Regions must be
    pairwise at graph distance >= 2 so the subprobes cannot interact even
    through a shared coupler.  Subprobes are transpiled by the same routine
    as `transpile`, so a single subprobe composes to exactly its own
    transpilation.  The parts are only routed; the probe is built, and so
    walked, once as a whole.
    """
    if not subprobes:
        raise CircuitError("compose_probe needs at least one subprobe")
    return _assemble([(build_bv(secret), mapping) for secret, mapping in subprobes], topology)
