"""Interconnect model (the Garnet substitute).

The network delivers :class:`~repro.protocols.messages.Message` objects
between registered :class:`Node` endpoints over directed :class:`Link`
channels.  Three properties matter for protocol fidelity:

1. **Per-channel FIFO** -- messages on the same ``(src, dst, vnet)``
   channel never reorder.  This is what lets ``BIConflictAck`` act as a
   fence relative to ``Cmp*`` messages (both ride the response network).
2. **Cross-channel reordering** -- messages on different virtual
   networks have independent queues and (on the CXL fabric) independent
   random jitter, so a completion on the response network can overtake
   or be overtaken by a snoop on the forward network: the Fig. 2 races.
3. **Latency composition** -- arrival time is
   ``now + router + link latency + serialization + jitter`` where
   serialization charges one link cycle per flit.

All three live in one place, :meth:`Network.send`: ``send_many`` is a
loop over it, fault actions apply inside it, and it reaches the engine
only through ``post_at``/``post_many``, so the event queue's layout is
private to :mod:`repro.sim.engine`.

Watching the traffic is one hook, :attr:`Network.observers`: every
member gets ``on_message(msg, delay)`` once per message ``stats``
counts (see the attribute for where).  The span recorder
(:class:`repro.obs.spans.SpanRecorder`) and the message tracer
(:class:`repro.sim.trace.MessageTracer`) subscribe there; nothing
replaces ``send``.  The fault plan (``faults``) is not an observer: it
decides the deliveries rather than watching them.

Per direction of a link, everything a send reads or writes sits in one
:class:`_Wire` record: the link's timing, the time the wire is busy
until, one FIFO floor per virtual network and the receiving node's
``handle_message``.  A send makes one lookup, ``wires[src][dst]``.
Wires are made on the first send over a pair, so a network whose
messages never pass through :meth:`Network.send` (the model checker's
interceptor) builds none.

A :class:`Node` holds its network through a weak proxy: the network
owns the nodes (and their handlers, through the wires), so a finished
system has no reference cycle through the fabric and is freed by
reference counting as soon as it is dropped.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from typing import Any

from repro.protocols.messages import Message, VNET_NAMES
from repro.sim.engine import Engine


@dataclass(frozen=True)
class Link:
    """A directed channel between two nodes.

    ``latency`` covers propagation (router + wire) in ticks;
    ``flit_bytes`` and ``flit_cycle`` model serialization;
    ``jitter`` is the maximum uniform random extra delay in ticks.
    """

    latency: int
    flit_bytes: int = 72
    flit_cycle: int = 500
    jitter: int = 0


class _Wire:
    """One direction of one link, as :meth:`Network.send` uses it.

    ``latency``/``flit_bytes``/``flit_cycle``/``jitter`` copy the
    :class:`Link` (a later :meth:`Network.connect` of the pair rewrites
    them); ``busy_until`` is the tick the wire finishes serializing its
    last message; ``last_arrival[vnet]`` is the last arrival scheduled
    on that virtual network, the per-channel FIFO floor; ``handler`` is
    the receiver's ``handle_message``.
    """

    __slots__ = ("latency", "flit_bytes", "flit_cycle", "jitter",
                 "busy_until", "last_arrival", "handler")

    def __init__(self, link: Link, handler) -> None:
        self.retime(link)
        self.busy_until = 0
        self.last_arrival = [-1] * len(VNET_NAMES)
        self.handler = handler

    def retime(self, link: Link) -> None:
        """Take the timing of ``link``; occupancy and FIFO floors stay."""
        self.latency = link.latency
        self.flit_bytes = link.flit_bytes
        self.flit_cycle = link.flit_cycle
        self.jitter = link.jitter


class Node:
    """Base class for every message-handling component."""

    def __init__(self, engine: Engine, network: "Network", node_id: str) -> None:
        self.engine = engine
        # Weak: the network owns its nodes (see the module docstring).
        self.network = weakref.proxy(network)
        self.node_id = node_id
        network.register(self)

    def send(self, msg: Message) -> None:
        """Hand a message to the interconnect."""
        self.network.send(msg)

    def send_many(self, msgs) -> None:
        """Hand a batch of messages to the interconnect, in order."""
        self.network.send_many(msgs)

    def handle_message(self, msg: Message) -> None:
        """Process one delivered message (subclass hook)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.node_id}>"


class NetworkStats:
    """Aggregate traffic counters."""

    def __init__(self) -> None:
        self.messages = 0
        self.bytes = 0
        self.per_vnet: dict[str, int] = {name: 0 for name in VNET_NAMES.values()}
        self.per_kind: dict[str, int] = {}

    def record(self, msg: Message) -> None:
        """Count one sent message."""
        self.messages += 1
        self.bytes += msg.size
        self.per_vnet[VNET_NAMES[msg.vnet]] += 1
        self.per_kind[msg.kind] = self.per_kind.get(msg.kind, 0) + 1

    def snapshot(self) -> tuple:
        """Every counter, for :meth:`restore`."""
        return (self.messages, self.bytes, tuple(self.per_vnet.values()),
                tuple(self.per_kind.items()))

    def restore(self, state: tuple) -> None:
        """Back to a :meth:`snapshot`, in the same dicts."""
        self.messages, self.bytes, per_vnet, per_kind = state
        self.per_vnet.update(zip(self.per_vnet, per_vnet))  # fixed keys
        self.per_kind.clear()
        self.per_kind.update(per_kind)


class Network:
    """Message router with per-channel FIFO delivery."""

    #: Subscribers told ``on_message(msg, delay)`` once per message
    #: ``stats`` counts, in subscription order: in the clean tail of
    #: :meth:`send` (``delay`` = arrival - now), per delivery in
    #: :meth:`_faulted_deliveries` (a drop with delay 0, a duplicate's
    #: copy on its own) and in the model checker's interceptor (delay
    #: 0).  Empty on the class; :meth:`add_observer` gives a network
    #: its own tuple, so a network nobody watches tests one empty tuple.
    observers: tuple = ()

    def __init__(self, engine: Engine, seed: int = 1) -> None:
        self.engine = engine
        #: Jitter draw stream, seeded with ``seed`` when the first link
        #: with jitter is connected: a jitter-free fabric never draws.
        self.rng: random.Random | None = None
        self._seed = seed
        self.nodes: dict[str, Node] = {}
        #: ``node_id -> bound handle_message``, copied into each wire.
        self._handlers: dict[str, Any] = {}
        self.links: dict[tuple[str, str], Link] = {}
        #: ``src -> {dst: _Wire}``, filled by the first send on a pair.
        self._wires: dict[str, dict[str, _Wire]] = {}
        self.stats = NetworkStats()
        # Fault plan (repro.scenario.faults.FaultPlan) or None: the
        # fault-free path pays exactly one is-None test.
        self.faults = None

    def add_observer(self, observer) -> None:
        """Subscribe ``observer`` to :attr:`observers`, after the others."""
        self.observers = (*self.observers, observer)

    def remove_observer(self, observer) -> None:
        """Unsubscribe ``observer``; every other subscriber stays."""
        self.observers = tuple(o for o in self.observers if o is not observer)

    def register(self, node: Node) -> None:
        """Register an endpoint (called by Node.__init__)."""
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self.nodes[node.node_id] = node
        self._handlers[node.node_id] = node.handle_message

    def connect(self, src: str, dst: str, link: Link, bidirectional: bool = True) -> None:
        """Install a link between two endpoints.

        Re-connecting a pair that has carried messages changes the
        timing of later sends only: the wire stays busy as long as it
        was, and no channel's FIFO floor moves.
        """
        if link.jitter and self.rng is None:
            self.rng = random.Random(self._seed)
        pairs = ((src, dst), (dst, src)) if bidirectional else ((src, dst),)
        for a, b in pairs:
            self.links[(a, b)] = link
            wire = self._wires.get(a, {}).get(b)
            if wire is not None:
                wire.retime(link)

    def _wire(self, src: str, dst: str) -> _Wire:
        """The wire ``src -> dst``, made on first use."""
        link = self.links.get((src, dst))
        if link is None:
            # Called from send's lookup miss: no chained KeyError.
            raise KeyError(f"no link {src} -> {dst}") from None
        wire = _Wire(link, self._handlers[dst])
        self._wires.setdefault(src, {})[dst] = wire
        return wire

    def send(self, msg: Message) -> None:
        """Schedule delivery of ``msg`` respecting per-channel FIFO order
        and per-link bandwidth (serialization occupies the wire).

        The one message path: every send, batched or not, faulted or
        not, on any engine, computes its arrival here.  A message the
        fault plan selects leaves through :meth:`_faulted_deliveries`;
        every other one is counted in place, shown to the
        :attr:`observers` and posted at its arrival.
        """
        try:
            wire = self._wires[msg.src][msg.dst]
        except KeyError:
            wire = self._wire(msg.src, msg.dst)
        engine = self.engine
        now = engine.now
        flit_bytes = wire.flit_bytes
        serialization = (
            (msg.size + flit_bytes - 1) // flit_bytes) * wire.flit_cycle
        start = wire.busy_until
        if start < now:
            start = now
        start += serialization
        wire.busy_until = start
        arrival = start + wire.latency
        jitter = wire.jitter
        if jitter:
            # rng.randrange(jitter + 1) inlined as its exact getrandbits
            # rejection loop: the same draw stream without the call.
            span = jitter + 1
            bits = span.bit_length()
            getrandbits = self.rng.getrandbits  # type: ignore[union-attr]
            r = getrandbits(bits)
            while r >= span:
                r = getrandbits(bits)
            arrival += r
        faults = self.faults
        if faults is not None:
            action = faults.action_for(msg)
            if action is not None:
                engine.post_many(self._faulted_deliveries(
                    msg, wire, action, arrival, now))
                return
        vnet = msg.vnet
        last_arrival = wire.last_arrival
        if arrival <= last_arrival[vnet]:
            arrival = last_arrival[vnet] + 1
        last_arrival[vnet] = arrival
        # stats.record(msg), inlined.
        stats = self.stats
        stats.messages += 1
        stats.bytes += msg.size
        stats.per_vnet[VNET_NAMES[vnet]] += 1
        per_kind = stats.per_kind
        kind = msg.kind
        per_kind[kind] = per_kind.get(kind, 0) + 1
        observers = self.observers
        if observers:  # skips the loop set-up when nobody watches
            for observer in observers:
                observer.on_message(msg, arrival - now)
        engine.post_at(arrival, wire.handler, msg)

    def send_many(self, msgs) -> None:
        """Send a batch of messages: one :meth:`send` per message, in order.

        The fan-out spelling used by the L1 forward handlers, the
        bridge invalidation loops and the Dcoh snoop sweep.  It goes
        through ``self.send``, so a subclass's ``send`` (the model
        checker's :class:`~repro.verify.explorer.InterceptNetwork`) and
        every observer see each message, and a missing link raises
        after the earlier messages of the batch were delivered and
        counted.
        """
        send = self.send
        for msg in msgs:
            send(msg)

    def _faulted_deliveries(self, msg: Message, wire: _Wire, action,
                            arrival: int, now: int) -> tuple:
        """Deliveries for a message selected by the fault plan.

        ``action`` is ``(verb, extra_ticks)`` from
        :meth:`repro.scenario.faults.FaultPlan.action_for`.  Drops are
        counted but never scheduled; delays stretch the arrival but
        keep per-channel FIFO; reorders stretch the arrival *and*
        bypass the FIFO floor (the one legal-fabric property faults are
        allowed to break); duplicates deliver a fresh-uid copy one tick
        after the original.  Returns ``(time, handler, args)`` items
        for :meth:`~repro.sim.engine.BatchedEngine.post_many`.
        """
        verb, extra = action
        stats = self.stats
        observers = self.observers
        if verb == "drop":
            stats.record(msg)
            for observer in observers:
                observer.on_message(msg, 0)
            return ()
        vnet = msg.vnet
        last_arrival = wire.last_arrival
        if verb == "reorder":
            arrival += extra
        else:
            if verb == "delay":
                arrival += extra
            if arrival <= last_arrival[vnet]:
                arrival = last_arrival[vnet] + 1
            last_arrival[vnet] = arrival
        stats.record(msg)
        for observer in observers:
            observer.on_message(msg, arrival - now)
        handler = wire.handler
        if verb != "duplicate":
            return ((arrival, handler, (msg,)),)
        from repro.scenario.faults import clone_message

        copy = clone_message(msg)
        copy_arrival = arrival + 1
        last_arrival[vnet] = copy_arrival
        stats.record(copy)
        for observer in observers:
            observer.on_message(copy, copy_arrival - now)
        return ((arrival, handler, (msg,)),
                (copy_arrival, handler, (copy,)))
