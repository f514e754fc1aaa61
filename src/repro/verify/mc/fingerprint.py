"""Process-stable canonical state fingerprints.

Python's ``hash(parts)`` would be fine inside one process but is
useless across processes: ``str.__hash__`` is salted by
``PYTHONHASHSEED``, so two processes would disagree about every
fingerprint -- and a counterexample's fingerprint is written into its
JSON fixture and pinned by tests, then read back and compared in
another process.

This module derives a 64-bit fingerprint from the canonical state
walk (:func:`repro.verify.explorer.state_parts`) via a keyed-nothing
BLAKE2b over a deterministic byte encoding.  Guarantees:

- identical states produce identical fingerprints in any process, on
  any host, under any ``PYTHONHASHSEED``;
- the encoding is injective over the primitive types the state walk
  emits (ints, strings, bools, None, floats, nested tuples), so two
  different part trees cannot collide by construction -- only by the
  64-bit birthday bound, negligible at reachable state counts.

:func:`canonical_bytes` and :func:`fingerprint_parts` are the
specification.  A search fingerprints through
:func:`canonical_fingerprint`, which gives the same fingerprint bit for
bit.  It encodes a state part by part, through a per-search memo of
encoded parts (:func:`part_bytes`), and keeps each part's bytes in a
:class:`PartBytes`.  A part's component belongs to one domain -- one
network node and the components only it calls
(:attr:`repro.sim.system.System.domains`) -- and a delivery changes
only its destination's domain and the in-flight messages, so after a
step only the touched domain's parts and the in-flight part are
encoded again; the search's :class:`~repro.verify.mc.engine.LiveSystem`
names them.  The in-flight part is joined from per-message bytes
that the intercept network keeps beside its outbox, so a parked
message is encoded once (:func:`_flight_entries`).
"""

from __future__ import annotations

import hashlib
import marshal
from operator import itemgetter

from repro.verify.explorer import component_parts, flight_entry

#: Fingerprint width in bytes (64-bit: birthday-safe to ~10^9 states).
DIGEST_BYTES = 8


def _encode(value, out: list) -> None:
    """Append an injective byte encoding of ``value`` to ``out``.

    Each primitive is tagged with a type byte and length-delimited, so
    concatenations cannot be confused (e.g. ``("ab", "c")`` vs
    ``("a", "bc")``).  Containers are encoded recursively; dicts and
    sets are sorted first so representation order never leaks in.
    """
    if value is None:
        out.append(b"N")
    elif value is True:
        out.append(b"T")
    elif value is False:
        out.append(b"F")
    elif isinstance(value, int):
        text = str(value).encode("ascii")
        out.append(b"i%d:" % len(text))
        out.append(text)
    elif isinstance(value, float):
        text = value.hex().encode("ascii")
        out.append(b"f%d:" % len(text))
        out.append(text)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.append(b"s%d:" % len(data))
        out.append(data)
    elif isinstance(value, bytes):
        out.append(b"b%d:" % len(value))
        out.append(value)
    elif isinstance(value, (tuple, list)):
        out.append(b"(")
        for item in value:
            _encode(item, out)
        out.append(b")")
    elif isinstance(value, (set, frozenset)):
        out.append(b"{")
        for item in sorted(value, key=repr):
            _encode(item, out)
        out.append(b"}")
    elif isinstance(value, dict):
        out.append(b"[")
        for key in sorted(value, key=repr):
            _encode(key, out)
            _encode(value[key], out)
        out.append(b"]")
    else:
        raise TypeError(
            f"state parts must be primitives/containers, got "
            f"{type(value).__name__}: {value!r}")


#: Entries kept per leaf-bytes cache; past it, new leaves are encoded
#: each time they occur.  State parts reuse a small vocabulary (node
#: ids, state names, addresses, data values), so the caches stay hot.
LEAF_CACHE_LIMIT = 1 << 16

# Encoded bytes of int and str leaves.  Separate caches, because a
# shared one would confuse ``True`` with ``1`` (equal, same hash).
_INT_BYTES: dict[int, bytes] = {}
_STR_BYTES: dict[str, bytes] = {}


def _leaf_bytes(value, cache: dict) -> bytes:
    """Encode one int or str leaf as :func:`_encode` does, and cache it."""
    out: list = []
    _encode(value, out)
    data = b"".join(out)
    if len(cache) < LEAF_CACHE_LIMIT:
        cache[value] = data
    return data


def canonical_bytes(parts) -> bytes:
    """Deterministic, injective byte encoding of a part tree.

    Emits exactly the bytes of :func:`_encode`, which is the
    specification, but walks nested tuples with an explicit stack and
    takes int and str bytes from caches.  Dispatch is on the exact
    type: ``tuple``, ``int``, ``str``, ``bool`` and ``None`` take the
    fast path, and every other value (floats, bytes, lists, sets,
    dicts, subclasses such as ``IntEnum`` members) is handed to
    :func:`_encode` whole.
    """
    out: list = []
    append = out.append
    ints, strs = _INT_BYTES, _STR_BYTES
    stack: list = []
    items = iter((parts,))
    while True:
        for value in items:
            cls = type(value)
            if cls is str:
                data = strs.get(value)
                append(data if data is not None else _leaf_bytes(value, strs))
            elif cls is tuple:
                if not value:
                    append(b"()")
                    continue
                # Descend: the outer loop resumes on the child's items.
                append(b"(")
                stack.append(items)
                items = iter(value)
                break
            elif cls is int:
                data = ints.get(value)
                append(data if data is not None else _leaf_bytes(value, ints))
            elif value is None:
                append(b"N")
            elif cls is bool:
                append(b"T" if value else b"F")
            else:
                _encode(value, out)
        else:
            if not stack:
                return b"".join(out)
            append(b")")
            items = stack.pop()


def _digest(data: bytes) -> int:
    """The 64-bit fingerprint of a canonical byte string."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=DIGEST_BYTES).digest(), "big")


def fingerprint_parts(parts) -> int:
    """64-bit process-stable fingerprint of a part tree."""
    return _digest(canonical_bytes(parts))


#: Entries kept per search memo; past it, new parts are encoded each
#: time they occur.  A litmus search sees hundreds of distinct parts
#: (609 over the 4,187 states of WRC on MESI-CXL-MESI).
MEMO_LIMIT = 1 << 14


def part_bytes(part, memo: dict) -> bytes:
    """:func:`canonical_bytes` of one part, through ``memo``.

    A state's component parts (one per L1, bridge, home and core) and
    the entries of its last part, the in-flight channels, take few
    distinct values over a search.  Their encoded bytes are kept in
    ``memo``, keyed by the part's version-2 ``marshal`` bytes.  That key
    is type-faithful (``True``, ``1`` and ``1.0`` differ) and holds no
    back-references, so it depends on the value, not on object
    identity.  It exists only in this process and never enters a
    fingerprint.  A part ``marshal`` rejects, such as one holding an
    ``IntEnum`` member, is encoded without the memo.  (``marshal``
    writes a ``bytearray`` as ``bytes``; the state walk emits neither.)
    """
    try:
        key = marshal.dumps(part, 2)
    except ValueError:
        return canonical_bytes(part)
    data = memo.get(key)
    if data is None:
        data = canonical_bytes(part)
        if len(memo) < MEMO_LIMIT:
            memo[key] = data
    return data


class PartBytes:
    """The encoded component parts of one live system's last
    fingerprinted state, for :func:`canonical_fingerprint`.

    ``encoded`` holds one :func:`part_bytes` string per component part
    of :func:`~repro.verify.explorer.state_parts`, in its order, and
    ``by_domain`` the ``(position, encode, component)`` of each part,
    grouped by the domain (:attr:`repro.sim.system.System.domains`)
    its component belongs to.
    """

    def __init__(self, system) -> None:
        domain_of = {id(component): index
                     for index, components in enumerate(system.domains)
                     for component in components}
        layout = component_parts(system)
        self.by_domain: list[list] = [[] for _ in system.domains]
        self._position: dict[int, int] = {}
        for position, (encode, component) in enumerate(layout):
            self.by_domain[domain_of[id(component)]].append(
                (position, encode, component))
            self._position[id(component)] = position
        self.encoded: list[bytes] = [b""] * len(layout)

    def key(self, component) -> bytes:
        """The bytes of ``component``'s part as last encoded.  Equal
        bytes mean equal parts, so they name the component's state to
        any reader that needs only fields its part covers: the
        invariant checks' memo (:func:`repro.verify.invariants.check_all`)."""
        return self.encoded[self._position[id(component)]]


# The opening bytes of each ``(src, dst, vnet)`` channel's part of
# :func:`~repro.verify.explorer.flight_part`.  Channel keys are a
# string, a string and an int, so equal keys have equal bytes.
_CHANNEL_HEADS: dict[tuple, bytes] = {}
_BY_CHANNEL = itemgetter(0)


def _channel_head(channel: tuple) -> bytes:
    head = _CHANNEL_HEADS.get(channel)
    if head is None:
        head = b"(" + canonical_bytes(channel) + b"("
        if len(_CHANNEL_HEADS) < LEAF_CACHE_LIMIT:
            _CHANNEL_HEADS[channel] = head
    return head


def _flight_entries(network, memo: dict) -> list:
    """``(channel, head, entry)`` for each in-flight message, in outbox
    order: its ``(src, dst, vnet)`` channel, the bytes that open that
    channel's part of :func:`~repro.verify.explorer.flight_part`, and
    its entry's bytes.

    They are kept in the network's ``entries`` list, beside its outbox
    (:class:`~repro.verify.explorer.InterceptNetwork`), so a message is
    encoded once however many states it is in flight in.
    """
    outbox, entries = network.outbox, network.entries
    for index, item in enumerate(entries):
        if item is None:
            msg = outbox[index]
            channel = (msg.src, msg.dst, msg.vnet)
            entries[index] = (channel, _channel_head(channel),
                              part_bytes(flight_entry(msg), memo))
    return entries


def canonical_fingerprint(system, network, memo: dict | None = None,
                          parts: PartBytes | None = None,
                          touched=None) -> int:
    """Fingerprint one live (system, intercepted network) state.

    Equal to ``fingerprint_parts(state_parts(system, network))``, bit
    for bit.  A search passes one ``memo`` dict for its whole drain
    (see :func:`part_bytes`); without one, a fresh dict is used.

    ``parts`` is the :class:`PartBytes` of ``system``, and ``touched``
    the indices of the domains changed since ``parts`` was last
    filled, or None for all.  Only the parts of those domains are
    re-encoded (into ``parts``); the others keep their bytes.  Without
    ``parts``, every part is encoded into a fresh one.  The in-flight
    part is joined from each message's bytes (:func:`_flight_entries`),
    sorted by channel: the sort is stable, so each channel keeps its
    FIFO order.
    """
    if memo is None:
        memo = {}
    if parts is None:
        parts, touched = PartBytes(system), None
    by_domain = parts.by_domain
    encoded = parts.encoded
    for domain in (by_domain if touched is None
                   else [by_domain[index] for index in touched]):
        for position, encode, component in domain:
            encoded[position] = part_bytes(encode(component), memo)
    out = [b"(", *encoded, b"("]
    entries = _flight_entries(network, memo)
    if entries:
        last = None
        for channel, head, data in sorted(entries, key=_BY_CHANNEL):
            if channel != last:
                if last is not None:
                    out.append(b"))")
                out.append(head)
                last = channel
            out.append(data)
        out.append(b"))")
    out.append(b"))")
    return _digest(b"".join(out))
