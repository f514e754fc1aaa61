"""Process-stable canonical state fingerprints.

Python's ``hash(parts)`` would be fine inside one process but is
useless across worker processes: ``str.__hash__`` is salted by
``PYTHONHASHSEED``, so two workers would disagree about every
fingerprint -- and partition-by-hash sharding routes states by
``fingerprint % shards``, which must mean the same thing in every
process.

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
:func:`canonical_fingerprint` with a per-search memo of encoded parts
(:func:`state_bytes`), which gives the same fingerprint bit for bit.
"""

from __future__ import annotations

import hashlib
import marshal

from repro.verify.explorer import state_parts

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


def state_bytes(parts, memo: dict) -> bytes:
    """:func:`canonical_bytes` of a :func:`state_parts` tree, by parts.

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
    *components, flight = parts
    out = [b"("]
    _encode_parts(components, memo, out)
    out.append(b"(")
    _encode_parts(flight, memo, out)
    out.append(b"))")
    return b"".join(out)


def _encode_parts(parts, memo: dict, out: list) -> None:
    """Append each part's canonical bytes to ``out``, through ``memo``."""
    append = out.append
    dumps = marshal.dumps
    for part in parts:
        try:
            key = dumps(part, 2)
        except ValueError:
            append(canonical_bytes(part))
            continue
        data = memo.get(key)
        if data is None:
            data = canonical_bytes(part)
            if len(memo) < MEMO_LIMIT:
                memo[key] = data
        append(data)


def canonical_fingerprint(system, network, memo: dict | None = None) -> int:
    """Fingerprint one live (system, intercepted network) state.

    Equal to ``fingerprint_parts(state_parts(system, network))``, bit
    for bit.  A search passes one ``memo`` dict for its whole drain
    (see :func:`state_bytes`); without one, a fresh dict is used.
    """
    return _digest(state_bytes(state_parts(system, network),
                               {} if memo is None else memo))
