"""Process-stable canonical state fingerprints.

Python's ``hash(parts)`` would be fine inside one process but is
useless across a worker fleet: ``str.__hash__`` is salted by
``PYTHONHASHSEED``, so two workers would disagree about every
fingerprint -- and partition-by-hash sharding routes states by
``fingerprint % shards``, which must mean the same thing on every host.

This module derives a 64-bit fingerprint from the canonical state
walk (:func:`repro.verify.explorer.state_parts`) via a keyed-nothing
BLAKE2b over a deterministic byte encoding.  Guarantees:

- identical states produce identical fingerprints in any process, on
  any host, under any ``PYTHONHASHSEED``;
- the encoding is injective over the primitive types the state walk
  emits (ints, strings, bools, None, floats, nested tuples), so two
  different part trees cannot collide by construction -- only by the
  64-bit birthday bound, negligible at reachable state counts.
"""

from __future__ import annotations

import hashlib

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


def canonical_bytes(parts) -> bytes:
    """Deterministic, injective byte encoding of a part tree."""
    out: list = []
    _encode(parts, out)
    return b"".join(out)


def fingerprint_parts(parts) -> int:
    """64-bit process-stable fingerprint of a part tree."""
    digest = hashlib.blake2b(canonical_bytes(parts),
                             digest_size=DIGEST_BYTES).digest()
    return int.from_bytes(digest, "big")


def canonical_fingerprint(system, network) -> int:
    """Fingerprint one live (system, intercepted network) state."""
    return fingerprint_parts(state_parts(system, network))
