"""Cache keying primitives: knobs, canonical JSON, and digests.

A cache key is an ordinary dict of JSON-safe values; :func:`canonical`
normalises enums to their values, dataclasses to field dicts, and
tuples/sets to (sorted) lists, and :func:`digest` hashes the sorted,
separator-free JSON rendering (:func:`key_digest` hashes a key that is
already canonical). Two keys digest equal iff they describe
the same configuration, independent of field order or container type.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pathlib

from repro.errors import SimulationError


def cache_enabled() -> bool:
    """``REPRO_CACHE`` knob: unset/empty/``1`` on, ``0`` off."""
    raw = os.environ.get("REPRO_CACHE")
    if raw in (None, "", "1"):
        return True
    if raw == "0":
        return False
    raise SimulationError(f"REPRO_CACHE must be 0 or 1; got {raw!r}")


def cache_root() -> pathlib.Path:
    """``REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``/``~/.cache/repro``."""
    raw = os.environ.get("REPRO_CACHE_DIR")
    if raw:
        return pathlib.Path(raw)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro"


#: Exact types :func:`canonical` returns unchanged at its first test.
#: Subclasses (``IntEnum``, str-valued enums) are not in here: enum
#: members must still map to their ``.value``.
_SCALARS = frozenset((str, int, float, bool, type(None)))


def canonical(obj):
    """Normalise ``obj`` into plain JSON-safe containers (or raise).

    Plain scalars -- by far the commonest leaves -- are tested first,
    then enums, containers, and dataclasses last.
    """
    if type(obj) in _SCALARS:
        return obj
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(canonical(k)): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonical(v) for v in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, (str, int, float, bool)):
        return obj
    raise TypeError(
        f"cannot canonicalise {type(obj).__name__!s} for cache keying")


def canonical_json(obj) -> str:
    return _key_json(canonical(obj))


def _key_json(key) -> str:
    return json.dumps(key, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return key_digest(canonical(obj))


def key_digest(key) -> str:
    """:func:`digest` of a ``key`` that is already canonical (such as
    :func:`~repro.cache.results.cell_key` returns), without walking it
    a second time."""
    return hashlib.sha256(_key_json(key).encode()).hexdigest()
