"""The cache-key format is frozen: on-disk entries must stay addressable.

``canonical`` tests plain scalars first for speed; these tests pin its
output to the previous implementation (kept verbatim below as
``_reference_canonical``) and pin one cell's fingerprint to the hex
digest the previous implementation produced.
"""

import dataclasses
import enum
import json

from hypothesis import given, settings, strategies as st

from repro import Policy
from repro.cache.keys import canonical, digest, key_digest


def _reference_canonical(obj):
    """Normalise ``obj`` into plain JSON-safe containers (or raise)."""
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _reference_canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(_reference_canonical(k)): _reference_canonical(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference_canonical(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_reference_canonical(v) for v in obj)
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    raise TypeError(
        f"cannot canonicalise {type(obj).__name__!s} for cache keying")


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Mode(str, enum.Enum):
    FAST = "fast"
    SLOW = "slow"


@dataclasses.dataclass(frozen=True)
class Point:
    x: int
    label: str
    level: Level


@dataclasses.dataclass(frozen=True)
class Box:
    corner: Point
    mode: Mode
    tags: tuple


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    st.sampled_from(list(Level)), st.sampled_from(list(Mode)))
_points = st.builds(Point, st.integers(), st.text(max_size=4),
                    st.sampled_from(list(Level)))
_boxes = st.builds(Box, _points, st.sampled_from(list(Mode)),
                   st.lists(_scalars, max_size=3).map(tuple))
_hashables = st.one_of(_scalars, _points, _boxes)
_values = st.recursive(
    st.one_of(_hashables),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.sets(_hashables, max_size=4),
        st.frozensets(_scalars, max_size=4),
        st.dictionaries(_hashables, inner, max_size=4)),
    max_leaves=20)


def _outcome(fn, value):
    """``fn(value)`` as its repr (which tells ``2`` from ``Level.HIGH``
    and keeps dict order) and its sorted-key JSON, or the type of the
    exception it raised."""
    try:
        out = fn(value)
    except Exception as err:  # noqa: BLE001 - compared, not swallowed
        return type(err)
    return (repr(out), json.dumps(out, sort_keys=True))


class TestCanonical:
    @settings(max_examples=300, deadline=None)
    @given(_values)
    def test_matches_reference_byte_for_byte(self, value):
        assert _outcome(canonical, value) == _outcome(_reference_canonical,
                                                      value)

    @settings(max_examples=100, deadline=None)
    @given(_values)
    def test_key_digest_of_canonical_equals_digest(self, value):
        try:
            expected = digest(value)
        except TypeError:
            return
        assert key_digest(canonical(value)) == expected

    def test_enum_members_map_to_values(self):
        out = canonical({"level": Level.HIGH, "mode": Mode.FAST})
        assert out == {"level": 2, "mode": "fast"}
        assert type(out["level"]) is int and type(out["mode"]) is str


class TestGoldenFingerprint:
    #: Computed by the implementation this one replaced, with the
    #: source-tree hash pinned to 64 zeros.
    GOLDEN = ("c92a742d51249749c9deb38afc4afacc"
              "091153321aa1c9d527b5da4810a85780")

    def test_cell_fingerprint_is_unchanged(self, monkeypatch):
        from repro.analysis.experiments import ExperimentConfig
        from repro.analysis.parallel import Cell
        from repro.cache import srchash
        from repro.cache.results import ResultCache

        monkeypatch.setattr(srchash, "_cached", "0" * 64)
        exp = ExperimentConfig(n_clusters=2, scale=0.12, seed=7)
        cell = Cell.make("kmeans", Policy.cohesion(), exp, label="golden",
                         l2_bytes=16 * 1024)
        assert ResultCache().fingerprint(cell) == self.GOLDEN
