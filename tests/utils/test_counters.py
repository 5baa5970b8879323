"""The one field-wise fold behind every stats snapshot.

Properties hold for every :class:`~repro.utils.counters.Counters`
subclass the package defines, found by walking ``__subclasses__()``, so
a new snapshot type is covered without being listed here. Every field
must be classified — a number (counter or gauge), a nested snapshot, or
a field with its own merge rule and a strategy below — so a field added
later that the fold cannot handle fails here, as an unclassified config
knob fails ``TestFingerprintSoundness``.
"""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.evaluator import LayerCacheStats
from repro.core.serving import ServingStats
from repro.core.session import SessionStats
from repro.utils.counters import Counters


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


SNAPSHOTS = sorted(set(_subclasses(Counters)), key=lambda c: c.__name__)


def _kinds(cls) -> dict[str, str]:
    """Each field of ``cls`` by name: its kind, read off the zero value."""
    zero, kinds = cls(), {}
    for f in fields(cls):
        value = getattr(zero, f.name)
        if "merge" in f.metadata:
            kinds[f.name] = "rule"
        elif isinstance(value, Counters):
            kinds[f.name] = "nested"
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            kinds[f.name] = "gauge" if f.metadata.get("gauge") else "counter"
        else:
            kinds[f.name] = "unclassified"
    return kinds


_COUNTS = st.integers(min_value=0, max_value=10**9)


def snapshots(cls) -> st.SearchStrategy:
    """Snapshots of ``cls`` with every field drawn."""
    drawn = {}
    for name, kind in _kinds(cls).items():
        if kind == "nested":
            drawn[name] = snapshots(type(getattr(cls(), name)))
        elif kind == "rule":
            drawn[name] = RULE_FIELDS[cls, name]
        else:
            drawn[name] = _COUNTS
    return st.builds(cls, **drawn)


#: Strategies for fields with their own merge rule. Labels carry no
#: ``@n`` suffix, so the relabelling rule leaves them as they are.
RULE_FIELDS = {
    (ServingStats, "per_tenant"): st.dictionaries(
        st.text(alphabet="abc", min_size=1, max_size=3),
        st.deferred(lambda: snapshots(SessionStats)),
        max_size=3,
    ),
}


def _leaves(stats, path=()):
    """``(path, kind, value)`` of every number in a snapshot, nested
    snapshots included."""
    for name, kind in _kinds(type(stats)).items():
        value = getattr(stats, name)
        if kind == "nested":
            yield from _leaves(value, path + (name,))
        elif kind != "rule":
            yield path + (name,), kind, value


def _values(stats) -> dict:
    return {path: value for path, _, value in _leaves(stats)}


def test_the_walk_finds_every_snapshot_type():
    assert {LayerCacheStats, SessionStats, ServingStats} <= set(SNAPSHOTS)


@pytest.mark.parametrize("cls", SNAPSHOTS, ids=lambda c: c.__name__)
def test_every_field_is_classified(cls):
    for name, kind in _kinds(cls).items():
        assert kind != "unclassified", (
            f"{cls.__name__}.{name} is neither a number, a Counters "
            "nor a field with its own merge rule"
        )
        if kind == "rule":
            assert (cls, name) in RULE_FIELDS, (
                f"{cls.__name__}.{name} needs a strategy in RULE_FIELDS"
            )


@pytest.mark.parametrize("cls", SNAPSHOTS, ids=lambda c: c.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_zero_is_the_identity_of_merge(cls, data):
    snapshot = data.draw(snapshots(cls))
    assert cls.zero() == cls()
    assert cls().merge(snapshot) == snapshot
    assert snapshot.merge(cls()) == snapshot


@pytest.mark.parametrize("cls", SNAPSHOTS, ids=lambda c: c.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_merge_sums_counters_and_combines_gauges(cls, data):
    a, b = data.draw(snapshots(cls)), data.draw(snapshots(cls))
    summed, peak = _values(a.merge(b)), _values(a.merge(b, gauge=max))
    left, right = _values(a), _values(b)
    for path, kind, _ in _leaves(a):
        total = left[path] + right[path]
        assert summed[path] == total, path
        if kind == "gauge":
            assert peak[path] == max(left[path], right[path]), path
        else:
            assert peak[path] == total, path


@pytest.mark.parametrize("cls", SNAPSHOTS, ids=lambda c: c.__name__)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_since_undoes_merge_for_counters(cls, data):
    a, b = data.draw(snapshots(cls)), data.draw(snapshots(cls))
    merged = a.merge(b)
    delta = merged.since(b)
    now, before, back = _values(merged), _values(a), _values(delta)
    for path, kind, _ in _leaves(a):
        expected = now[path] if kind == "gauge" else before[path]
        assert back[path] == expected, path
    for name, kind in _kinds(cls).items():
        if kind == "rule":
            assert getattr(delta, name) == getattr(merged, name)
