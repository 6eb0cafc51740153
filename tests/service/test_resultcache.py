"""Cache keys and the persistent verdict store.

The dedup guarantees in ``docs/service.md`` rest on two properties
tested here: (1) :func:`repro.service.jobs.cache_key` is a pure function
of program content + verdict-relevant options — deterministic across
rebuilds, and distinct whenever any option that can change the verdict
differs; (2) :class:`repro.service.resultcache.ResultCache` publishes
entries atomically, survives reopening, and treats every form of damage
(corrupt JSON, truncation, schema drift, key mismatch) as a miss.
"""

from __future__ import annotations

import dataclasses
import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.jobs import (
    JobError,
    JobKind,
    JobOptions,
    cache_key,
    kernel_cache_key,
)
from repro.service.resultcache import ENTRY_SCHEMA, ResultCache
from tests.helpers import corpus_programs

# -- cache keys --------------------------------------------------------------

_options_dicts = st.fixed_dictionaries(
    {},
    optional={
        "reduction": st.sampled_from(["none", "sleepset", "dpor"]),
        "preemption_bound": st.integers(min_value=0, max_value=3),
        "memoize": st.booleans(),
        "max_schedules": st.integers(min_value=1, max_value=5000),
    },
).filter(
    # Sleep sets take no bound: from_dict refuses that pair.
    lambda raw: raw.get("reduction") != "sleepset"
    or "preemption_bound" not in raw
)


@settings(max_examples=25, deadline=None)
@given(program=corpus_programs(), raw=_options_dicts, kind=st.sampled_from(JobKind))
def test_cache_key_deterministic(program, raw, kind):
    """Same program + same options → same key, every time."""
    options = JobOptions.from_dict(raw)
    first = cache_key(kind, options, program)
    assert first == cache_key(kind, JobOptions.from_dict(raw), program)
    assert len(first) == 64 and int(first, 16) >= 0


@settings(max_examples=25, deadline=None)
@given(program=corpus_programs(), raw=_options_dicts)
def test_cache_key_distinct_across_kinds(program, raw):
    options = JobOptions.from_dict(raw)
    keys = {cache_key(kind, options, program) for kind in JobKind}
    assert len(keys) == len(list(JobKind))


@settings(max_examples=25, deadline=None)
@given(program=corpus_programs())
def test_cache_key_misses_when_options_differ(program):
    """Every verdict-relevant knob separates keys (the ISSUE's property:
    differing reduction/bound/memoize/budget must miss the cache)."""
    base = JobOptions()
    variants = [
        base,
        dataclasses.replace(base, reduction="dpor"),
        dataclasses.replace(base, reduction="sleepset"),
        dataclasses.replace(base, preemption_bound=2),
        dataclasses.replace(base, memoize=True),
        dataclasses.replace(base, max_schedules=123),
    ]
    keys = [cache_key(JobKind.DETECT, opts, program) for opts in variants]
    assert len(set(keys)) == len(variants)


def test_cache_key_normalises_default_spellings():
    """An explicit default budget equals the implied one."""
    from repro.kernels import get_kernel

    kernel = get_kernel("atomicity_lost_update")
    assert kernel_cache_key(
        JobKind.DETECT, kernel, JobOptions(max_schedules=20000)
    ) == kernel_cache_key(JobKind.DETECT, kernel, JobOptions())


def test_kernel_cache_key_fingerprints_what_the_job_runs():
    """check keys the fixed program, detect keys the buggy one — and two
    kernels never collide."""
    from repro.kernels import get_kernel

    kernel = get_kernel("atomicity_lost_update")
    other = get_kernel("deadlock_abba")
    options = JobOptions()
    assert kernel_cache_key(JobKind.CHECK, kernel, options) != kernel_cache_key(
        JobKind.DETECT, kernel, options
    )
    assert kernel_cache_key(JobKind.DETECT, kernel, options) != kernel_cache_key(
        JobKind.DETECT, other, options
    )


def test_job_options_reject_garbage():
    with pytest.raises(JobError):
        JobOptions.from_dict({"workerz": 2})
    with pytest.raises(JobError, match="unknown job option"):
        JobOptions.from_dict({"workers": 2})
    with pytest.raises(JobError):
        JobOptions.from_dict({"preemption_bound": "two"})
    with pytest.raises(JobError):
        JobOptions.from_dict({"reduction": "magic"})
    for garbage in (
        {"memoize": "false"},
        {"memoize": 1},
        {"memoize": None},
        {"preemption_bound": True},
        {"preemption_bound": -1},
        {"max_schedules": True},
        {"max_schedules": 2.0},
        {"max_schedules": 0},
    ):
        with pytest.raises(JobError):
            JobOptions.from_dict(garbage)
    # Sleep sets refuse a bound: refused at submit, not failed in a worker.
    with pytest.raises(JobError, match="sleepset' cannot be combined"):
        JobOptions.from_dict({"reduction": "sleepset", "preemption_bound": 2})
    with pytest.raises(JobError):
        JobKind.parse("fuzz")


# -- the on-disk store -------------------------------------------------------

KEY_A = "a" * 64
KEY_B = "b" * 64


def _put(cache, key=KEY_A, verdict=None):
    return cache.put(
        key,
        verdict if verdict is not None else {"kind": "detect", "manifested": True},
        kind="detect",
        kernel="atomicity_lost_update",
        engine_runs=7,
        wall_seconds=0.25,
    )


def test_put_get_roundtrip(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    assert cache.get(KEY_A) is None  # cold miss
    stored = _put(cache)
    entry = cache.get(KEY_A)
    assert entry == stored
    assert entry["verdict"] == {"kind": "detect", "manifested": True}
    assert entry["schema"] == ENTRY_SCHEMA
    assert entry["engine_runs"] == 7
    assert (cache.hits, cache.misses, cache.writes) == (1, 1, 1)
    assert len(cache) == 1
    assert 0.0 < cache.hit_rate() < 1.0


def test_entries_persist_across_instances(tmp_path):
    """The property the service restart test builds on: a new ResultCache
    over the same directory sees the old verdicts."""
    root = tmp_path / "cache"
    _put(ResultCache(root))
    reopened = ResultCache(root)
    assert reopened.get(KEY_A)["verdict"]["manifested"] is True
    assert len(reopened) == 1


def test_overwrite_replaces_entry(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    _put(cache, verdict={"kind": "detect", "manifested": False})
    _put(cache, verdict={"kind": "detect", "manifested": True})
    assert cache.get(KEY_A)["verdict"]["manifested"] is True
    assert len(cache) == 1


def test_damage_is_a_miss_not_an_error(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    stored = _put(cache)
    path = cache.root / f"{KEY_A}.json"

    path.write_text("{truncated", encoding="utf-8")
    assert cache.get(KEY_A) is None

    path.write_text(json.dumps([1, 2, 3]), encoding="utf-8")
    assert cache.get(KEY_A) is None

    bad_schema = dict(stored, schema="repro.service.cache/v0")
    path.write_text(json.dumps(bad_schema), encoding="utf-8")
    assert cache.get(KEY_A) is None

    # An entry copied under the wrong file name must not answer for it.
    (cache.root / f"{KEY_B}.json").write_text(
        json.dumps(stored), encoding="utf-8"
    )
    assert cache.get(KEY_B) is None


def test_malformed_keys_rejected(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    for key in ("", "short", "A" * 64, "../" + "a" * 61, "g" * 64):
        with pytest.raises(ValueError):
            cache.get(key)
        with pytest.raises(ValueError):
            _put(cache, key=key)
    assert len(cache) == 0


def test_put_leaves_no_temp_droppings(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    _put(cache)
    _put(cache, key=KEY_B)
    assert sorted(p.name for p in cache.root.iterdir()) == [
        f"{KEY_A}.json",
        f"{KEY_B}.json",
    ]


def test_entry_file_is_json_dumps_of_the_entry(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    stored = _put(cache, verdict={"kind": "detect", "note": "café " * 2000})
    written = (cache.root / f"{KEY_A}.json").read_bytes()
    assert written == json.dumps(stored).encode("utf-8")


def test_root_removed_between_puts_is_created_again(tmp_path):
    cache = ResultCache(tmp_path / "parent" / "cache")
    _put(cache)
    shutil.rmtree(tmp_path / "parent")
    stored = _put(cache, key=KEY_B)
    assert ResultCache(cache.root).get(KEY_B) == stored


# -- the in-memory index -----------------------------------------------------


def test_hit_answers_the_stored_entry_without_rereading(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    stored = _put(cache)
    assert cache.get(KEY_A) is stored
    assert cache.get(KEY_A) is stored
    assert (cache.hits, cache.misses) == (2, 0)


def test_file_deleted_after_a_hit_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    _put(cache)
    assert cache.get(KEY_A) is not None
    (cache.root / f"{KEY_A}.json").unlink()
    assert cache.get(KEY_A) is None
    assert (cache.hits, cache.misses) == (1, 1)


def test_file_replaced_by_another_instance_is_reread(tmp_path):
    root = tmp_path / "cache"
    cache = ResultCache(root)
    _put(cache, verdict={"kind": "detect", "manifested": False})
    assert cache.get(KEY_A)["verdict"]["manifested"] is False
    replaced = _put(ResultCache(root), verdict={"kind": "detect", "manifested": True})
    entry = cache.get(KEY_A)
    assert entry == replaced
    # Read and validated once, then answered from the index again.
    assert cache.get(KEY_A) is entry


def test_new_instance_hits_from_disk_then_from_its_index(tmp_path):
    root = tmp_path / "cache"
    stored = _put(ResultCache(root))
    reopened = ResultCache(root)
    entry = reopened.get(KEY_A)
    assert entry == stored and entry is not stored
    assert reopened.get(KEY_A) is entry
    assert (reopened.hits, reopened.misses, reopened.writes) == (2, 0, 0)
