"""Cross-process stability of the persistent-cache program fingerprints.

The service result cache (``docs/service.md``) survives interpreter
restarts, so its keys — :func:`repro.sim.statecache.program_fingerprint`
digests — must be pure functions of program *content*: no ``id()``, no
hash-seed-dependent iteration order, no memory addresses, no file
locations.  These tests pin that contract:

* the same three kernels fingerprint identically in this process and in
  fresh subprocess invocations under different ``PYTHONHASHSEED``s;
* rebuilding a value-identical program yields the same digest
  (value-based, not identity-based);
* editing a thread body, an initial value, or a declaration changes it.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from repro.sim import Program, Read, Write
from repro.sim.statecache import (
    canonical_value,
    fingerprint_digest,
    program_fingerprint,
)

#: The three kernels the regression pins (one per studied bug class).
PINNED_KERNELS = ("atomicity_lost_update", "order_lost_wakeup", "deadlock_abba")

_SUBPROCESS_SNIPPET = """
import sys
from repro.sim.statecache import program_fingerprint
from repro.kernels import get_kernel
for name in {names!r}:
    kernel = get_kernel(name)
    print(name, program_fingerprint(kernel.buggy), program_fingerprint(kernel.fixed))
"""


def _fingerprints_in_subprocess(hash_seed: str) -> dict:
    src = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SNIPPET.format(names=PINNED_KERNELS)],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": src, "PYTHONHASHSEED": hash_seed, "PATH": ""},
    )
    out = {}
    for line in proc.stdout.splitlines():
        name, buggy, fixed = line.split()
        out[name] = (buggy, fixed)
    return out


def test_kernel_fingerprints_stable_across_interpreter_runs():
    """The regression the persistent cache rests on: digests survive
    fresh interpreters and adversarial hash seeds."""
    from repro.kernels import get_kernel

    local = {
        name: (
            program_fingerprint(get_kernel(name).buggy),
            program_fingerprint(get_kernel(name).fixed),
        )
        for name in PINNED_KERNELS
    }
    for seed in ("0", "1", "424242"):
        assert _fingerprints_in_subprocess(seed) == local, (
            f"program fingerprints drifted under PYTHONHASHSEED={seed}"
        )


def _make_counter(increment_by: int = 1, initial: int = 0) -> Program:
    def inc():
        value = yield Read("counter")
        yield Write("counter", value + increment_by)

    return Program(
        "counter", threads={"T1": inc, "T2": inc},
        initial={"counter": initial}, locks=["L"],
    )


def test_fingerprint_is_value_based_not_identity_based():
    assert program_fingerprint(_make_counter()) == program_fingerprint(
        _make_counter()
    )


def test_fingerprint_changes_with_body_edit():
    assert program_fingerprint(_make_counter(1)) != program_fingerprint(
        _make_counter(2)
    )


def test_fingerprint_changes_with_initial_value():
    assert program_fingerprint(_make_counter(initial=0)) != program_fingerprint(
        _make_counter(initial=7)
    )


def test_fingerprint_changes_with_declarations():
    base = _make_counter()
    extra_lock = Program(
        "counter", threads=dict(base.threads),
        initial=base.initial, locks=["L", "M"],
    )
    renamed = Program(
        "counter2", threads=dict(base.threads),
        initial=base.initial, locks=["L"],
    )
    fingerprints = {
        program_fingerprint(base),
        program_fingerprint(extra_lock),
        program_fingerprint(renamed),
    }
    assert len(fingerprints) == 3


def test_fingerprint_insensitive_to_closure_identity():
    """Two closures capturing equal values canonicalise equally."""
    first, second = _make_counter(5), _make_counter(5)
    assert first.threads["T1"] is not second.threads["T1"]
    assert program_fingerprint(first) == program_fingerprint(second)


class _Opaque:
    """Unpicklable and without __repr__: canonicalisation falls back to
    the default repr, which embeds the instance address."""

    def __reduce__(self):
        raise TypeError("deliberately unpicklable")


def test_stable_canonicalisation_scrubs_addresses():
    a, b = canonical_value(_Opaque(), stable=True), canonical_value(
        _Opaque(), stable=True
    )
    assert a == b
    assert "0x7" not in repr(a)
    # The default (in-process memoization) mode keeps instances distinct:
    # an address-bearing repr must degrade to a miss, never a false hit.
    assert canonical_value(_Opaque()) != canonical_value(_Opaque())


def test_fingerprint_digest_deterministic():
    fp = ("a", (1, 2), b"bytes", 3.5, None)
    assert fingerprint_digest(fp) == fingerprint_digest(fp)
    assert len(fingerprint_digest(fp)) == 64
    assert fingerprint_digest(fp) != fingerprint_digest(fp + ("x",))


def test_kernel_fingerprints_survive_a_full_search():
    """The digest is remembered per Program object, which is sound only
    if running a program never changes its content: no thread body may
    rebind a closure cell or a default.  An uncached digest after a
    complete search must equal the one before it, for every kernel."""
    from repro.kernels import get_kernel, kernel_names
    from repro.sim import enumerate_outcomes
    from repro.sim.statecache import _program_digest

    for name in kernel_names():
        kernel = get_kernel(name)
        for program in (kernel.buggy, kernel.fixed):
            before = _program_digest(program)
            assert enumerate_outcomes(program).complete, program.name
            assert _program_digest(program) == before, program.name
            assert program_fingerprint(program) == before


def test_fingerprint_is_computed_once_per_program(monkeypatch):
    from repro.sim import statecache

    digested = []

    def counting(program):
        digested.append(program)
        return original(program)

    original = statecache._program_digest
    monkeypatch.setattr(statecache, "_program_digest", counting)
    first, second = _make_counter(), _make_counter()
    for _ in range(3):
        assert program_fingerprint(first) == program_fingerprint(second)
    assert digested == [first, second]


def test_remembered_digest_does_not_keep_the_program_alive():
    import gc
    import weakref

    program = _make_counter()
    program_fingerprint(program)
    alive = weakref.ref(program)
    del program
    gc.collect()
    assert alive() is None
