"""Static-vs-dynamic agreement over the full kernel corpus.

The soundness contract of the static layer, checked kernel by kernel:
every race, atomicity violation, order violation, and deadlock the
dynamic pipeline confirms on a buggy kernel must already be in the
static candidate set — found with zero explored schedules.  The reverse
direction (static candidates exploration never confirms) is *allowed*
imprecision; the cases where it happens are pinned below so a regression
in either direction fails loudly.
"""

import pytest

from repro.detectors import DetectorSuite
from repro.static import analyse
from repro.kernels import all_kernels, get_kernel

KERNELS = list(all_kernels())

#: Fixed/alternative kernel variants the static pass does NOT report
#: clean, each with the reason the imprecision is genuine and accepted.
#: Every other variant must analyse clean — additions here need a story.
KNOWN_RESIDUAL_VARIANTS = {
    # The condition-check fix tolerates the race instead of removing it:
    # the re-check makes the stale read harmless, but the unprotected
    # cross-thread write/read pair still exists and the lockset
    # abstraction (correctly) still sees it.
    ("atomicity_single_var", "fixed:condition-check"),
    # The code-switch fix reorders the send before the shutdown check but
    # adds no synchronisation (like most of the studied fixes), so the
    # now-benign race on the flag keeps its race and order candidates.
    ("actor_lost_message", "fixed:code-switch"),
    # Dekker's flag protocol is intentionally built from racy accesses;
    # the fence fix orders store *visibility*, which discharges the
    # weak-memory candidate but not the lockset abstraction's races.
    ("weakmem_store_buffer", "fixed:design-change"),
}


def comparison_for(kernel):
    suite = DetectorSuite.for_program(kernel.buggy)
    return suite.analyse_static(kernel.buggy, predicate=kernel.failure)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.name)
class TestSoundnessPerKernel:
    def test_every_confirmed_finding_statically_predicted(self, kernel):
        comparison = comparison_for(kernel)
        assert comparison.sound, (
            f"{kernel.name}: dynamically confirmed findings missed by the "
            f"static pass: {[f.summary() for f in comparison.missed]}"
        )

    def test_buggy_kernel_is_statically_flagged(self, kernel):
        report = analyse(kernel.buggy)
        assert not report.clean, (
            f"{kernel.name}: static analysis reported the buggy program clean"
        )

    def test_summaries_are_exact_not_fallback(self, kernel):
        # The kernel corpus is the precision benchmark; if extraction
        # starts falling back to the dynamic drive the analysis silently
        # weakens, so pin exactness.
        assert not analyse(kernel.buggy).approximate, kernel.name


class TestKnownImprecision:
    def test_fixed_variants_clean_except_annotated(self):
        residual = set()
        for kernel in KERNELS:
            variants = [(f"fixed:{kernel.fix_strategy.value}", kernel.fixed)]
            variants += [
                (f"alt:{strategy.value}", program)
                for strategy, program in kernel.alternative_fixes
            ]
            for label, program in variants:
                if not analyse(program).clean:
                    residual.add((kernel.name, label))
        assert residual == set(KNOWN_RESIDUAL_VARIANTS)

    def test_condition_check_residual_is_the_tolerated_race(self):
        kernel = get_kernel("atomicity_single_var")
        report = analyse(kernel.fixed)
        assert report.variables("data-race") == {"proc_info"}
        # ... and the dynamic oracle confirms the fix works anyway.
        assert kernel.verify_fixed(max_schedules=20000)


#: Fixed corpus modules (``examples/realworld``) that keep *candidates*
#: after the fix, each with the reason.  These fixes follow the study's
#: "tolerate the race" strategy — the lifted program verifies clean (no
#: crash/deadlock/hang on any schedule; that gate lives in
#: ``tests/static/test_pysource_corpus.py``) but the lockset abstraction
#: still, correctly, sees the unsynchronised pair.  Every other fixed
#: module must analyse clean — additions here need a story.
CORPUS_RESIDUAL_VARIANTS = {
    # The fix moves the flag re-check under the condvar lock, but
    # Condition.wait releases and reacquires the mutex, so the wait-loop
    # body spans two lock generations and the atomicity pass (correctly)
    # reports the split critical section.  Harmless: every arm re-checks.
    ("broken_condvar_fixed", "atomicity-violation", ("box.ready",)),
    # The fix always sends the sentinel instead of synchronising the
    # ``failed`` flag; the unprotected flag write/read pair survives
    # (tolerated race) along with its starts-as-False order candidate.
    ("queue_sentinel_fixed", "data-race", ("failed",)),
    ("queue_sentinel_fixed", "order-violation", ("failed",)),
    # The fix snapshots the handle and null-checks the snapshot — the
    # classic tolerate-style teardown fix — so the race on ``log``
    # remains; the dereference of a torn-down handle does not.
    ("teardown_use_fixed", "data-race", ("log",)),
}


class TestCorpusKnownImprecision:
    def test_fixed_corpus_residuals_are_exactly_the_pinned_set(self):
        from pathlib import Path

        from repro.static.pysource import load_corpus
        from repro.static.report import analyse_summary

        corpus = Path(__file__).resolve().parents[2] / "examples" / "realworld"
        residual = set()
        for module in load_corpus(corpus):
            if not module.is_fixed:
                continue
            for candidate in analyse_summary(module.summary).active():
                residual.add(
                    (module.name, candidate.kind, candidate.variables)
                )
        assert residual == set(CORPUS_RESIDUAL_VARIANTS)


class TestScopeBoundaries:
    def test_hang_and_lost_notification_out_of_scope(self):
        # The lost-wakeup kernel's dynamic report includes a HANG verdict
        # and a condvar-resource order finding; both are schedule-level
        # liveness statements the zero-schedule pass cannot phrase, and
        # analyse_static must file them as out of scope, not as misses.
        kernel = get_kernel("order_lost_wakeup")
        comparison = comparison_for(kernel)
        assert comparison.sound
        out = {f.kind.value for f in comparison.out_of_scope}
        assert "hang" in out
        assert len(comparison.out_of_scope) == 2
