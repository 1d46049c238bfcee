"""The mutant catalogue: each entry breaks one check of src/syntomic, and
every test named as its killer must then fail.

    python tests/mutants.py

The harness copies src/, tests/ and pyproject.toml into a temporary
directory and runs pytest there.  It first runs every killer on an
unmutated copy in one pytest process and exits 2, with pytest's own
summary naming the culprit, if one fails there, since such a killer would
count every mutant it guards as killed.  Then, for each mutant, it replaces
the old snippet by the new one in a fresh copy and runs all the mutant's
killers in one `python -m pytest -q -rA` subprocess, one mutant at a time.
Each killer's own verdict is read off pytest's -rA summary: it kills when
one of its test items fails or errors.  A killer that passes lets the
mutant survive; the run prints every verdict and exits 1 if any mutant
survived.  Standard library only.

The tier-1 suite runs the drift check in tests/test_mutants.py (each old
snippet occurs exactly once in its file, and each killer names a test that
exists) and the two kills that fit its budget.  A mutant whose snippet no
longer exists is re-targeted, never dropped.

EQUIVALENT lists changes that alter no result the program reports, each
with its reason: some no test can kill, and some only a test that compares
the built square with a copy or with literals.  The harness does not run
them; the drift check keeps their snippets current, so that nobody
rediscovers them.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    ident: str
    file: str  # under src/syntomic/
    old: str  # occurs exactly once in file
    new: str
    killers: tuple[str, ...]  # pytest node ids, relative to the repo root


@dataclass(frozen=True)
class Equivalent:
    ident: str
    file: str  # under src/syntomic/
    old: str  # occurs exactly once in file
    new: str
    reason: str


_LINALG = "tests/test_linalg.py::"
ORACLE = _LINALG + "test_elimination_claims_hold_on_every_instantiation"
READER = _LINALG + "test_series_validation"
NO_ROW = _LINALG + "test_explicit_term_with_no_row_is_rejected"
TERM_ORDER = _LINALG + "test_term_order_carries_no_meaning"
NEVER_WRITES = _LINALG + "test_the_eliminator_never_writes_into_the_callers_columns"
RULE = _LINALG + "test_minus_multiple_of_a_ratio_is_the_reference_composition"
REFERENCE = _LINALG + "test_random_graded_matrices_match_the_reference"
WIDE_REFERENCE = _LINALG + "test_wide_random_graded_matrices_match_the_reference"
DENSE = _LINALG + "test_certified_rank_matches_dense_rank_on_known_matrices"
CUT_WINDOW = "tests/test_zp.py::test_a_window_cut_by_one_is_refused_or_changes_nothing"
PIVOTS_ONCE = _LINALG + "test_a_pivot_column_stays_listed_and_never_pivots_again"
TAIL_AT_TOP = _LINALG + "test_a_tail_from_the_highest_free_degree_blocks"
NOT_COMBINED = (
    _LINALG + "test_a_pivot_column_reached_by_a_later_tail_prefix_is_not_combined"
)
LOWER_ROW = (
    _LINALG + "test_a_lower_row_after_a_higher_one_reduces_only_the_tails_it_reaches"
)
RECORDS = _LINALG + "test_result_records_keep_their_shape"
_IMPORTS = "tests/test_imports.py::"
STARTUP = _IMPORTS + "test_the_cli_starts_without_dataclasses_or_inspect"
UNUSED_IMPORT = _IMPORTS + "test_every_imported_name_is_used"
_ZP = "tests/test_zp.py::"
DUPLICATED_NAME = _ZP + "test_a_duplicated_named_class_is_refused"
BEYOND_NO_ROW = _ZP + "test_truncation_rejects_a_beyond_term_with_no_row"
TAIL_AT_LEAD = (
    _ZP + "test_a_leading_term_that_is_not_minimal_is_refused_where_it_is_read"
)
MALFORMED = _ZP + "test_both_readers_of_a_square_refuse_a_malformed_column_alike"
CROSS_CHECK = "tests/test_cli.py::test_failed_cross_check_exits_two"
PRODUCER_CHECKS = "tests/test_zpn.py::test_every_producer_check_can_fail"
CRITERION_1 = "tests/test_acceptance.py::test_criterion_1_base_ring_weight_tables"
CRITERION_4 = "tests/test_acceptance.py::test_criterion_4_k_group_vanishing_tables"
CRITERION_5 = "tests/test_acceptance.py::test_criterion_5_torsion_tower_order"
CRITERION_7 = "tests/test_acceptance.py::test_criterion_7_property_suites"
PAST_THE_GRID = (
    _ZP + "test_generators_are_the_certified_witnesses_past_the_acceptance_grid"
)
WINDOWED_REFERENCE = _ZP + "test_builder_matches_the_windowed_reference"
EXACT_ZERO = _ZP + "test_exact_zero_columns"
REMAINDER_STARTS = (
    _ZP + "test_each_unknown_remainder_starts_right_above_its_exact_terms"
)
KNOWN_IDENTITY = _ZP + "test_known_square_identity_on_grid"
MOD_V1_VERTICAL = _ZP + "test_mod_v1_vertical_is_cut_at_the_top_right_window"
MARGIN_DIMS = _ZP + "test_dims_stable_under_extra_margin"
MARGIN_MATCHING = _ZP + "test_generator_matching_runs_at_every_margin"
IN_SPAN = _ZP + "test_in_span_partners"
CLOSED_FORM = _ZP + "test_certified_dims_match_closed_form"
MOD_V1_DIMS = _ZP + "test_mod_v1_dims"
SAMPLED = _ZP + "test_certified_dims_are_instantiation_invariant"
SHIFT_SQUARES = (
    _ZP + "test_the_bott_shift_carries_each_square_into_the_next_bott_weight"
)
SHIFT_CLASSES = _ZP + "test_the_bott_shift_splits_the_certified_classes"
_KTHEORY = "tests/test_ktheory.py::"
BOTT_TOWER = _KTHEORY + "test_nonzero_set_matches_bott_tower"
H2_LITERALS = _KTHEORY + "test_h2_name_literals"
ROW_NOTES = _KTHEORY + "test_row_notes_name_the_named_basis_class"
H2_WHERE_CERTIFIED = _KTHEORY + "test_h2_name_exactly_where_h2_is_certified"
ROW_AXIOMS = _KTHEORY + "test_row_reasons_and_axiom_tags"
BOUND_VALUES = _KTHEORY + "test_bound_comparison_values"
RATIONAL_CEILING = _KTHEORY + "test_prior_bound_is_the_rational_ceiling"
NOTES_GOLDEN = "tests/test_cli.py::test_ktable_notes_golden"
_VERIFIER = "tests/test_verifier.py::"
NONZERO_CONSTANTS = _VERIFIER + "test_instantiated_units_have_nonzero_constants"
RANDRANGE_DRAWS = _VERIFIER + "test_unit_draws_are_the_randrange_draws"
DEGENERATE = _VERIFIER + "test_degenerate_case_is_vacuously_members"
PEEL_SCAN = _VERIFIER + "test_peel_matches_the_reference_scan"
HAND_BUILT = _VERIFIER + "test_peel_against_the_reference_on_hand_built_maps"
# standard_cutoffs' window of weight i, and the flag that moves one corner's
# top by one above weight 3p
_WINDOW = "    return WindowCutoffs(tl=left, tr=top, bl=left, br=top)\n"
_CUT = "    cut = i > 3 * p\n"
# certified_eliminate's one branch for a row that gets no pivot
_FREE_ROW = "        if pivot_col is None:  # no candidate, or none certainly nonzero\n"

MUTANTS = (
    Mutant(
        "pivot-test-accepts-unknown",
        "linalg.py",
        "    return s != 0 and s != UNKNOWN_ENTRY\n",
        "    return s != 0\n",
        (ORACLE, RULE, REFERENCE),
    ),
    Mutant(
        "symbolic-fallback-keeps-a",
        "linalg.py",
        "        return UNIT_ENTRY\n    return UNKNOWN_ENTRY\n",
        "        return UNIT_ENTRY\n    return a\n",
        (ORACLE, RULE, REFERENCE),
    ),
    Mutant(
        "minus-multiple-adds",
        "linalg.py",
        "        return (a - c * b) % p\n",
        "        return (a + c * b) % p\n",
        (ORACLE, RULE, REFERENCE, DENSE),
    ),
    # a certainly nonzero multiple subtracted from an exact zero is a unit,
    # not an unknown; no builder square combines two columns, so only the
    # eliminator's own tests see it
    Mutant(
        "minus-multiple-of-units-is-unknown",
        "linalg.py",
        "    if a == 0 and certainly_nonzero(c) and certainly_nonzero(b):\n"
        "        return UNIT_ENTRY\n",
        "    if a == 0 and certainly_nonzero(c) and certainly_nonzero(b):\n"
        "        return UNKNOWN_ENTRY\n",
        (RULE, REFERENCE, WIDE_REFERENCE),
    ),
    Mutant(
        "ratio-of-unknown-is-unit",
        "linalg.py",
        "return e  # a symbol",
        "return UNIT_ENTRY if e else e  # a symbol",
        (ORACLE, RULE, REFERENCE),
    ),
    Mutant(
        "tail-merge-keeps-the-larger",
        "linalg.py",
        "merged[tag] = min(start, merged.get(tag, start))",
        "merged[tag] = max(start, merged.get(tag, start))",
        (ORACLE, REFERENCE, WIDE_REFERENCE),
    ),
    Mutant(
        "pivot-scan-takes-pivoted",
        "linalg.py",
        "            if j in done:\n                continue\n            targets.append(j)\n",
        "            targets.append(j)\n",
        (PIVOTS_ONCE, REFERENCE, WIDE_REFERENCE),
    ),
    # a row left without a pivot, with no candidate or with candidates of
    # which none is certainly nonzero, must count as free for the kernel test;
    # one branch records both, and each mutant skips it for one kind of row
    Mutant(
        "free-row-without-candidates-unrecorded",
        "linalg.py",
        _FREE_ROW,
        _FREE_ROW + "            if not targets:\n                continue\n",
        (ORACLE, REFERENCE, WIDE_REFERENCE),
    ),
    Mutant(
        "free-row-without-pivot-unrecorded",
        "linalg.py",
        _FREE_ROW,
        _FREE_ROW + "            if targets:\n                continue\n",
        (ORACLE, REFERENCE, WIDE_REFERENCE),
    ),
    Mutant(
        "kernel-tail-test-strict",
        "linalg.py",
        "start <= top_free.get(tag, -inf)",
        "start < top_free.get(tag, -inf)",
        (TAIL_AT_TOP, ORACLE, REFERENCE),
    ),
    # a pivot column popped off a tail list is put back and reduced
    Mutant(
        "tail-prune-keeps-pivoted",
        "linalg.py",
        "                if -key[1] not in done:\n"
        "                    reached.append(key)\n",
        "                reached.append(key)\n",
        (NOT_COMBINED,),
    ),
    # a pivot row pops every tail of its corner, reached or not
    Mutant(
        "tail-pop-without-the-degree-test",
        "linalg.py",
        "while tail_list and tail_list[-1][0] >= low:",
        "while tail_list:",
        (LOWER_ROW, REFERENCE, WIDE_REFERENCE),
    ),
    # the one reader: a term on no row is listed under a new row, a term
    # inside its tail is kept, and the entry 0 passes as a residue
    Mutant(
        "reader-row-check-dropped",
        "linalg.py",
        "            here = at_row.get(r)\n"
        "            if here is None:\n"
        '                raise ValueError(f"explicit term at {r!r} has no row")\n',
        "            here = at_row.setdefault(r, [])\n",
        (READER, NO_ROW, BEYOND_NO_ROW),
    ),
    Mutant(
        "reader-tail-check-dropped",
        "linalg.py",
        "            if r[1] >= tails.get(r[0], inf):\n"
        '                raise ValueError(f"term at {r!r} is not below its tail")\n',
        "",
        (READER, TAIL_AT_LEAD),
    ),
    Mutant(
        "reader-accepts-entry-zero",
        "linalg.py",
        "0 < s < p if type(s) is int",
        "0 <= s < p if type(s) is int",
        (READER, MALFORMED),
    ),
    Mutant(
        "combined-written-into-callers-column",
        "linalg.py",
        "            work[j] = (combined, merged)\n",
        "            terms.clear()\n"
        "            terms.update(combined)\n"
        "            work[j] = (terms, merged)\n",
        (NEVER_WRITES,),
    ),
    Mutant(
        "truncation-lead-is-first-term",
        "linalg.py",
        "lead = min((d for t, d in terms if t == tag), default=None)",
        "lead = next((d for t, d in terms if t == tag), None)",
        (TERM_ORDER,),
    ),
    # without the _make override, _replace builds a Monomial unvalidated
    Mutant(
        "monomial-replace-unvalidated",
        "arith.py",
        "    @classmethod\n"
        "    def _make(cls, iterable) -> Monomial:\n"
        "        return cls(*iterable)\n",
        "",
        (RECORDS,),
    ),
    # a record module that imports dataclasses again loads inspect at start-up
    Mutant(
        "dataclasses-imported-again",
        "linalg.py",
        "from bisect import bisect_left, insort\n",
        "from bisect import bisect_left, insort\nfrom dataclasses import dataclass\n",
        (STARTUP, UNUSED_IMPORT),
    ),
    Mutant(
        "witness-check-skipped",
        "zp.py",
        "    if named != found or len(names) != sum(rep.dims):\n",
        "    if False:\n",
        (CUT_WINDOW,),
    ),
    Mutant(
        "witness-count-unchecked",
        "zp.py",
        "    if named != found or len(names) != sum(rep.dims):\n",
        "    if named != found:\n",
        (DUPLICATED_NAME,),
    ),
    Mutant(
        "cli-cross-check-exits-one",
        "cli.py",
        '        sys.stderr.write(f"error: {exc}\\n")\n        return 2\n',
        '        sys.stderr.write(f"error: {exc}\\n")\n        return 1\n',
        (CROSS_CHECK,),
    ),
    Mutant(
        "producer-link-unchecked",
        "zpn.py",
        "if w.can_image != prev.phi_image:",
        "if False:",
        (PRODUCER_CHECKS,),
    ),
    Mutant(
        "sample-cross-check-skipped",
        "verifier.py",
        "if dense != ok:",
        "if False:",
        (CROSS_CHECK,),
    ),
    Mutant(
        "draw-zero-constant",
        "verifier.py",
        "series = [(0, 1 + r)]",
        "series = [(0, r)]",
        (NONZERO_CONSTANTS, RANDRANGE_DRAWS, DEGENERATE),
    ),
    Mutant(
        "peel-last-level-floor-unchecked",
        "verifier.py",
        "        if level and min(level) < floor:\n",
        "        if level and min(level) < floor and j < n - 1:\n",
        (HAND_BUILT,),
    ),
    Mutant(
        "peel-drops-the-constant",
        "verifier.py",
        "        series = units[j]\n",
        "        series = units[j][1:]\n",
        (PEEL_SCAN, HAND_BUILT),
    ),
    Mutant(
        "peel-truncation-inclusive",
        "verifier.py",
        "if pos < limit:",
        "if pos <= limit:",
        (PEEL_SCAN, HAND_BUILT),
    ),
    Mutant(
        "tr-window-cut-above-3p",
        "zp.py",
        _WINDOW,
        _CUT + "    return WindowCutoffs(tl=left, tr=top - cut, bl=left, br=top)\n",
        (CUT_WINDOW, PAST_THE_GRID, H2_WHERE_CERTIFIED),
    ),
    Mutant(
        "br-window-cut-above-3p",
        "zp.py",
        _WINDOW,
        _CUT + "    return WindowCutoffs(tl=left, tr=top, bl=left, br=top - cut)\n",
        (CUT_WINDOW, PAST_THE_GRID, H2_WHERE_CERTIFIED),
    ),
    Mutant(
        "bl-window-cut-above-3p",
        "zp.py",
        _WINDOW,
        _CUT + "    return WindowCutoffs(tl=left, tr=top, bl=left - cut, br=top)\n",
        (CUT_WINDOW, PAST_THE_GRID, H2_WHERE_CERTIFIED, WINDOWED_REFERENCE),
    ),
    # the builder's columns: each tail starts one degree later, an exact-zero
    # column gets a tail, and one in-span entry is dropped or added
    Mutant(
        "nabla-top-tail-one-later",
        "zp.py",
        "{TR: d} if d <= window.tr else {}",
        "{TR: d + 1} if d <= window.tr else {}",
        (MOD_V1_VERTICAL, KNOWN_IDENTITY, CRITERION_7, WINDOWED_REFERENCE, EXACT_ZERO),
    ),
    Mutant(
        "v-right-tail-one-later",
        "zp.py",
        "{BR: phi + 1} if phi < window.br else {}",
        "{BR: phi + 2} if phi < window.br else {}",
        (
            KNOWN_IDENTITY, NEVER_WRITES, CRITERION_7, WINDOWED_REFERENCE,
            REMAINDER_STARTS,
        ),
    ),
    # this one certifies the same classes and commutes with the Bott shift:
    # only the tail starts read off the basis monomials, the copied
    # reference builder and the literals see it
    Mutant(
        "nabla-bot-tail-one-later",
        "zp.py",
        "{BR: m + 1} if m < window.br else {}",
        "{BR: m + 2} if m < window.br else {}",
        (REMAINDER_STARTS, WINDOWED_REFERENCE, EXACT_ZERO),
    ),
    Mutant(
        "exact-zero-tl-column-gets-a-tail",
        "zp.py",
        "            d0[TL, d] = ({}, {})\n",
        "            d0[TL, d] = ({}, {TR: d} if d <= window.tr else {})\n",
        (MARGIN_DIMS, MARGIN_MATCHING, CRITERION_7, WINDOWED_REFERENCE),
    ),
    Mutant(
        "in-span-entry-dropped",
        "zp.py",
        "            bl_in_span[key] = (TL, k + i)\n",
        "            if k != 1:\n                bl_in_span[key] = (TL, k + i)\n",
        (IN_SPAN, CLOSED_FORM, SAMPLED, SHIFT_SQUARES, SHIFT_CLASSES, CRITERION_1),
    ),
    Mutant(
        "in-span-entry-added-off-p",
        "zp.py",
        "        if m % p == 0:\n",
        "        if m % p == 0 or m == 1:\n",
        (IN_SPAN, CLOSED_FORM, MOD_V1_DIMS, SAMPLED, SHIFT_SQUARES, CRITERION_1),
    ),
    Mutant(
        "ktable-cut-one-bott-step-high",
        "ktheory.py",
        'i <= cert["weight"]',
        'i <= cert["weight"] + p - 1',
        (CRITERION_4, CRITERION_5, BOTT_TOWER),
    ),
    Mutant(
        "ktable-axioms-not-read-off-rows",
        "ktheory.py",
        "axiom_catalog({a for r in rows for a in r.axioms})",
        "axiom_catalog(set())",
        (ROW_AXIOMS, NOTES_GOLDEN),
    ),
    Mutant(
        "prior-bound-floored",
        "ktheory.py",
        "prior = -(-p * p * (p**n - 1) // (p - 1) ** 2) + 1",
        "prior = p * p * (p**n - 1) // (p - 1) ** 2 + 1",
        (RATIONAL_CEILING, BOUND_VALUES),
    ),
    # criterion 5 cannot kill this one: its expected names come from h2_name
    Mutant(
        "h2-name-bott-power-high",
        "zp.py",
        '_named((w - p) // (p - 1), "del*lambda1")',
        '_named((w - p) // (p - 1) + 1, "del*lambda1")',
        (H2_LITERALS, ROW_NOTES),
    ),
)


# the reason of each builder mutant that only changes a nonzero residue
_NO_RESIDUE_VALUE = (
    "certification reads no residue value: with every explicit residue of a "
    "square replaced by UNIT_ENTRY, test_certification_reads_no_residue_value "
    "finds the same report and witnesses on 1428 squares, so a wrong nonzero "
    "residue changes no certified claim; only the copied reference builder "
    "and the literals of test_exact_zero_columns see it"
)

EQUIVALENT = (
    Equivalent(
        "verifier-chain-links-unchecked",
        "verifier.py",
        '                can["z_pow"] + n == target and can["f_index"] == 0,\n'
        '                "target does not reduce to the step-0 can image '
        'via f_0 = z^n",\n'
        "            )\n"
        "        else:\n"
        "            check(\n"
        '                f"{tag}_link",\n'
        '                can["z_pow"] == prev_phi_z '
        'and can["f_index"] == prev_phi_f,\n',
        "                True,\n"
        '                "target does not reduce to the step-0 can image '
        'via f_0 = z^n",\n'
        "            )\n"
        "        else:\n"
        "            check(\n"
        '                f"{tag}_link",\n'
        "                True,\n",
        "each step's can and phi images are pinned by closed forms in (p, n, j) "
        "and the step indices must be consecutive, so a certificate that "
        "passes the other checks has can_j = phi_(j-1) = "
        "z^(p^(n-1) - (n-j)p^j) f_j, and the target link likewise",
    ),
    Equivalent(
        "tl-and-bl-windows-one-wider-above-3p",
        "zp.py",
        _WINDOW,
        "    wide = i > 3 * p\n"
        "    return WindowCutoffs(tl=left + wide, tr=top, bl=left + wide, br=top)\n",
        "the window is stable: the new TL column's one exact unit term pivots "
        "on the new BL row, and the new BL element, zero under d1 beyond the "
        "window, is that column's boundary, so every certified dimension, "
        "witness and named generator is unchanged; at i <= 3p the corner-size "
        "and truncation tests pin the window, so only i > 3p is listed",
    ),
    Equivalent(
        "nabla-bot-coefficient-one",
        "zp.py",
        "{br_row[m]: m % p}",
        "{br_row[m]: 1}",
        _NO_RESIDUE_VALUE,
    ),
    Equivalent(
        "phi-term-plus-one",
        "zp.py",
        "    minus_one = p - 1\n",
        "    minus_one = 1\n",
        _NO_RESIDUE_VALUE,
    ),
)


def tree_copy(dest: Path, mutant: Mutant | None = None) -> None:
    """src/, tests/ and pyproject.toml under dest, with the mutant applied."""
    for name in ("src", "tests"):
        shutil.copytree(
            ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__")
        )
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")
    if mutant is None:
        return
    target = dest / "src" / "syntomic" / mutant.file
    text = target.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.ident}: old snippet does not occur exactly once")
    target.write_text(text.replace(mutant.old, mutant.new))


def pytest_run(copy: Path, *args: str) -> subprocess.CompletedProcess:
    """One quiet pytest process in the copy, its output captured."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
        cwd=copy,
        env={**os.environ, "PYTHONPATH": str(copy / "src")},
        capture_output=True,
        text=True,
    )


def verdicts(copy: Path, killers: tuple[str, ...]) -> dict[str, bool]:
    """Whether each killer fails on the copy, from one pytest run."""
    run = pytest_run(copy, "-rA", *killers)
    if run.returncode not in (0, 1):  # 2+: interrupted, usage or collection error
        raise RuntimeError(f"{' '.join(killers)}: pytest exited {run.returncode}")
    outcomes: dict[str, set[str]] = {}
    for line in run.stdout.splitlines():  # "PASSED <node id>", "FAILED <id> - ..."
        outcome, _, rest = line.partition(" ")
        if outcome in ("PASSED", "FAILED", "ERROR"):
            node = rest.split(" - ", 1)[0].split("[", 1)[0]
            outcomes.setdefault(node, set()).add(outcome)
    unseen = [k for k in killers if k not in outcomes]
    if unseen:
        raise RuntimeError(f"no verdict for {', '.join(unseen)}")
    return {k: outcomes[k] != {"PASSED"} for k in killers}


def main() -> int:
    killers = sorted({k for m in MUTANTS for k in m.killers})
    with tempfile.TemporaryDirectory(prefix="syntomic-unmutated-") as tmp:
        tree_copy(Path(tmp))
        run = pytest_run(Path(tmp), *killers)
    if run.returncode:
        # a killer failing here would count every mutant it guards as killed;
        # pytest's own summary names it
        sys.stderr.write(run.stdout + run.stderr)
        return 2
    survivors = []
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory(prefix="syntomic-mutant-") as tmp:
            copy = Path(tmp)
            tree_copy(copy, mutant)
            start = time.perf_counter()
            killed = verdicts(copy, mutant.killers)
            took = time.perf_counter() - start
        for killer in mutant.killers:
            verdict = "killed" if killed[killer] else "SURVIVED"
            print(f"{mutant.ident}: {verdict} by {killer}")
            if not killed[killer]:
                survivors.append((mutant.ident, killer))
        print(f"{mutant.ident}: {len(killed)} killers in one run ({took:.1f} s)")
    print(f"{len(MUTANTS)} mutants, {len(survivors)} survivals")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
