"""Drift check of the mutant catalogue (tests/mutants.py): every mutant and
every listed equivalent still applies to the code as it is, and every
killer names a test that exists.  The mutants whose first killer is
fastest are also run here; `python tests/mutants.py` runs the whole
catalogue."""

import re

import pytest

from mutants import EQUIVALENT, MUTANTS, ROOT, tree_copy, verdicts


def test_mutant_ids_are_distinct():
    idents = [m.ident for m in MUTANTS + EQUIVALENT]
    assert len(set(idents)) == len(idents)


@pytest.mark.parametrize("mutant", MUTANTS + EQUIVALENT, ids=lambda m: m.ident)
def test_each_old_snippet_occurs_exactly_once(mutant):
    text = (ROOT / "src" / "syntomic" / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.ident)
def test_each_killer_is_a_test_of_the_suite(mutant):
    assert mutant.killers
    for killer in mutant.killers:
        path, name = killer.split("::")
        text = (ROOT / path).read_text()
        assert re.search(rf"^def {name}\(", text, re.MULTILINE), killer


# each kill is one pytest subprocess of about 2 s, so only these two fit in
# the suite's budget; their killers are tier-1 tests, so no unmutated run
IN_BUDGET = ("draw-zero-constant", "peel-last-level-floor-unchecked")


@pytest.mark.parametrize("ident", IN_BUDGET)
def test_in_budget_mutants_are_killed(ident, tmp_path):
    (mutant,) = [m for m in MUTANTS if m.ident == ident]
    tree_copy(tmp_path, mutant)
    killer = mutant.killers[0]
    assert verdicts(tmp_path, (killer,)) == {killer: True}
