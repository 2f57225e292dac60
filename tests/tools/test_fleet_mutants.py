"""The fleet audit's table, static half: every mutant still applies to the
tree exactly once, and every test it names exists.  The half that runs
each mutant against its test is ``python tests/tools/fleet_mutants.py
--check``."""

import ast

import pytest

from tests.tools import fleet_mutants


@pytest.mark.parametrize("mutant", fleet_mutants.MUTANTS, ids=lambda m: m.policy)
def test_the_mutant_applies_exactly_once(mutant):
    fleet_mutants.mutated(mutant, fleet_mutants.ROOT / "src")  # raises unless once


def test_every_named_test_exists():
    missing = []
    for mutant in fleet_mutants.MUTANTS:
        path, *names = mutant.test.split("::")
        scope = ast.parse((fleet_mutants.ROOT / path).read_text())
        for name in names:
            scope = next((node for node in scope.body
                          if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                          and node.name == name.split("[")[0]), None)
            if scope is None:
                missing.append(mutant.test)
                break
    assert missing == []


def test_one_mutant_per_policy():
    policies = [mutant.policy for mutant in fleet_mutants.MUTANTS]
    assert len(set(policies)) == len(policies)
