"""The mutant list of ``_mutants.py`` still applies to the tree it checks."""

import os

import _mutants


def _read(path):
    with open(os.path.join(_mutants.ROOT, path), encoding="utf-8") as fh:
        return fh.read()


def test_each_mutant_applies_once_and_names_its_tests_or_its_reason():
    assert len({m.name for m in _mutants.MUTANTS}) == len(_mutants.MUTANTS)
    for mutant in _mutants.MUTANTS:
        assert _read(mutant.path).count(mutant.old) == 1, mutant.name
        assert bool(mutant.tests) != bool(mutant.equivalent), mutant.name
        for test in mutant.tests:
            path, name = test.split("::")
            assert f"\ndef {name.split('[')[0]}(" in _read(path), (mutant.name, test)
