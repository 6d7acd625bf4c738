"""The mutation sweep in ``tests/mutants.py`` stays current: each entry's
old text occurs exactly once in its file, and its new text differs, so a
rewrite of a hot path that leaves an entry behind fails here rather than
when the sweep is next run."""
import os

import pytest

import mutants


def test_names_are_distinct():
    names = [m[0] for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("entry", mutants.MUTANTS, ids=[m[0] for m in mutants.MUTANTS])
def test_entry_applies(entry):
    _, path, old, new, _, _ = entry
    with open(os.path.join(mutants.ROOT, path), encoding="utf-8") as fh:
        text = fh.read()
    assert text.count(old) == 1
    assert new != old
