"""Shared fixtures for the tier-1 suite."""

import pytest

from repro.simcluster.kernel import Simulator


def _always_due(self) -> bool:
    return True


@pytest.fixture
def fold_oracle():
    """``fold_oracle(run)`` returns ``(run(), run())``: the first with
    folded CPU completions, the second under the *unfolded oracle*,
    which patches :meth:`Simulator.due_now` to always answer "something
    else is due" and so restores the posted-event stream of the
    scheduler without folding (see ``tests/test_fold_equivalence.py``).
    """
    def both(run):
        folded = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Simulator, "due_now", _always_due)
            unfolded = run()
        return folded, unfolded
    return both
