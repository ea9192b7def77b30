"""Verdict objects shared by the verifier suites."""

from __future__ import annotations

from collections import namedtuple

PASS = "PASS"
FAIL = "FAIL"
PASS_UP_TO_TRUNCATION = "PASS-UP-TO-TRUNCATION"


class Verdict(namedtuple("Verdict", "name status checked skipped witness notes",
                         defaults=(0, 0, None, ()))):
    """Outcome of one axiom/property check.

    ``checked`` counts identities verified exactly; ``skipped`` counts
    identities whose target weight fell outside the truncation window and
    could not be decided.  A FAIL always carries a reproducible witness
    dict; any other verdict carries None.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.status != FAIL

    @staticmethod
    def decide(name: str, checked: int, skipped: int, witness: dict | None = None,
               notes: tuple = ()) -> "Verdict":
        if witness is not None:
            status = FAIL
        elif skipped:
            status = PASS_UP_TO_TRUNCATION
        else:
            status = PASS
        return Verdict(name, status, checked, skipped, witness, notes)

    @staticmethod
    def tally(name: str, outcomes) -> "Verdict":
        """The verdict of a check's identities, read in order: True is one
        checked exactly, an int k >= 0 counts k skipped beyond the truncation
        window (a run, ``WeightedRing.targets``), and a dict is a witness: a
        FAIL that ends the check at once, so the counts are those before it.
        Any other outcome raises TypeError."""
        checked = skipped = 0
        witness = None
        for outcome in outcomes:
            if outcome is True:
                checked += 1
            elif type(outcome) is int and outcome >= 0:
                skipped += outcome
            elif isinstance(outcome, dict):
                witness = outcome
                break
            else:
                raise TypeError(f"{name}: unknown outcome {outcome!r}")
        return Verdict.decide(name, checked, skipped, witness)

    @staticmethod
    def merge(name: str, verdicts) -> "Verdict":
        """One verdict over several checks, read in order: the counts add up
        and the first part with a witness ends the merge, so a FAIL counts
        the identities before its witness, as in ``tally``.  The parts' notes
        (a per-call seed, a trivial degree) are dropped."""
        checked = skipped = 0
        for v in verdicts:
            checked, skipped = checked + v.checked, skipped + v.skipped
            if v.witness is not None:
                return Verdict.decide(name, checked, skipped, v.witness)
        return Verdict.decide(name, checked, skipped)

    def to_dict(self) -> dict:
        return {
            "axiom": self.name,
            "status": self.status,
            "checked": self.checked,
            "skipped_beyond_truncation": self.skipped,
            "witness": self.witness,
            "notes": list(self.notes),
        }

    def describe(self) -> str:
        msg = f"{self.name}: {self.status} (checked {self.checked}, skipped {self.skipped})"
        if self.witness is not None:
            msg += f" witness={self.witness}"
        return msg
