import pytest

from psibench.verdicts import FAIL, PASS, PASS_UP_TO_TRUNCATION, Verdict


def test_tally_counts_checked_and_skipped_in_order():
    v = Verdict.tally("t", [True, 1, True, 1, 1])
    assert (v.status, v.checked, v.skipped, v.witness) == (PASS_UP_TO_TRUNCATION, 2, 3, None)
    assert v.name == "t" and v.notes == ()


def test_tally_pass_needs_no_skipped_outcome():
    assert Verdict.tally("t", [True, True]).status == PASS
    empty = Verdict.tally("t", ())
    assert (empty.status, empty.checked, empty.skipped) == (PASS, 0, 0)


def test_tally_fails_with_the_counts_before_the_first_witness():
    v = Verdict.tally("t", [True, 1, True, {"i": 1}, True, {"i": 2}])
    assert (v.status, v.checked, v.skipped, v.witness) == (FAIL, 2, 1, {"i": 1})
    assert v == Verdict.decide("t", 2, 1, {"i": 1})


def test_tally_draws_no_outcome_after_a_witness():
    drawn = []

    def outcomes():
        for outcome in (True, 1, {"i": 0}):
            drawn.append(outcome)
            yield outcome
        raise AssertionError("an outcome was drawn after the witness")

    v = Verdict.tally("t", outcomes())
    assert v.witness == {"i": 0} and (v.checked, v.skipped) == (1, 1)
    assert drawn == [True, 1, {"i": 0}]


def test_tally_counts_a_run_of_skips_before_a_witness():
    v = Verdict.tally("t", [True, 0, True, 5, True, {"i": 3}, 7])
    assert (v.status, v.checked, v.skipped, v.witness) == (FAIL, 3, 5, {"i": 3})
    assert Verdict.tally("t", [True, 0, True, 0]).status == PASS


@pytest.mark.parametrize("stray", [None, False, -1, 1.0, "skip", (), object()])
def test_tally_rejects_an_outcome_it_does_not_know(stray):
    # taken as a witness, a stray None would end the count early with a PASS
    with pytest.raises(TypeError, match="unknown outcome"):
        Verdict.tally("t", [True, 2, stray, {"i": 0}])


def test_merge_stops_at_the_first_witness():
    drawn = []

    def parts():
        for part in (Verdict.decide("a", 3, 1), Verdict.decide("b", 2, 0, {"i": 1}),
                     Verdict.decide("c", 5, 0, {"i": 2})):
            drawn.append(part.name)
            yield part
        raise AssertionError("a part was drawn after the witness")

    v = Verdict.merge("m", parts())
    assert (v.name, v.status, v.checked, v.skipped, v.witness) == ("m", FAIL, 5, 1, {"i": 1})
    assert drawn == ["a", "b"]


def test_merge_without_a_witness_adds_every_part():
    v = Verdict.merge("m", [Verdict.decide("a", 3, 1), Verdict.decide("b", 2, 0)])
    assert (v.status, v.checked, v.skipped) == (PASS_UP_TO_TRUNCATION, 5, 1)
    assert Verdict.merge("m", []).status == PASS
