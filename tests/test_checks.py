"""The reducer behind every report line: an "le" value is the largest error
of the report's comparisons, whose sides stay out of the wire format."""

import dataclasses

import numpy as np
import pytest

from loopsoup import checks
from loopsoup.checks import RunConfig

WIRE_KEYS = {"check", "statement", "inputs_digest", "value", "bound", "comparator", "outcome"}


@pytest.fixture(scope="module")
def verify_reports():
    return checks.run(checks.VERIFY, RunConfig())


@pytest.fixture(scope="module")
def mc_reports():
    return checks.run(checks.MC, RunConfig(samples=1000))


@pytest.fixture(params=["verify", "mc"])
def reports(request, verify_reports, mc_reports):
    return verify_reports if request.param == "verify" else mc_reports


class TestReducer:
    def test_le_value_is_largest_error_of_its_sides(self, reports):
        le = [rep for rep in reports if rep.comparator == "le"]
        assert le
        for rep in le:
            assert rep.sides, rep.check
            assert rep.value == max(c.error for c in rep.sides), rep.check

    def test_sampled_transforms_keep_their_sides(self, mc_reports):
        by_name = {rep.check: rep for rep in mc_reports}
        assert len(by_name["occupation-transform-mc"].sides) == 6
        assert len(by_name["squared-field-moments"].sides) == 4

    def test_p_values_have_no_sides(self, reports):
        for rep in reports:
            if rep.comparator == "gt":
                assert rep.sides == (), rep.check

    def test_sides_stay_off_the_wire_and_out_of_equality(self, reports):
        for rep in reports:
            assert set(rep.to_json_dict()) == WIRE_KEYS
            bare = dataclasses.replace(rep, sides=())
            assert bare == rep and hash(bare) == hash(rep)
            assert repr(bare) == repr(rep)
            assert bare.console_line() == rep.console_line()
            assert bare.to_json_dict() == rep.to_json_dict()


class TestTwoStateSides:
    # the fixture's closed forms: G = [[4/3, 2/3], [2/3, 4/3]], det(I - Q) = 3/4
    # and first-return weight F = 1/4 at either site
    G = np.array([[4 / 3, 2 / 3], [2 / 3, 4 / 3]])
    DET = 3 / 4
    F = 1 / 4

    @pytest.fixture
    def sides(self, verify_reports):
        return {rep.check: rep.sides for rep in verify_reports}

    def test_greens_renewal(self, sides):
        renewal = sides["two-state-greens-renewal"]
        assert len(renewal) == 2
        for x, c in enumerate(renewal):
            assert c.lhs == pytest.approx(self.G[x, x] * (1 - self.F), rel=1e-12)
            assert c.rhs == pytest.approx(1.0, rel=1e-12)

    def test_det_product_orderings(self, sides):
        orderings = sides["two-state-det-product-orderings"]
        assert len(orderings) == 4
        for c in orderings:
            # G(x, x) times the Green's function left on y once x is peeled
            peeled = self.G[0, 0] * (self.G[1, 1] - self.G[0, 1] ** 2 / self.G[0, 0])
            assert c.lhs == pytest.approx(peeled, rel=1e-12)
            assert c.rhs == pytest.approx(1 / self.DET, rel=1e-12)

    def test_loop_mass_det(self, sides):
        (c,) = sides["two-state-loop-mass-det"]
        # exp of the loop mass truncated at 14 steps, within its tail
        assert c.lhs == pytest.approx(1 / self.DET, abs=1e-5)
        assert c.rhs == pytest.approx(1 / self.DET, rel=1e-12)

    def test_meeting_mass_greens(self, sides):
        (c,) = sides["two-state-meeting-mass-greens"]
        assert c.lhs == pytest.approx(self.G[0, 0], abs=1e-5)
        assert c.rhs == pytest.approx(self.G[0, 0], rel=1e-12)
