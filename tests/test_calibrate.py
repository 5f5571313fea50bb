import math
from fractions import Fraction

import numpy as np
import pytest

from csign import calibrate
from csign.dynamics import PhysParams
from csign.errors import PhysicsValidationError

G = 0.1
T_UNIT = math.pi / (math.sqrt(2.0) * G)


def resonant():
    return PhysParams(g=G, omega_c=10.0, delta=0.0)


def best_candidate(params, horizon):
    """(t, residual) of the lowest-residual row of the candidate table."""
    best = min(calibrate.candidate_table(params, horizon), key=lambda row: row["residual"])
    return best["t"], best["residual"]


class TestBestTau:
    """The best transit duration within a horizon: the lowest-residual
    sign-flip candidate that ``csign calibrate`` tabulates."""

    def test_first_optimum_is_three_units(self):
        t, residual = best_candidate(resonant(), horizon=3.05 * T_UNIT)
        assert t == pytest.approx(3.0, abs=1e-12)
        assert residual < 0.5

    def test_residuals_decrease_along_optima(self):
        vals = {}
        for t_opt in (17, 41, 99):
            t, residual = best_candidate(resonant(), horizon=(t_opt + 0.5) * T_UNIT)
            assert t == pytest.approx(t_opt, abs=1e-9)
            vals[t_opt] = residual
        assert vals[99] < vals[41] < vals[17]

    def test_returned_tau_is_argmin_over_candidates(self):
        # the candidates are exactly the odd sign flips, each with its mismatch
        p = resonant()
        rows = calibrate.candidate_table(p, 20 * T_UNIT)
        flips = np.arange(1, 21, 2)
        assert np.allclose([row["t"] for row in rows], flips, atol=1e-9)
        values = [calibrate.transit_mismatch(p, f * T_UNIT) for f in flips]
        assert [row["residual"] for row in rows] == pytest.approx(values, abs=1e-12)
        t, residual = best_candidate(p, 20 * T_UNIT)
        assert residual == pytest.approx(min(values), abs=1e-12)
        assert t == pytest.approx(flips[int(np.argmin(values))], abs=1e-9)

    def test_residual_monotone_in_horizon(self):
        p = resonant()
        last = math.inf
        for horizon_t in (5, 10, 20, 50, 100):
            _, residual = best_candidate(p, horizon_t * T_UNIT)
            assert residual <= last + 1e-15
            last = residual

    def test_too_short_horizon(self):
        assert calibrate.candidate_table(resonant(), horizon=0.1 * T_UNIT) == []


class TestCommensurableDetunings:
    def test_five_sevenths(self):
        # exact rational check: r = 5/7 gives d^2 = 1/6
        d = calibrate.commensurable_detunings(Fraction(5, 7))
        assert d == pytest.approx(1 / math.sqrt(6.0), rel=1e-14)
        realized = math.sqrt(4 + d * d) / math.sqrt(8 + d * d)
        assert realized == pytest.approx(5 / 7, abs=1e-12)

    def test_limit_toward_resonance(self):
        r = 1 / math.sqrt(2) + 1e-9
        assert calibrate.commensurable_detunings(r) < 1e-3

    def test_roundtrip_identity(self):
        for r in (Fraction(13, 14), Fraction(14, 15), Fraction(5, 7), Fraction(29, 41)):
            d = calibrate.commensurable_detunings(r)
            assert math.sqrt(4 + d * d) / math.sqrt(8 + d * d) == pytest.approx(
                float(r), abs=1e-12)

    def test_paper_headline_ratio(self):
        # the 14/15 commensurable point sits at d ~ 4.80
        d = calibrate.commensurable_detunings(Fraction(14, 15))
        assert d == pytest.approx(4.80, abs=0.005)

    @pytest.mark.parametrize("r", [0.5, 1.0, 1.2, 1 / math.sqrt(2)])
    def test_domain_errors(self, r):
        with pytest.raises(PhysicsValidationError):
            calibrate.commensurable_detunings(r)


class TestNonlinearity:
    def test_no_exact_solution_statistically(self, rng):
        # sampled (detuning, duration) pairs never satisfy the exact
        # sign-flip system; the residual floor stays clearly positive
        best = math.inf
        for _ in range(1000):
            d = rng.uniform(0.0, 5.0)
            t = rng.uniform(0.5, 100.0)
            p = PhysParams(g=G, omega_c=10.0, delta=d * G)
            best = min(best, calibrate.transit_mismatch(p, t * T_UNIT))
        assert best > 1e-9


class TestTables:
    def test_candidate_table_running_min_matches_known_optima(self):
        # among the sign-flip candidates, the strictly-improving durations
        # past the first are 3, 7, 17, 41, 99
        rows = calibrate.candidate_table(resonant(), horizon=100.5 * T_UNIT)
        assert [round(r["t"]) for r in rows[:3]] == [1, 3, 5]
        best = math.inf
        improving = []
        for i, row in enumerate(rows):
            if row["residual"] < best:
                if i > 0:
                    improving.append(round(row["t"]))
                best = row["residual"]
        assert improving == [3, 7, 17, 41, 99]

    def test_candidate_table_empty_horizon(self):
        assert calibrate.candidate_table(resonant(), horizon=0.0) == []

    def test_detuning_table_roundtrip_column(self):
        rows = calibrate.detuning_table([Fraction(5, 7), Fraction(14, 15)])
        assert all(row["roundtrip_residual"] < 1e-12 for row in rows)
        assert rows[0]["r"] == "5/7"
