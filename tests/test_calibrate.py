import math
from fractions import Fraction

import numpy as np
import pytest

from csign import calibrate, circuit, fock, jc
from csign.errors import PhysicsValidationError
from csign.jc import PhysParams

from oracles import candidate_table_numpy, jc_return_amplitude_numpy

G = 0.1
T_UNIT = math.pi / (math.sqrt(2.0) * G)


def resonant():
    return PhysParams(g=G, omega_c=10.0, delta=0.0)


def best_candidate(params, horizon_t):
    """(t, residual) of the lowest-residual row of the candidate table."""
    best = min(calibrate.candidate_table(params, horizon_t), key=lambda row: row["residual"])
    return best["t"], best["residual"]


class TestBestTau:
    """The best transit duration within a horizon: the lowest-residual
    sign-flip candidate that ``csign calibrate`` tabulates."""

    def test_first_optimum_is_three_units(self):
        t, residual = best_candidate(resonant(), horizon_t=3.05)
        assert t == pytest.approx(3.0, abs=1e-12)
        assert residual < 0.5

    def test_residuals_decrease_along_optima(self):
        vals = {}
        for t_opt in (17, 41, 99):
            t, residual = best_candidate(resonant(), horizon_t=t_opt + 0.5)
            assert t == pytest.approx(t_opt, abs=1e-9)
            vals[t_opt] = residual
        assert vals[99] < vals[41] < vals[17]

    def test_returned_tau_is_argmin_over_candidates(self):
        # the candidates are exactly the odd sign flips, each with its gate error
        p = resonant()
        rows = calibrate.candidate_table(p, 20)
        flips = np.arange(1, 21, 2)
        assert np.allclose([row["t"] for row in rows], flips, atol=1e-9)
        values = [jc.lossless_gate_error(p, f * T_UNIT) for f in flips]
        assert [row["residual"] for row in rows] == pytest.approx(values, abs=1e-12)
        t, residual = best_candidate(p, 20)
        assert residual == pytest.approx(min(values), abs=1e-12)
        assert t == pytest.approx(flips[int(np.argmin(values))], abs=1e-9)

    def test_residual_monotone_in_horizon(self):
        p = resonant()
        last = math.inf
        for horizon_t in (5, 10, 20, 50, 100):
            _, residual = best_candidate(p, horizon_t)
            assert residual <= last + 1e-15
            last = residual

    def test_too_short_horizon(self):
        assert calibrate.candidate_table(resonant(), horizon_t=0.1) == []


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

    @pytest.mark.parametrize("r", [
        0.5, 1.0, 1.2, 1 / math.sqrt(2), -0.8, pytest.param(Fraction(-4, 5), id="-4/5"),
        # the range check is exact, and a detuning past the float range is rejected
        pytest.param(Fraction("1e400"), id="huge"),
        pytest.param(Fraction("0." + "9" * 400), id="near-1")])
    def test_domain_errors(self, r):
        with pytest.raises(PhysicsValidationError):
            calibrate.commensurable_detunings(r)


class TestNonlinearity:
    def test_no_exact_solution_statistically(self, rng):
        # sampled (detuning, duration) pairs never make the gate exact; the
        # error floor stays clearly positive
        best = math.inf
        for _ in range(1000):
            d = rng.uniform(0.0, 5.0)
            t = rng.uniform(0.5, 100.0)
            p = PhysParams(g=G, omega_c=10.0, delta=d * G)
            best = min(best, jc.lossless_gate_error(p, t * T_UNIT))
        assert best > 1e-9


class TestTables:
    def test_candidate_table_running_min_matches_known_optima(self):
        # among the sign-flip candidates, the strictly-improving durations
        # past the first are 3, 7, 17, 41, 99
        rows = calibrate.candidate_table(resonant(), horizon_t=100.5)
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
        assert calibrate.candidate_table(resonant(), horizon_t=0.0) == []

    def test_candidate_table_length_is_bounded(self):
        # at resonance a horizon of 2 t units holds one sign-flip candidate
        assert len(calibrate.candidate_table(resonant(), 2.0 * calibrate.MAX_CANDIDATES)) == \
            calibrate.MAX_CANDIDATES
        # at g = 0.1 the duration horizon_t * pi / (sqrt(2) g) overflows past about 8e306
        for horizon_t in (2.0 * calibrate.MAX_CANDIDATES + 2.0, 1e300, 1e307, 1.7e308):
            with pytest.raises(PhysicsValidationError, match="candidates"):
                calibrate.candidate_table(resonant(), horizon_t)

    def test_detuning_table_roundtrip_column(self):
        rows = calibrate.detuning_table([Fraction(5, 7), Fraction(14, 15)])
        assert all(row["roundtrip_residual"] < 1e-12 for row in rows)
        assert rows[0]["r"] == "5/7"


class TestNumpyOracle:
    """The math/cmath formulas against the same formulas in numpy arithmetic."""

    def test_return_amplitude_bit_identical(self, rng):
        for _ in range(5000):
            g = rng.uniform(0.01, 2.0)
            p = PhysParams(g=g, delta=float(rng.choice([0.0, rng.uniform(-10, 10)])) * g)
            n, t = int(rng.integers(1, 3)), rng.uniform(0.0, 3000.0)
            new, old = jc.block_amplitudes(n, p, t)[0], complex(jc_return_amplitude_numpy(n, p, t))
            assert (new.real, new.imag) == (old.real, old.imag)

    @pytest.mark.parametrize("g", [0.1, 0.37, 1.0])
    def test_table_matches_oracle(self, g, rng):
        # durations from np.arange, errors from the independent closed form;
        # the oracle rederives the duration from t, and a last-bit change of
        # t moves the error by up to about 1e-14 * t
        for delta_over_g in (0.0, rng.uniform(-10, 10)):
            p = PhysParams(g=g, delta=delta_over_g * g)
            for horizon_t in (0.5, 1.0, 3.05, 20, 100.5, 1000.0):
                new, old = calibrate.candidate_table(p, horizon_t), candidate_table_numpy(p, horizon_t)
                assert [(r["t"], r["delta_over_g"]) for r in new] == \
                    [(r["t"], r["delta_over_g"]) for r in old]
                tol = 1e-12 * max(1.0, horizon_t / 100.0)
                assert [r["residual"] for r in new] == \
                    pytest.approx([r["residual"] for r in old], abs=tol, rel=0)


class TestGateError:
    """The table's residual is the gate error that ``run_array`` reports."""

    def test_residual_is_run_array_error(self, rng):
        space = fock.default_state_space()
        probe = circuit.p_test(space)
        for _ in range(60):
            delta_over_g = float(rng.choice([0.0, rng.uniform(-6, 6)]))
            p = PhysParams(g=G, delta=delta_over_g * G)
            rows = calibrate.candidate_table(p, rng.uniform(1, 100))
            row = rows[int(rng.integers(len(rows)))]
            params = circuit.SimParams(t=row["t"], delta_over_g=row["delta_over_g"])
            assert row["residual"] == pytest.approx(
                circuit.run_array(probe, params, space).error, abs=1e-12, rel=0)
