import math

import pytest

from nvisc import units


def test_pinned_constants():
    assert units.MEV_TO_GHZ == pytest.approx(241.79892, abs=1e-5)
    assert units.MEV_TO_MHZ == pytest.approx(241798.92, abs=1e-2)
    assert units.K_B == pytest.approx(0.08617333, abs=1e-8)


def test_ghz_round_trip():
    for nu in (1.0, 5.33, 470.0):
        assert units.ghz_to_mev(nu) * units.MEV_TO_GHZ == pytest.approx(nu, rel=1e-14)


def test_rate_conversion_round_trip():
    assert units.rate_mev_to_mhz(16.0 / units.MEV_TO_MHZ) == pytest.approx(16.0, rel=1e-14)
    # 1 meV of hbar*Gamma reports as 241798.92 MHz of ordinary frequency
    assert units.rate_mev_to_mhz(1.0) == pytest.approx(241798.92, abs=1e-2)


def test_parallel_coupling_reference_value():
    # hbar * 5.33 GHz expressed in meV
    assert units.ghz_to_mev(5.33) == pytest.approx(0.0220431, abs=5e-8)


def test_eta_internal_value():
    # 44 MHz/meV^3 -> meV^-2 under hbar = 1
    assert units.eta_mhz_to_internal(44.0) == pytest.approx(1.8196938e-4, rel=1e-6)


def test_thermal_energy():
    assert units.thermal_energy(0.0) == 0.0
    assert units.thermal_energy(300.0) == pytest.approx(25.851999, abs=1e-4)
    with pytest.raises(ValueError):
        units.thermal_energy(-1.0)


def test_thermal_energy_700k_in_ev():
    # used by the high-temperature quench model
    assert units.thermal_energy(700.0) / 1000.0 == pytest.approx(0.060321331, abs=1e-8)
