"""Unit system and conversion constants.

Internal convention: hbar = 1 and every energy is carried in meV, so a
rate Gamma (an angular frequency) is stored as the energy hbar*Gamma in
meV.  Reported rates are the ordinary frequencies Gamma/2pi in MHz;
``MEV_TO_MHZ`` is the bridge between the two (E/h for a 1 meV quantum).
Spectroscopic inputs quoted in GHz (fine-structure splittings, orbital
gaps) convert through the same constant, and the cubic phonon-coupling
strength eta, quoted in MHz meV^-3, converts to meV^-2 by dividing out
MEV_TO_MHZ once.
"""

from __future__ import annotations

# Ordinary frequency of a 1 meV quantum, E/h (CODATA).
MEV_TO_GHZ = 241.79892
MEV_TO_MHZ = MEV_TO_GHZ * 1e3

# Boltzmann constant in meV per kelvin.
K_B = 0.08617333


def ghz_to_mev(nu_ghz: float) -> float:
    """Energy in meV of a quantum with ordinary frequency nu_ghz."""
    return nu_ghz / MEV_TO_GHZ


def rate_mev_to_mhz(e_mev: float) -> float:
    """Convert an internal rate energy hbar*Gamma (meV) to Gamma/2pi in MHz."""
    return e_mev * MEV_TO_MHZ


def eta_mhz_to_internal(eta_mhz_per_mev3: float) -> float:
    """Convert the cubic coupling strength from MHz meV^-3 to meV^-2."""
    return eta_mhz_per_mev3 / MEV_TO_MHZ


def thermal_energy(temperature_k: float) -> float:
    """k_B T in meV. Temperatures are kelvin and must be non-negative."""
    if temperature_k < 0.0:
        raise ValueError(f"temperature must be >= 0 K, got {temperature_k}")
    return K_B * temperature_k
