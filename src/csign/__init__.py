"""Cavity-QED C-Sign gate array: simulator, calibration, and sweeps.

Import the modules themselves (``from csign import circuit``); the package
re-exports nothing, so ``import csign`` loads neither numpy nor yaml.
"""

__version__ = "0.1.0"
