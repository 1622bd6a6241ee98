"""Spectral motion analysis for short video windows.

Rigid in-plane motion (constant-velocity translation, rotation, uniform
scaling) leaves linear signatures in the spatiotemporal spectrum; this
package measures them on a low-pass-truncated 3D DFT, fits the motion
parameters by weighted ridge regression, scores each motion type with a
bounded loss, and combines the losses with a temperature softmax.  A
verification suite checks every concentration bound the analysis relies on.
"""

__version__ = "0.1.0"

from .core import (ConfigError, DegenerateInputError, FormatError,
                   FrameSource, MotionEstimate, Sim2Error, SpectralConfig,
                   UnobservableError, VideoWindow, load_video,
                   normalize_window, save_video)
from .losses import (LossReport, adaptive_composite, analyze, rotation_loss,
                     scaling_loss, translation_loss, unified_residual,
                     ridge_wls_solve)
from .spectral import EtaParams, Spectrum3D, eta_retention
from .synth import MotionSpec, synth_powerlaw, synth_sim2

__all__ = [
    "__version__",
    "VideoWindow", "FrameSource", "SpectralConfig", "MotionEstimate", "MotionSpec",
    "Spectrum3D", "EtaParams", "LossReport",
    "load_video", "save_video", "normalize_window",
    "eta_retention", "analyze", "adaptive_composite",
    "translation_loss", "rotation_loss", "scaling_loss", "unified_residual",
    "ridge_wls_solve", "synth_sim2", "synth_powerlaw",
    "Sim2Error", "FormatError", "ConfigError", "UnobservableError",
    "DegenerateInputError",
]
