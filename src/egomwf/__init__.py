"""Multichannel Wiener filtering for UAV ego-noise speech enhancement.

Core stages: WAV I/O and resampling, sqrt-Hann STFT, speech presence
probability masking, per-bin covariance estimation, GEVD-based standard
and prior-knowledge MWF weights, objective metrics, and a synthetic
scene generator for validation.
"""

from .audio_io import AudioClip, read_wav, resample, write_wav
from .config import EnhanceConfig, load_config, parse_config
from .covariance import BinStatistics, estimate_correlations, regularize
from .errors import EgomwfError
from .filters import ChannelPartition, FilterBank, build_filterbank, compute_gsc
from .gevd import PencilDecomposition, gevd
from .metrics import MetricsReport, evaluate, snr_db, stoi
from .pipeline import EnhanceResult, apply_filterbank, enhance
from .scenegen import SceneConfig, SceneOutput, render_scene, steering_delay_gain, synth_ego_noise
from .spp import SppMask, SppParams, estimate_spp
from .stft import StftGrid, StftParams, analyze, synthesize

__version__ = "0.1.0"

__all__ = [
    "EgomwfError",
    "AudioClip", "read_wav", "write_wav", "resample",
    "StftParams", "StftGrid", "analyze", "synthesize",
    "SppParams", "SppMask", "estimate_spp",
    "BinStatistics", "estimate_correlations", "regularize",
    "PencilDecomposition", "gevd",
    "ChannelPartition", "FilterBank", "compute_gsc", "build_filterbank",
    "EnhanceResult", "apply_filterbank", "enhance",
    "MetricsReport", "snr_db", "stoi", "evaluate",
    "SceneConfig", "SceneOutput", "steering_delay_gain",
    "synth_ego_noise", "render_scene",
    "EnhanceConfig", "parse_config", "load_config",
]
