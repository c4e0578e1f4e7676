"""The unXpec attack: gadgets, eviction sets, calibration, campaigns."""

from .calibration import CalibrationResult, calibrate
from .campaign import BitRecord, CampaignResult, LeakageCampaign
from .channel import (
    CHANNELS,
    Channel,
    ChannelVerdict,
    ContentionTimingChannel,
    FlushReloadChannel,
    RollbackTimingChannel,
    ThresholdDecoder,
    TrialObservation,
    make_channel,
)
from .eviction_sets import (
    EvictionSet,
    build_prime_addresses,
    congruent_candidates,
    evicts,
    find_eviction_set,
    partition_ways,
    reduce_eviction_set,
)
from .gadgets import GadgetParams, RewindGadget, RewindParams, UnxpecGadget
from .interference import (
    InterferenceHarness,
    InterferenceParams,
    InterferenceSample,
)
from .layout import DEFAULT_LAYOUT, DEFAULT_REGS, AttackLayout, Regs, chain_pointers
from .replacement_probe import (
    AgeProbeResult,
    ReplacementAgeProbe,
    probe_accuracy_under_policy,
)
from .secrets import bits_to_bytes, bits_to_text, bytes_to_bits, hamming_distance, random_bits
from .rewind import RewindAttack, RewindSample
from .spectre import ProbeReading, SpectreResult, SpectreV1Attack
from .unxpec import RoundSample, UnxpecAttack

__all__ = [
    "AttackLayout",
    "Regs",
    "DEFAULT_LAYOUT",
    "DEFAULT_REGS",
    "chain_pointers",
    "GadgetParams",
    "UnxpecGadget",
    "RewindParams",
    "RewindGadget",
    "RewindAttack",
    "RewindSample",
    "InterferenceParams",
    "InterferenceHarness",
    "InterferenceSample",
    "EvictionSet",
    "find_eviction_set",
    "build_prime_addresses",
    "congruent_candidates",
    "evicts",
    "reduce_eviction_set",
    "partition_ways",
    "ThresholdDecoder",
    "Channel",
    "ChannelVerdict",
    "TrialObservation",
    "RollbackTimingChannel",
    "FlushReloadChannel",
    "ContentionTimingChannel",
    "CHANNELS",
    "make_channel",
    "CalibrationResult",
    "calibrate",
    "UnxpecAttack",
    "RoundSample",
    "LeakageCampaign",
    "CampaignResult",
    "BitRecord",
    "random_bits",
    "bits_to_text",
    "bits_to_bytes",
    "bytes_to_bits",
    "hamming_distance",
    "SpectreV1Attack",
    "ReplacementAgeProbe",
    "AgeProbeResult",
    "probe_accuracy_under_policy",
    "SpectreResult",
    "ProbeReading",
]
