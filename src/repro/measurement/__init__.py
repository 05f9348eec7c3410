"""Measurement substrate: traceroute, RTTs, IP-ID probing, platforms.

Everything the inference pipeline is allowed to *observe* comes through
this subpackage: traceroute hops with RTTs, IP-ID probe trains for alias
resolution, and the four vantage-point platforms of Table 1.
"""

from .campaign import CampaignConfig, CampaignDriver, Hitlist, TraceCorpus
from .ipid import IPID_MODULUS, IpidResponder
from .platforms import (
    ArchivePlatform,
    AtlasPlatform,
    LookingGlassPlatform,
    MeasurementPlatform,
    PlatformSet,
    PlatformStats,
    VantagePoint,
    build_platforms,
)
from .resilience import (
    CircuitBreaker,
    ProbeBudget,
    ResilienceConfig,
    RetryPolicy,
)
from .rtt import RttConfig, RttModel
from .traceroute import Traceroute, TracerouteConfig, TracerouteEngine

__all__ = [
    "ArchivePlatform",
    "AtlasPlatform",
    "build_platforms",
    "CampaignConfig",
    "CampaignDriver",
    "CircuitBreaker",
    "Hitlist",
    "ProbeBudget",
    "ResilienceConfig",
    "RetryPolicy",
    "IPID_MODULUS",
    "IpidResponder",
    "LookingGlassPlatform",
    "MeasurementPlatform",
    "PlatformSet",
    "PlatformStats",
    "RttConfig",
    "RttModel",
    "TraceCorpus",
    "Traceroute",
    "TracerouteConfig",
    "TracerouteEngine",
    "VantagePoint",
]
