"""Parcelport cost models and topology for the scaling study (DESIGN.md §2)."""

from .parcelport import MessageCost, Parcelport, PARCELPORTS, EAGER_BYTES
from .retry import DEFAULT_RETRY_POLICY, NETWORK_RETRY_POLICY, RetryPolicy
from .topology import DragonflyTopology
from .transport import HaloTransport, TransportStats

__all__ = ["MessageCost", "Parcelport", "PARCELPORTS", "EAGER_BYTES",
           "RetryPolicy", "DEFAULT_RETRY_POLICY", "NETWORK_RETRY_POLICY",
           "DragonflyTopology", "HaloTransport", "TransportStats"]
