"""Membership substrates: peer sampling services.

All upper-layer protocols acquire gossip targets through the
:class:`~repro.membership.views.PeerSampler` interface, implemented by:

* :class:`CyclonProtocol` — shuffle-based partial views (the default),
* :class:`StaticMembership` — the "know everyone" directory assumption
  of structured systems (used by the DHT baseline).
"""

from repro.membership.cyclon import CyclonProtocol, ShuffleReply, ShuffleRequest
from repro.membership.fullview import StaticMembership, cluster_directory
from repro.membership.views import NodeDescriptor, PartialView, PeerSampler

__all__ = [
    "CyclonProtocol",
    "NodeDescriptor",
    "PartialView",
    "PeerSampler",
    "ShuffleReply",
    "ShuffleRequest",
    "StaticMembership",
    "cluster_directory",
]
