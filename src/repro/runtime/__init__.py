"""Real asyncio/UDP runtime hosting the same sans-io protocols."""

from repro.runtime.host import (
    AddressBook,
    AsyncioNode,
    LocalCluster,
    localhost_address_book,
    node_id_for,
)

__all__ = [
    "AddressBook",
    "AsyncioNode",
    "LocalCluster",
    "localhost_address_book",
    "node_id_for",
]
