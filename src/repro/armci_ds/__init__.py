"""ARMCI over two-sided messaging: the data-server predecessor (§IX).

The native ARMCI engine (:class:`~repro.armci_native.NativeArmci`) run
the way the pre-RMA portable ARMCI was: per-node data-server threads
apply each operation on request/response traffic, with two-sided costs.
Exists to make §IX's comparison concrete — see :class:`DataServerArmci`.
"""

from .api import DataServerArmci

__all__ = ["DataServerArmci"]
