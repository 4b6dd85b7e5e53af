"""Topology builders: single-HUB, chains, meshes, large fabrics (§3.1)."""

from .builders import (dual_link_system, figure7_system, linear_system,
                       mesh_system, single_hub_system)
from .fabrics import (FabricSpec, build_system, fat_tree_fabric,
                      hypercube_fabric, torus_fabric)

__all__ = ["FabricSpec", "build_system", "dual_link_system",
           "fat_tree_fabric", "figure7_system", "hypercube_fabric",
           "linear_system", "mesh_system", "single_hub_system",
           "torus_fabric"]
