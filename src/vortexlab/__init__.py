"""Numerical laboratory for abelian symplectic vortices on surfaces with
cylindrical ends: modular-graph combinatorics, flat cylinder meshes and
gluing, linear torus targets, discrete gauged fields, the Newton solve that
turns holomorphic pairs into vortices, and measured-estimate experiments."""

__version__ = "0.1.0"


class VortexlabError(Exception):
    """Base of every error the package raises on purpose."""
