"""Ribaucour transforms of Legendre surfaces in Lie sphere geometry.

A numerical engine built on exact second-order jets: Legendre frames on
analytic charts, the sphere congruence represented by a scalar field, the
transformed frame, the closedness test of the associated 1-form, Bianchi
permutability families, and grid-level oracles and exporters.

The package root imports nothing, so that ``liesphere.cli`` can configure
numpy before it loads; import the submodules themselves, e.g.
``from liesphere import ribaucour``.
"""

__version__ = "0.1.0"
