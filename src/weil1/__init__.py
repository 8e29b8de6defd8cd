"""Exact symbolic kernel for the algebras generated by W = k[x]/x^2 under
product and tensor, their cograph presentations, morphism decomposition into
the five tangent-structure generating maps, and a brute-force axiom suite.

The package exports only ``__version__``; import names from the module that
owns them (``weil1.cotree``, ``weil1.morphism``, ``weil1.verify``, ...), so
that a program loads only the modules it reads."""

__version__ = "0.1.0"
