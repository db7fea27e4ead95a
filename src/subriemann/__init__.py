"""Toolkit for dilation-homogeneous Hormander vector field systems.

Exact layer: rational polynomial algebra (`polynomials`), Lie brackets,
homogeneity and rank certificates (`fields`), the ball-volume
polynomial, pointwise nu, its certified maximal level set, domain specs
and evaluation plans (`nsw`), and automorphism certification (`automorph`).
Numerical layer: one box lattice type (`lattice`) shared by lattice
subunit distance fields, ball volume estimates and ball-box ratio
scans, and the growth-exponent scan of the ball-volume polynomial
(`metric`); and a discretized minimizer for the optimal Sobolev
constant with its concentration, exponent and decay diagnostics
(`sobolev`).  `fixtures` builds the shipped systems.

The package root re-exports nothing: import each name from the module
that defines it.  So the exact modules and `fixtures` load without
numpy.
"""

__version__ = "0.1.0"
