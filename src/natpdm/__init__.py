"""Natanzon-class and Ginocchio potentials on a position-dependent-mass background.

A numpy library built around five pieces: a self-contained numerical
kernel (`numerics`), the strip-to-disk conformal pipeline (`conformal`),
the su(1,1) ladder realization with its residual checks (`algebra`), the
energy-linear potential construction (`natanzon`), its two-parameter
specialization (`ginocchio`), and a finite-difference von Roos
eigensolver (`pdmsolver`) that adjudicates every closed form numerically.
The seeded property suites behind `natpdm verify` live in `verify`.
"""

__version__ = "0.1.0"
