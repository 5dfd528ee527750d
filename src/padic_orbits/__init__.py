"""Exact p-adic torus volumes, orbital integrals, and trace formula checks.

The API lives in the submodules; import each name from the module that
defines it, e.g. ``from padic_orbits.quadglobal import cnf_report``.
"""

__version__ = "0.1.0"
