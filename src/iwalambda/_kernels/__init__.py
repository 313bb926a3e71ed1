"""The reduction kernel.

The hot loop of the whole package is the elementary-divisor reduction of
an integer matrix over Z/ell^n (a chain ring, so valuation-pivot Gaussian
elimination is a complete algorithm).  It is plain Python; BACKEND names
it for benchmark records.
"""

from ._snf_py import snf_mod_valuations

BACKEND = "python"

__all__ = ["snf_mod_valuations", "BACKEND"]
