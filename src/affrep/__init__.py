"""Exact-arithmetic toolkit for representations of the special affine group
SAff_n(C) = SL_n(C) x C^n (semidirect): weight calculus, explicit matrix
models, socle/radical filtrations, and rationality decision procedures for
two-step extensions.
"""

__version__ = "0.1.0"
