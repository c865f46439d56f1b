"""Generalized Riesz bases: the dual family of a constructing operator.

The paper calls {phi_k} a generalized Riesz basis when a constructing pair
({e_k}, T) exists: an ONB {e_k} and an invertible T with T e_k = phi_k.  At
truncation N every ONB is U e_k for a unitary U, and (U e, T) constructs the
same family as (e, T U).  So the ONB is always the standard one here, a
constructing pair is T alone, and its linalg.Factorization gives kappa,
sigma_min and the dual family.
"""

from __future__ import annotations

from . import linalg
from .family import SequenceFamily


def dual_family(T) -> SequenceFamily:
    """Dual family psi_k = adjoint(T^-1) e_k, the array adjoint(T^-1); biorthogonal to {T e_k}."""
    return SequenceFamily(linalg.adjoint(linalg.as_factorization(T).inverse))

