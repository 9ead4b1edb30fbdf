"""Generalized Euler totient over finite groups.

phi(G) counts the elements of G whose order equals the exponent of G; for
cyclic groups it reduces to the classical totient.  The package provides
concrete realizations of the standard group families, an exhaustive
enumeration oracle, closed-form counterparts for each family, brute-force
automorphism counting, and predicates around the class of groups whose
exponent is attained.
"""

from .core import (
    AbelianGroup,
    AlternatingGroup,
    CayleyTableGroup,
    CyclicGroup,
    DirectProductGroup,
    Group,
    GroupError,
    IntegrityError,
    MetacyclicGroup,
    OrderSpectrum,
    PermutationClosureGroup,
    PGroupP,
    PhiReport,
    RealizationError,
    ResourceLimitError,
    SymmetricGroup,
    commuting_witness,
    enumeration_cap,
    exponent,
    multiply,
    order,
    phi,
    report,
    spectrum_by_enumeration,
)
from .families import (
    abelian,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    generalized_quaternion,
    hamiltonian,
    mathieu11,
    metacyclic,
    p_group_P,
    quasidihedral,
    symmetric,
)
from .numtheory import euler_phi

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
