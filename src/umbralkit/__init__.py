"""umbralkit: an exact kernel for Sheffer-sequence computations.

Truncated formal power series and polynomials over Q or Q(L), the umbral
pairing and operator action, named polynomial families, and an executable
registry of convolution identities checked in exact rational arithmetic.

Each module declares the public names it defines in its own ``__all__``;
the package exports those names and no other, and its ``__all__`` is the
modules' lists joined in import order.
"""

from .errors import *
from .fields import *
from .series import *
from .umbral import *
from .families import *
from .identities import *
from .dsl import *
from . import dsl, errors, families, fields, identities, series, umbral

__version__ = "0.1.0"

__all__ = []
__all__ += errors.__all__
__all__ += fields.__all__
__all__ += series.__all__
__all__ += umbral.__all__
__all__ += families.__all__
__all__ += identities.__all__
__all__ += dsl.__all__
