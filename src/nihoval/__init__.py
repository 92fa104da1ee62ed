"""Niho bent functions, hyperovals and their equivalence classes over GF(2^m).

Modules: gf2m (field tower arithmetic), geometry (PG(2,q) in two models),
opoly (o-polynomial catalog), gfun (g-functions on the unit circle), bent
(truth tables, Walsh spectra, Niho polynomial forms), equiv (collineations,
stabilizers, equivalence classes), cli (command line driver).
"""

from .gf2m import (DEFAULT_MODULI, FieldError, FieldParams, UnitCircle, exponent_inverse,
                   field_create, spread_i, unit_circle)
from .geometry import is_hyperoval, is_line_oval, line_oval_points
from .opoly import OPolyFamily, is_opolynomial, opoly_table, transform_pi
from .gfun import (GFunction, fix_zeros, g_catalog, g_from_opoly, g_from_oval,
                   g_monomial, g_series, g_shift, validate_g)
from .bent import (BooleanFn, NihoPolynomial, WalshSpectrum, bent_from_g, dual,
                   dual_lineoval_check, f_shift, f_translation, f_univariate,
                   is_bent, walsh_spectrum)
from .equiv import (BentClass, ClassifyResult, Collineation, OrbitDecomposition,
                    are_equivalent, classify_bent, stabilizer)

__version__ = "0.1.0"
