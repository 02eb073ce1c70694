"""Exact analysis of complex projective line arrangements.

Multinets, orbifold pencils, translated jump-locus components and Aomoto
complex torsion, all in exact arithmetic over Q(sqrt 5)(sin 2pi/5).
"""

from .field import FieldElement, serialize_element, trig_constants
from .mpoly import (MultiPoly, UniPoly, exact_divide, kth_root,
                    restrict_to_line)
from .exprs import parse_field_element as parse_element
from .arrangement import (Arrangement, IntersectionPoint, Line, build,
                          builtin, delete, render_svg)
from .multinet import (Multinet, MultinetReport, Pencil, builtin_pencil,
                       check_multinet, enumerate_multinets, find_pointed,
                       multinet_pencil)
from .fibration import (FiberAnalysis, FibrationReport, V1Component, analyze,
                        analyze_fiber, fiber_polynomial, lambda_candidates,
                        orbifold_v1_shape, pointed_vs_fiber,
                        translated_component)
from .aomoto import (AomotoComplex, H2Report, OS2Basis, SNFResult,
                     aomoto_complex, h2_torsion, os2_basis, snf)

__version__ = "0.1.0"
