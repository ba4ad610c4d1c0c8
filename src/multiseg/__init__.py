"""Exact segment combinatorics for twisted general linear groups."""

from types import ModuleType as _ModuleType

from .core import (CuspidalLabel, IdentityError, Ladder, Multisegment, mw_dual,
                   parse_multisegment, support)
from .groth import (GrothExpr, gl_multisegment, induce, jac_left, jac_right,
                    jac_theta, jac_theta_seq, total_size)
from .ladders import (ladder_multisegment, peel_left, peel_right, tableau_cols,
                      trunc_ladder)
from .paramfile import ParamFileError, parse_parameter_file, render_parameter_file
from .params import (JordanBlock, Parameter, Quad, block_order_cmp,
                     diag_restriction, dominate, from_quad, imp_variants,
                     in_Psi_H, is_discrete, is_discrete_diagonal,
                     is_elementary, psi_sharp, reducibility_point, to_quad)
from .resolve import (Resolution, degree_conserved, distinguished_word,
                      resolve_block, resolve_general, resolve_param,
                      verify_cancellation)
from .signs import (BETA_CONVENTIONS, a_sign, beta_closed_form, beta_sign,
                    eps_char, eval_at_c2, eval_at_z, j_psi, r_ratio_sign,
                    theta_ratio_WU, z_sets, z_sign)
from .wedges import (Composition, check_nilpotent, check_subset_homology,
                     check_theta_sign, compositions, subset_complex_homology,
                     xi_sign)

# the submodules are bound here too by the imports above; they are not API names
__all__ = [n for n in dir() if not n.startswith("_") and not isinstance(globals()[n], _ModuleType)]
