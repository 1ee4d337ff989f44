from .contour import eval_I_alpha, eval_g_alpha, eval_J, eval_ReJ
from .hanson_lewy import (
    HansonLewySolution,
    HLTerm,
    build_hanson_lewy,
    gamma_xi,
    hl_derivative_at_origin,
    hl_eval,
    hl_gradient,
    hl_trace,
    quasimode_trace,
    steklov_defect,
    wall_defect,
)
from .peters import CornerSpec, PetersEvaluator, eval_peters, far_field_fit

__all__ = [
    "eval_I_alpha",
    "eval_g_alpha",
    "eval_J",
    "eval_ReJ",
    "HansonLewySolution",
    "HLTerm",
    "build_hanson_lewy",
    "gamma_xi",
    "hl_derivative_at_origin",
    "hl_eval",
    "hl_gradient",
    "hl_trace",
    "quasimode_trace",
    "steklov_defect",
    "wall_defect",
    "CornerSpec",
    "PetersEvaluator",
    "eval_peters",
    "far_field_fit",
]
