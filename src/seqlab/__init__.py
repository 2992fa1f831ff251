"""seqlab: exact generation, guessing, and high-precision asymptotic
analysis of integer counting sequences.

The package covers the full experimental-mathematics loop: generate exact
terms from q-series or closed-form generating functions (or slow
brute-force oracles), guess linear recurrences with polynomial coefficients
and algebraic equations by exact integer linear algebra, convert a
recurrence to the differential equation of its generating function, extract
growth constants and asymptotic amplitudes at arbitrary precision, and
recognize the resulting constants in closed form.
"""

from .asympt import (
    AmplitudeFit,
    BstResult,
    HpSeq,
    PowerLawDiagnostics,
    PowerLawModel,
    StretchedModel,
    amplitude_fit,
    bst_extrapolate,
    elim_power,
    loglog_gradient,
    loglog_points,
    poly_smallest_positive_root,
    powerlaw_pipeline,
    ratios,
    square_subsample,
    stretched_amplitude_seq,
    stretched_lambda,
    stretched_triple_fit,
    summarize_stretched,
)
from .dfinite import (
    AlgEq,
    LinODE,
    PRecurrence,
    algeq_residual,
    expand_algebraic,
    expand_algebraic_series,
    expand_prec,
    expand_prec_decimal,
    ode_residual,
    prec_residual,
    prec_to_ode,
)
from .fixed import HpContext
from .guess import guess_algeq, guess_prec, integer_nullspace
from .identify import (
    Identification,
    identify_rational,
    identify_with_multipliers,
    lll_reduce,
    min_poly,
)
from .oeis import (
    BFile,
    bfile_url,
    canonical_a_number,
    default_cache_dir,
    fetch_oeis,
    parse_bfile,
    parse_bfile_tail,
    render_bfile,
)
from .report import (
    AnalysisReport,
    decimal_str,
    emit_csv,
    identification_entry,
    scalar_entry,
    sequence_entry,
    text_digest,
)
from .sequences import (
    LaurentSeries,
    Sequence,
    count_201_ascent,
    enum_ascent_avoiding,
    enum_lconvex_bruteforce,
    enum_stack_bruteforce,
    expand_rational,
    gen_lconvex_area,
    gen_lconvex_perimeter,
    gen_stack_area,
)
from .series import Poly, TruncSeries, q_pochhammer

__version__ = "0.1.0"

__all__ = [
    "AlgEq",
    "AmplitudeFit",
    "AnalysisReport",
    "BFile",
    "BstResult",
    "HpContext",
    "HpSeq",
    "Identification",
    "LaurentSeries",
    "LinODE",
    "PRecurrence",
    "Poly",
    "PowerLawDiagnostics",
    "PowerLawModel",
    "Sequence",
    "StretchedModel",
    "TruncSeries",
    "algeq_residual",
    "amplitude_fit",
    "bfile_url",
    "bst_extrapolate",
    "canonical_a_number",
    "count_201_ascent",
    "decimal_str",
    "default_cache_dir",
    "elim_power",
    "emit_csv",
    "enum_ascent_avoiding",
    "enum_lconvex_bruteforce",
    "enum_stack_bruteforce",
    "expand_algebraic",
    "expand_algebraic_series",
    "expand_prec",
    "expand_prec_decimal",
    "expand_rational",
    "fetch_oeis",
    "gen_lconvex_area",
    "gen_lconvex_perimeter",
    "gen_stack_area",
    "guess_algeq",
    "guess_prec",
    "identification_entry",
    "identify_rational",
    "identify_with_multipliers",
    "integer_nullspace",
    "lll_reduce",
    "loglog_gradient",
    "loglog_points",
    "min_poly",
    "ode_residual",
    "parse_bfile",
    "parse_bfile_tail",
    "poly_smallest_positive_root",
    "powerlaw_pipeline",
    "prec_residual",
    "prec_to_ode",
    "q_pochhammer",
    "ratios",
    "render_bfile",
    "scalar_entry",
    "sequence_entry",
    "square_subsample",
    "stretched_amplitude_seq",
    "stretched_lambda",
    "stretched_triple_fit",
    "summarize_stretched",
    "text_digest",
]
