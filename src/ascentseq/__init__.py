"""Exact enumeration toolkit for 021-avoiding ascent sequences.

Counting avoiders of 021 plus a length-four pattern, the closed-form
generating functions of every such class, the refining pjum/jump
statistics and their recurrences, the explicit bijections between
equivalent classes, and finite-horizon Wilf classification.
"""

from .core import (
    MAX_LENGTH,
    AscentSequence,
    ascent_count,
    ascent_sequences,
    bounded_jump_words,
    format_sequence,
    is_ascent_sequence,
    is_staircase,
    jump_count,
    max_letter,
    parse_sequence,
    pjum,
    staircase_words,
)
from .patterns import (
    CountVector,
    Pattern,
    PatternSet,
    all_patterns,
    avoiders,
    catalan,
    contains,
    count_avoiders,
    normalize_pattern,
    occurrence_count,
)
from .series import (
    DEFAULT_ORDER,
    RESTRICTIVE_PATTERNS,
    WILF_CLASSES,
    P,
    Polynomial,
    PowerSeries,
    catalan_series,
    expand_ratio,
    gf_catalog,
    h_r_series,
)
from .recur import (
    DistributionTable,
    b_table_0111,
    closed_form_count,
    f_series_1001,
    jump_distribution,
    jump_distribution_brute,
    pjum_distribution,
    pjum_distribution_brute,
)
from .bijections import (
    BIJECTIONS,
    BijectionReport,
    MapCaseError,
    StaircaseTuple,
    apply_map,
    staircase_tuples,
    tuple_to_sequence,
    verify_bijection,
    verify_tuple_bijection,
)
from .wilf import WilfClass, WilfClassReport, pattern_avoidance_table, wilf_classify

__version__ = "0.1.0"
