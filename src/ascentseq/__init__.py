"""Exact enumeration toolkit for 021-avoiding ascent sequences.

Counting avoiders of 021 plus a length-four pattern, the closed-form
generating functions of every such class, the refining pjum/jump
statistics and their recurrences, the explicit bijections between
equivalent classes, and finite-horizon Wilf classification.

The public names are loaded from their submodule on first access
(PEP 562), so importing the package, or the CLI, loads no submodule
that the caller does not use.
"""

import importlib

__version__ = "0.1.0"

_PUBLIC = {
    "core": (
        "MAX_LENGTH",
        "AscentSequence",
        "ascent_count",
        "ascent_sequences",
        "bounded_jump_words",
        "format_sequence",
        "is_ascent_sequence",
        "is_staircase",
        "jump_count",
        "max_letter",
        "parse_sequence",
        "pjum",
        "staircase_words",
    ),
    "patterns": (
        "CountVector",
        "Pattern",
        "PatternSet",
        "all_patterns",
        "avoiders",
        "catalan",
        "contains",
        "count_avoiders",
        "normalize_pattern",
        "occurrence_count",
    ),
    "series": (
        "DEFAULT_ORDER",
        "RESTRICTIVE_PATTERNS",
        "WILF_CLASSES",
        "P",
        "Polynomial",
        "PowerSeries",
        "catalan_series",
        "expand_ratio",
        "gf_catalog",
        "h_r_series",
    ),
    "recur": (
        "DistributionTable",
        "b_table_0111",
        "closed_form_count",
        "f_series_1001",
        "jump_distribution",
        "jump_distribution_brute",
        "pjum_distribution",
        "pjum_distribution_brute",
    ),
    "bijections": (
        "BIJECTIONS",
        "BijectionReport",
        "MapCaseError",
        "StaircaseTuple",
        "apply_map",
        "staircase_tuples",
        "tuple_to_sequence",
        "verify_bijection",
        "verify_tuple_bijection",
    ),
    "wilf": (
        "WilfClass",
        "WilfClassReport",
        "pattern_avoidance_table",
        "wilf_classify",
    ),
}

__all__ = [name for names in _PUBLIC.values() for name in names]

# Each public name, and each submodule's own name, to its submodule.
_SOURCE = {name: module for module, names in _PUBLIC.items() for name in names}
_SOURCE.update((module, module) for module in _PUBLIC)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _SOURCE.keys())
