"""Bigraphs as typed graphs.

A pure bigraph model, a type-graph metamodel engine, the canonical
bidirectional mapping between them with machine-checked soundness
criteria, a product-line variability layer over the representation, and
a navigation-constraint checker.

The public names below are loaded on first access (PEP 562), so
importing the package, or one of its modules, loads only the layers
that are used.
"""

import sys

#: The public names of each module.
_PUBLIC = {
    "bigraph": (
        "BASE_NODE_TYPE_NAMES", "Bigraph", "Control", "DuplicateControl", "Interface", "Port",
        "ReservedControlName", "Signature", "make_signature", "ports_of", "validate_bigraph",
    ),
    "constraints": (
        "CheckResult", "ConstraintDoc", "ConstraintSyntaxError", "EvaluationError", "Invariant",
        "TypeCheckError", "evaluate", "format_constraints", "parse_constraints", "typecheck",
    ),
    "mapping": ("ElementMap", "InvalidBigraph", "UntypedControl", "decode", "encode"),
    "metamodel": ("NotCanonical", "base_type_graph", "check_arity_rule", "conformance", "extend_for_signature"),
    "report": ("Finding", "ValidationReport"),
    "soundness": ("check_soundness",),
    "typedgraph": (
        "Graph", "InstanceGraph", "Multiplicity", "TypeGraph", "UnknownType", "all_sub",
        "check_multiplicities", "check_type_graph", "check_typing", "check_validity", "conforms",
    ),
    "variability": (
        "AnnotatedTypeGraph", "FeatureConfig", "InvalidConfig", "annotate_150", "apply_deltas",
        "derive_type_graph", "enumerate_configs", "validate_config",
    ),
    "_value": ("replace",),
}

#: Each public name and the module that defines it.
_EXPORTS = {name: module for module, names in _PUBLIC.items() for name in names}

#: The package's modules, also reachable as attributes (``bigtg.mapping``).
_MODULES = frozenset(_PUBLIC) | {"cli", "fileio", "generators", "writers"}

__all__ = sorted(_EXPORTS)


def _module(name: str) -> object:
    # The import statement's own machinery, unlike importlib.import_module,
    # reports the module to ``python -X importtime``.
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str) -> object:
    if name in _MODULES:
        return _module(name)
    if name in _EXPORTS:
        return getattr(_module(_EXPORTS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULES | set(__all__))
