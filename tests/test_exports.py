"""The package's exports: a pinned list, each name resolved on first use,
no module-level import left unused and no private module-level name left
unread."""

import ast
import importlib
from collections import defaultdict
from pathlib import Path

import pytest

import banach_gauge

EXPORTS = [
    "AllPointsCoincide", "BadEpsilon", "BadSupportBound", "BanachGaugeError", "C2LowerBound",
    "ConeReduction", "CotypeCertificate", "DegenerateInput", "DistortionReport", "DomainError",
    "EmbeddingFailed", "EvalStats", "FinVec", "FlatSearchResult", "GrowthResult", "InvalidBound",
    "Leaf", "LinearMap", "MTooLarge", "MalformedCertificate", "MechanismReport", "NegativeEntry",
    "NormCertificate", "NormResult", "Part", "PointSet", "Rat", "RatioEstimate", "RatioUndefined",
    "SpaceOracle", "Split", "SupportTooLarge", "TooManyVectors", "VectorFamily", "WalshEnsemble",
    "ZeroFamily", "ZeroTail", "abs_square", "ackermann_g", "alpha", "alpha_diag",
    "c2_lower_from_witness", "caratheodory_reduce", "certificate_from_json", "certificate_to_json",
    "certificate_value", "cotype_certificate", "delta_bound", "diagonal_sqrt_family",
    "distortion_of_map", "errors", "fit_tower_constant", "flatness", "flatsearch", "flm_reduce",
    "fwht", "gauss", "gaussian_ratio", "growth", "jl", "jl_embed", "jl_mechanism_experiment",
    "kwapien_upper", "l1_norm", "log_star", "modified_norm", "modified_norm_batch",
    "modified_norm_batch_exact", "modified_t2_norm_sq", "norming_functional", "rademacher_ratio",
    "search_flat", "seeds", "seqvec", "simplex", "sup_norm", "t2_norm", "t2_norm_sq", "tsirelson",
    "tsirelson_norm", "tsirelson_norm_batch", "tsirelson_norm_batch_exact",
    "tsirelson_norm_bruteforce", "validate_certificate", "walsh_orthogonality_check",
    "walsh_pointset",
]
SUBMODULES = ["errors", "flatsearch", "gauss", "growth", "jl", "seeds", "seqvec", "simplex",
              "tsirelson"]


def test_all_is_pinned_and_every_name_resolves():
    assert banach_gauge.__all__ == EXPORTS
    for name in EXPORTS:
        getattr(banach_gauge, name)


def test_star_import_binds_every_export():
    ns: dict = {}
    exec("from banach_gauge import *", ns)
    assert set(EXPORTS) <= set(ns)
    assert ns["tsirelson_norm_batch"] is importlib.import_module("banach_gauge.batch").tsirelson_norm_batch


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodules_are_attributes(name):
    assert getattr(banach_gauge, name) is importlib.import_module(f"banach_gauge.{name}")


@pytest.mark.parametrize("name,home", [
    ("FinVec", "seqvec"), ("ZeroTail", "errors"), ("tsirelson_norm", "tsirelson"),
    ("modified_norm_batch_exact", "batch"), ("SpaceOracle", "gauss"), ("jl_embed", "jl"),
    ("ackermann_g", "growth"), ("search_flat", "flatsearch"),
])
def test_an_export_is_its_home_module_object(name, home):
    assert getattr(banach_gauge, name) is getattr(importlib.import_module(f"banach_gauge.{home}"), name)


@pytest.mark.parametrize("name", ["no_such_name", "_HOME_x", "np", "exact_dtype"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(banach_gauge, name)


def test_only_the_package_binds___all__():
    # _EXPORTS in __init__ is the one export list; a module's own __all__ would restate it
    paths = sorted(Path(banach_gauge.__file__).parent.glob("*.py"))
    binders = [p.name for p in paths
               if any(isinstance(n, ast.Name) and n.id == "__all__" and isinstance(n.ctx, ast.Store)
                      for n in ast.walk(ast.parse(p.read_text(encoding="utf-8"))))]
    assert binders == ["__init__.py"]


def _unused_imports(path: Path) -> list[str]:
    """Module-level imports of ``path`` that its code never reads;
    ``from __future__`` imports are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", sorted(Path(banach_gauge.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_level_import_is_unused(path):
    assert _unused_imports(path) == []


def _unread_private_names(paths: list[Path]) -> list[str]:
    """Private module-level names (one leading underscore) bound by a def,
    class or assignment that no other top-level statement of ``paths`` reads,
    as a name, an attribute or an imported name."""
    defined: dict[tuple[str, str], tuple[int, int]] = {}
    readers: dict[str, set[tuple[str, int]]] = defaultdict(set)
    for path in paths:
        for i, node in enumerate(ast.parse(path.read_text(encoding="utf-8")).body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[path.name, name] = (i, node.lineno)
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    readers[n.id].add((path.name, i))
                elif isinstance(n, (ast.Attribute, ast.alias)):
                    readers[n.attr if isinstance(n, ast.Attribute) else n.name].add((path.name, i))
    return [f"{module}:{line} {name}" for (module, name), (i, line) in defined.items()
            if not readers[name] - {(module, i)}]


def test_no_private_module_level_name_is_unread():
    # a helper whose last caller is deleted (a recursive one too) shows here
    paths = sorted(Path(banach_gauge.__file__).parent.glob("*.py"))
    assert _unread_private_names(paths) == []
