"""Every name the package exports is used by the package itself, or is a deliberate oracle."""

import ast
import importlib
from pathlib import Path

import pytest

import energy_contracts

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "energy_contracts"

# independent cross-checks of production formulas: the tests call them, the package does not
ORACLES = (
    "complete_info_contract",
    "dap_utility",
    "eap_utility",
    "social_welfare",
    "expected_dap_utility",
    "brute_force_best_contract",
    "monte_carlo_expected_welfare",
)


def exported_names() -> set[str]:
    return set(energy_contracts._EXPORTS)


def referenced_names() -> set[str]:
    """Names read as code (a name or an attribute) by the modules other than __init__.py:
    a docstring, an import or a definition alone does not count."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_export_is_used_or_an_oracle():
    exported, referenced = exported_names(), referenced_names()
    assert set(ORACLES) <= exported
    assert sorted(set(ORACLES) & referenced) == []  # a name the package calls is no oracle
    assert sorted(exported - referenced - set(ORACLES)) == []


def test_every_export_resolves_and_is_listed():
    for name, module in energy_contracts._EXPORTS.items():
        assert getattr(energy_contracts, name) is getattr(importlib.import_module(f"energy_contracts.{module}"), name)
    assert set(energy_contracts._EXPORTS) <= set(dir(energy_contracts))
    assert sorted(energy_contracts.__all__) == sorted(energy_contracts._EXPORTS)
    with pytest.raises(AttributeError, match="no_such_name"):
        energy_contracts.no_such_name
