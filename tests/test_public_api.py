"""Every name the package exports is used by the package itself, or is a deliberate oracle."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "energy_contracts"

# independent cross-checks of production formulas: the tests call them, the package does not
ORACLES = (
    "complete_info_contract",
    "quadratic_coefficients",
    "dap_utility",
    "eap_utility",
    "social_welfare",
    "expected_dap_utility",
    "brute_force_best_contract",
    "monte_carlo_expected_welfare",
)


def exported_names() -> set[str]:
    imports = [node for node in ast.parse((PACKAGE / "__init__.py").read_text()).body if isinstance(node, ast.ImportFrom)]
    return {alias.asname or alias.name for node in imports for alias in node.names}


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
    exported = exported_names()
    assert set(ORACLES) <= exported
    assert sorted(exported - referenced_names() - set(ORACLES)) == []
