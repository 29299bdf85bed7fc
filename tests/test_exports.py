"""Public names: every module's ``__all__`` resolves, and the cross-routes
live only in the verifier."""

import importlib
import pkgutil

import pytest

import cylwigner
from cylwigner import verify, wigner

MODULES = ["cylwigner"] + [
    f"cylwigner.{info.name}" for info in pkgutil.iter_modules(cylwigner.__path__) if info.name != "__main__"
]
CROSS_ROUTES = (
    "momentum_marginal_via_quadrature",
    "angle_marginal_via_swap",
    "total_integral",
    "total_integral_via_quadrature",
    "wigner_pair_integral",
    "extract_probability_via_quadrature",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("route", CROSS_ROUTES)
def test_cross_routes_live_in_verify_only(route):
    assert route in verify.__all__ and callable(getattr(verify, route))
    assert not hasattr(wigner, route)
    assert not hasattr(cylwigner, route)
