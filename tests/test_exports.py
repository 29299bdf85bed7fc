"""Public names: every module's ``__all__`` resolves, the package's is
their concatenation, the cross-routes and their quadrature live only in
the verifier, every name the benchmark tracer wraps exists, and the traced
reconstruction samples its grid once."""

import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import cylwigner
from cylwigner import cli, dynamics, specfun, states, thermal, verify, wigner

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


def test_package_all_concatenates_the_module_lists():
    lists = [specfun.__all__, states.__all__, wigner.__all__, dynamics.__all__, thermal.__all__]
    assert cylwigner.__all__ == [name for names in lists for name in names]
    assert len(set(cylwigner.__all__)) == len(cylwigner.__all__) == 49


def test_package_binds_only_its_public_names():
    # the wildcard imports bring in each module's __all__ and nothing else:
    # bessel_i_scaled and oscillation_order stay module-level names
    public = {
        name for name, value in vars(cylwigner).items() if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(cylwigner.__all__)
    assert "bessel_i_scaled" not in specfun.__all__ and "oscillation_order" not in specfun.__all__


@pytest.mark.parametrize("route", CROSS_ROUTES)
def test_cross_routes_live_in_verify_only(route):
    assert route in verify.__all__ and callable(getattr(verify, route))
    assert not hasattr(wigner, route)
    assert not hasattr(cylwigner, route)


@pytest.mark.parametrize("name", ["gauss_legendre_rule", "integrate_theta", "integrate_interval"])
def test_quadrature_lives_in_verify_only(name):
    # the library's integrals are exact finite sums; only the cross-routes integrate numerically
    assert name in verify.__all__ and callable(getattr(verify, name))
    assert not hasattr(specfun, name)
    assert not hasattr(cylwigner, name)


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_exist():
    # the tracer wraps these names from outside; a refactor that drops one
    # silently loses its per-layer metrics
    tracing = _load_tracing()
    absent = [
        (module, attr)
        for module, attr, *_ in tracing.TARGETS
        if not hasattr(importlib.import_module(module), attr)
    ]
    absent += [
        (module, cls, method)
        for module, cls, method, _ in tracing.METHOD_TARGETS
        if method not in vars(getattr(importlib.import_module(module), cls))
    ]
    assert absent == []


def test_tracer_counts_one_grid_sample_per_reconstruction(tmp_path):
    # the tracer wraps the reconstruction sampler as a one-argument callable;
    # a sampler-signature change breaks the traced tomography run
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["--command", "reconstruct", "--state", "cat", "--out", str(tmp_path / "r.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.counts["wigner.reconstruct_density"]["sampler_calls"] == 1
    assert tracer.counts["_kernels.phase_space_sum_grid"]["calls"] > 0
