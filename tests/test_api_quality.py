"""Meta-tests on the public API surface: exports resolve, everything public
is documented, and the experiment registry matches its documentation."""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.util",
    "repro.stats",
    "repro.workload",
    "repro.coplot",
    "repro.coplot.mds",
    "repro.models",
    "repro.selfsim",
    "repro.archive",
    "repro.scheduler",
    "repro.runtime",
    "repro.experiments",
]


def _public_objects(module):
    names = getattr(module, "__all__", None)
    if names is None:
        return []
    return [(name, getattr(module, name)) for name in names]


def _modules_with_submodules():
    """Every package in PACKAGES plus its direct submodules."""
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        yield pkg
        for info in pkgutil.iter_modules(getattr(pkg, "__path__", [])):
            yield importlib.import_module(f"{pkg_name}.{info.name}")


def _public_callables(module):
    """(qualified name, callable) for every exported function, class and
    public method (constructors included) of *module*."""
    for name, obj in _public_objects(module):
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            yield f"{module.__name__}.{name}", obj.__init__
            for attr, member in inspect.getmembers(obj, callable):
                if not attr.startswith("_"):
                    yield f"{module.__name__}.{name}.{attr}", member


class TestExports:
    @pytest.mark.parametrize("pkg", PACKAGES)
    def test_all_exports_resolve(self, pkg):
        module = importlib.import_module(pkg)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{pkg}.__all__ lists missing {name}"

    @pytest.mark.parametrize("pkg", PACKAGES)
    def test_package_has_docstring(self, pkg):
        module = importlib.import_module(pkg)
        assert module.__doc__ and len(module.__doc__.strip()) > 40, pkg


class TestSingleImplementation:
    """Each kernel ships one production path: no public ``engine`` switch
    selects between implementations, and the scalar oracles live in
    ``tests/oracles/`` rather than in the package's exports."""

    def test_no_engine_parameter(self):
        offenders = []
        for module in _modules_with_submodules():
            for qualname, fn in _public_callables(module):
                try:
                    params = inspect.signature(fn).parameters
                except (TypeError, ValueError):
                    continue
                if "engine" in params:
                    offenders.append(qualname)
        assert not offenders, f"public callables taking engine=: {sorted(set(offenders))}"

    def test_no_reference_exports(self):
        offenders = [
            f"{module.__name__}.{name}"
            for module in _modules_with_submodules()
            if module.__name__ != "repro.workload.swf"
            for name in getattr(module, "__all__", [])
            if name.endswith("_reference")
        ]
        assert not offenders, f"*_reference names exported: {sorted(set(offenders))}"


class TestDocstrings:
    @pytest.mark.parametrize("pkg", PACKAGES)
    def test_public_callables_documented(self, pkg):
        module = importlib.import_module(pkg)
        undocumented = []
        for name, obj in _public_objects(module):
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(f"{pkg}.{name}")
        assert not undocumented, f"undocumented public API: {undocumented}"

    def test_all_submodules_have_docstrings(self):
        missing = []
        for pkg_name in PACKAGES:
            pkg = importlib.import_module(pkg_name)
            if not hasattr(pkg, "__path__"):
                continue
            for info in pkgutil.iter_modules(pkg.__path__):
                mod = importlib.import_module(f"{pkg_name}.{info.name}")
                if not (mod.__doc__ and mod.__doc__.strip()):
                    missing.append(mod.__name__)
        assert not missing, f"modules without docstrings: {missing}"


class TestExperimentRegistry:
    def test_registry_matches_docs(self):
        from repro.experiments import EXPERIMENTS

        doc = importlib.import_module("repro.experiments").__doc__
        for exp_id in EXPERIMENTS:
            assert exp_id in doc, f"experiment {exp_id} undocumented in package doc"

    def test_every_experiment_produces_renderable_result(self):
        """The runner contract: each run_* returns something with render()
        and (directly or callably) claims."""
        from repro.experiments import EXPERIMENTS

        for exp_id, fn in EXPERIMENTS.items():
            sig = inspect.signature(fn)
            assert all(
                p.default is not inspect.Parameter.empty
                or p.kind is inspect.Parameter.VAR_KEYWORD
                for p in sig.parameters.values()
            ), f"{exp_id} requires positional arguments"


class TestVersioning:
    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)
