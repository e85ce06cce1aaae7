import importlib
import inspect

import volterra

# every submodule the package re-exports by name; io is reached as volterra.io
STAR_EXPORTED = (
    "combinatorics", "kernels", "evaluation", "actions", "morphisms", "algebra", "tfd", "dsl",
)


def test_package_exports_each_submodule_all_as_the_same_objects():
    for module_name in STAR_EXPORTED:
        module = importlib.import_module(f"volterra.{module_name}")
        for name in module.__all__:
            assert name in volterra.__all__, f"{module_name}.{name}"
            assert getattr(volterra, name) is getattr(module, name), f"{module_name}.{name}"


def test_package_exports_nothing_else_but_errors():
    declared = {
        name
        for module_name in STAR_EXPORTED
        for name in importlib.import_module(f"volterra.{module_name}").__all__
    }
    for name in set(volterra.__all__) - declared:
        obj = getattr(volterra, name)
        if not inspect.ismodule(obj):
            assert obj.__module__ == "volterra.errors", name
