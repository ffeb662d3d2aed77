"""Every exported name resolves, so a moved or deleted helper leaves no dangling export."""

import importlib
import pkgutil

import pytest

import ndlinear

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(ndlinear.__path__)
                    if m.name != "__main__")


def test_package_exports_resolve():
    missing = [name for name in ndlinear.__all__ if not hasattr(ndlinear, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"ndlinear.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def test_mode_k_product_is_exported_from_the_oracle():
    assert ndlinear.mode_k_product is ndlinear.oracle.mode_k_product
