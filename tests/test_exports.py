"""Every exported name resolves, so a moved or deleted helper leaves no dangling export."""

import ndlinear


def test_package_exports_resolve():
    missing = [name for name in ndlinear.__all__ if not hasattr(ndlinear, name)]
    assert missing == []


def test_mode_k_product_is_exported_from_the_oracle():
    assert ndlinear.mode_k_product is ndlinear.oracle.mode_k_product
