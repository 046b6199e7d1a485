"""Tests for the package's public API."""

import hardy3q


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from hardy3q import *", namespace)
    for name in hardy3q.__all__:
        assert namespace[name] is getattr(hardy3q, name)
