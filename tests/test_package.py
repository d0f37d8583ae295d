import importlib

import egomwf


def test_every_export_resolves():
    assert len(set(egomwf.__all__)) == len(egomwf.__all__)
    for name in egomwf.__all__:
        obj = getattr(egomwf, name)
        # each export is defined in a package module that still carries it
        module = importlib.import_module(obj.__module__)
        assert module.__name__.startswith("egomwf.")
        assert getattr(module, name) is obj

