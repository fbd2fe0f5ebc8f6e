"""The package's export list: `from rectmatch import *` binds exactly the
names of `rectmatch.__all__`, each of them resolves, and every public name
that `rectmatch/__init__.py` imports is listed, so no name can be removed
from a module and left behind in the export list, or the other way round."""
import inspect

import rectmatch


def test_star_import_binds_exactly_all():
    assert len(rectmatch.__all__) == len(set(rectmatch.__all__))
    ns: dict = {}
    exec("from rectmatch import *", ns)
    del ns["__builtins__"]
    assert set(ns) == set(rectmatch.__all__)
    for name in rectmatch.__all__:
        assert ns[name] is getattr(rectmatch, name)
        assert ns[name].__module__.startswith("rectmatch."), name


def test_every_imported_public_name_is_exported():
    imported = {
        name for name, value in vars(rectmatch).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert imported == set(rectmatch.__all__)
