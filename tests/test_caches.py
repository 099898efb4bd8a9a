"""The library's ``functools`` caches: each one has a measured byte bound,
stated where it is declared, and a finite ``maxsize``."""

import importlib
import pkgutil

import redkit

# every cache the library declares; a new one joins this set once its
# bound is measured and stated
BOUNDED = {"_uss_shape", "_zkk_shape", "_landau_table", "_ilp_columns",
           "_vector_masks", "_block", "_cps_shape", "_cps_element"}


def _caches():
    """{qualified name: cache} over every ``redkit`` submodule's globals and
    the attributes of the classes it defines."""
    found = {}
    for info in pkgutil.iter_modules(redkit.__path__):
        module = importlib.import_module(f"redkit.{info.name}")
        objs = list(vars(module).values())
        objs += [v for cls in objs if isinstance(cls, type)
                 and cls.__module__ == module.__name__
                 for v in vars(cls).values()]
        for obj in objs:
            if hasattr(obj, "cache_info") and \
                    getattr(obj, "__module__", None) == module.__name__:
                found[obj.__qualname__] = obj
    return found


def test_every_cache_is_a_bounded_one():
    caches = _caches()
    assert set(caches) == BOUNDED
    for name, cache in caches.items():
        assert cache.cache_info().maxsize is not None, name
