import numpy as np
import pytest

from natpdm import numerics


@pytest.fixture
def break_dstebz(monkeypatch):
    """Install one LAPACK fault for the test.

    "nonfinite" hands LAPACK a diagonal with a NaN, "certificate" moves the
    lowest level dstebz returns by 1 so the Sturm certificate rejects it,
    "missing" makes the lookup of dstebz, dstein and dlaebz fail,
    "dstein" makes every dstein call return info = 1 (one vector failed to
    converge) and "no-dstein" makes the lookup of dstein alone fail.
    """
    resolve = numerics._dstebz
    real = resolve()
    caches = (resolve, numerics._dstein, numerics._dlaebz)

    def install(kind):
        if kind in ("missing", "no-dstein"):
            cdll = numerics.ctypes.CDLL

            class NoSymbols:
                def __init__(self, path):
                    self.lib = cdll(path)

                def __getattr__(self, name):
                    if kind == "missing" or "dstein" in name:
                        raise AttributeError(name)
                    return getattr(self.lib, name)

            for cache in caches:
                cache.cache_clear()
            monkeypatch.setattr(numerics.ctypes, "CDLL", NoSymbols)
            return

        if kind == "dstein":
            real_dstein = numerics._dstein()

            def failing(*args):
                real_dstein(*args)
                return 1

            monkeypatch.setattr(numerics, "_dstein", lambda: failing)
            return

        def wrapper(*args):
            args = list(args)
            if kind == "nonfinite":
                args[8] = args[8].copy()
                args[8][0] = np.nan
            info = real(*args)
            if kind == "certificate":
                args[12][0] += 1.0
            return info

        monkeypatch.setattr(numerics, "_dstebz", lambda: wrapper)

    yield install
    # drop what the fault left cached, so the next solve resolves the real symbols
    for cache in caches:
        cache.cache_clear()
