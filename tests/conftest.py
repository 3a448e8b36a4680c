import numpy as np
import pytest

from natpdm import numerics


@pytest.fixture
def break_dstebz(monkeypatch):
    """Install one LAPACK fault for the test: "nonfinite", "certificate" or "missing".

    "nonfinite" hands LAPACK a diagonal with a NaN, "certificate" moves the
    lowest level LAPACK returns by 1 so the Sturm sweep rejects it, and
    "missing" makes the symbol lookup fail.
    """
    resolve = numerics._dstebz
    real = resolve()

    def install(kind):
        if kind == "missing":
            class NoSymbols:
                def __init__(self, path):
                    pass

            resolve.cache_clear()
            monkeypatch.setattr(numerics.ctypes, "CDLL", NoSymbols)
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
    # drop what the fault left cached, so the next solve resolves the real symbol
    resolve.cache_clear()
