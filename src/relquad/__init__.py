"""Reliability-first adaptive quadrature with explicit interpolant representations."""

__all__ = [
    "DivergentIntegral",
    "QuadResult",
    "Status",
    "int_naive",
    "int_refined",
    "int_simpson_baseline",
    "divergence_ratio_probe",
    "NaiveConfig",
    "RefinedConfig",
]

_ENGINE_NAMES = {"DivergentIntegral", "QuadResult", "Status"}
_ALGORITHM_NAMES = {
    "int_naive",
    "int_refined",
    "int_simpson_baseline",
    "divergence_ratio_probe",
    "NaiveConfig",
    "RefinedConfig",
}


def __getattr__(name):
    # Lazy imports keep `import relquad` from loading numpy and the
    # submodules until a name is used; stencils are built later still, one
    # degree at a time, when get_stencil is first asked for it.
    if name in _ENGINE_NAMES:
        from relquad import engine

        return getattr(engine, name)
    if name in _ALGORITHM_NAMES:
        from relquad import algorithms

        return getattr(algorithms, name)
    raise AttributeError(f"module 'relquad' has no attribute {name!r}")
