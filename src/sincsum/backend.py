"""Kernel backend selection.

The compiled C core (``_kernels_c``) is preferred when it imported
cleanly; otherwise the pure-Python twin takes over.  ``SINCSUM_BACKEND=python``
forces the fallback (useful for benchmarking and differential testing) and
``SINCSUM_BACKEND=compiled`` makes a missing extension a hard error.
"""

import os

_requested = os.environ.get("SINCSUM_BACKEND", "auto").strip().lower()

if _requested in ("auto", "", "compiled"):
    try:
        from . import _kernels_c as _impl  # type: ignore[attr-defined]
    except ImportError:
        if _requested == "compiled":
            raise
        from . import _kernels_py as _impl
elif _requested == "python":
    from . import _kernels_py as _impl
else:
    raise ImportError(f"unknown SINCSUM_BACKEND value: {_requested!r}")

BACKEND = _impl.backend_name()

FLOAT_SLACK = _impl.FLOAT_SLACK
sinc = _impl.sinc
sinc_sq = _impl.sinc_sq
dsinc = _impl.dsinc
zeta_em = _impl.zeta_em
power_sum_fixed = _impl.power_sum_fixed
power_sum_zeta = _impl.power_sum_zeta
power_sum_routes = _impl.power_sum_routes
power_sum_deriv = _impl.power_sum_deriv
