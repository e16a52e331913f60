"""Shared test settings and the compiled kernel twin."""

import importlib.util
import shutil
import sysconfig
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from sincsum import _kernels_py

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

SOURCE = Path(_kernels_py.__file__).resolve().parent / "_kernels_c.c"


def _compiler_found() -> bool:
    cc = sysconfig.get_config_var("CC") or "cc"
    return shutil.which(cc.split()[0]) is not None


@pytest.fixture(scope="session")
def extension_path(tmp_path_factory) -> Path:
    """Compile the C kernels with setuptools into a temporary build tree."""
    if not _compiler_found():
        pytest.skip("no C compiler found")
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    out = tmp_path_factory.mktemp("kernels_c")
    dist = Distribution(
        {"ext_modules": [Extension("sincsum._kernels_c", [str(SOURCE)])]}
    )
    cmd = build_ext(dist)
    cmd.build_lib = str(out / "lib")
    cmd.build_temp = str(out / "temp")
    cmd.ensure_finalized()
    cmd.run()
    return Path(cmd.get_ext_fullpath("sincsum._kernels_c"))


@pytest.fixture(scope="session")
def compiled(extension_path):
    spec = importlib.util.spec_from_file_location("sincsum._kernels_c", extension_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["pure", "compiled"])
def twin_kernels(request):
    """Each kernel twin in turn: the pure module, then the compiled one."""
    if request.param == "pure":
        return _kernels_py
    return request.getfixturevalue("compiled")
