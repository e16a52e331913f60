from setuptools import Extension, setup

# The compiled kernel module is optional: if it fails to build, the install
# still succeeds and the package falls back to the pure Python twin
# (sincsum._kernels_py).
setup(
    ext_modules=[
        Extension("sincsum._kernels_c", ["src/sincsum/_kernels_c.c"], optional=True)
    ]
)
