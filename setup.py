"""Build script for the optional compiled transform kernel.

The package works without the extension: kronjl.fwht falls back to a
blocked numpy kernel when kronjl._fwht_cy is missing, so the
extension is marked optional and a failed build only emits a warning.
"""

import numpy
from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    ext_modules = []
else:
    ext_modules = cythonize(
        [
            Extension(
                "kronjl._fwht_cy",
                ["src/kronjl/_fwht_cy.pyx"],
                include_dirs=[numpy.get_include()],
                extra_compile_args=["-O3"],
            )
        ],
        compiler_directives={"language_level": "3"},
    )
    for ext in ext_modules:
        ext.optional = True

setup(ext_modules=ext_modules)
