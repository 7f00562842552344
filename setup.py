"""Build script: compiles the optional search kernel extension.

With Cython the extension is built from ``_kernel_cy.pyx``; without it,
from the committed generated ``_kernel_cy.c``.  The extension is optional:
if it cannot be compiled, escape3x3.kernel falls back to the pure-Python
twin.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

source = "src/escape3x3/_kernel_cy.pyx" if cythonize else "src/escape3x3/_kernel_cy.c"
ext_modules = [
    Extension("escape3x3._kernel_cy", [source], extra_compile_args=["-O2"], optional=True)
]
if cythonize:
    ext_modules = cythonize(ext_modules, language_level=3)

setup(ext_modules=ext_modules)
