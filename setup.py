"""Build hook for the optional compiled sampling kernel.

The package is pure Python; qprobe._flipcore_c is a plain C accelerator for
the per-shot flip sampler.  The extension is optional: without a C compiler
the build skips it and the package uses the numpy kernel, which gives the
same bits.
"""

from setuptools import Extension, setup

setup(ext_modules=[
    Extension("qprobe._flipcore_c", ["src/qprobe/_flipcore_c.c"],
              extra_compile_args=["-O3"], optional=True),
])
