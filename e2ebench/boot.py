"""Traced program launcher: ``python boot.py <module> [args...]``.

Installs the layer wrappers of :mod:`layers` (spans written into the
directory named by ``E2EBENCH_SPANS_DIR``), then runs ``<module>`` as
``__main__`` exactly as ``python -m <module> [args...]`` would.
"""

import os
import runpy
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import install  # noqa: E402

if __name__ == "__main__":
    module = sys.argv[1]
    install(os.environ["E2EBENCH_SPANS_DIR"])
    sys.argv = [module, *sys.argv[2:]]
    runpy.run_module(module, run_name="__main__", alter_sys=True)
