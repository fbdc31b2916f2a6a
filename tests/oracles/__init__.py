"""Scalar equivalence oracles for the vectorized kernels in ``src/``.

Every fast kernel in :mod:`repro` replaced a straightforward scalar loop.
The loops live on here, outside the shipped package, as the permanent
specification the fast paths are tested against:

* :mod:`oracles.mds` — one-restart-at-a-time SMACOF and the stack-based
  PAVA (``smacof_reference``, ``isotonic_regression_reference``);
* :mod:`oracles.models` — the per-job generation loops of the Lublin,
  Feitelson 96/97, Jann and user-session models, each taking the model
  instance and consuming its shared draw schedule;
* :mod:`oracles.bootstrap` — the per-replicate ``Coplot.fit`` bootstrap;
* :mod:`oracles.scheduler` — the original per-event simulator loop;
* :mod:`oracles.selfsim` — the per-window R/S and per-size
  variance-time loops.

The equivalence suites under ``tests/`` and the kernel speedup gate in
``benchmarks/perf_kernels.py`` import them as ``oracles.*``.
"""
