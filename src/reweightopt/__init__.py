"""Loss-reweighted stochastic gradient methods and verification oracles.

The library trains small models with per-sample importance weights
derived from clipped loss transforms, provides tilted and moving-average
baselines, exact worst-case-distribution solvers over finite supports,
deterministic synthetic dataset generators, and a CLI harness for
experiments, sweeps, and verification suites.

The package root binds none of its modules' names: import each from
the module that defines it (``from reweightopt.optim import rgd_step``),
so that importing one module loads only what that module imports.
README's "Modules" section lists which module holds which name.
"""

__version__ = "0.1.0"
