"""Weight-space merging, logit ensembling, and landscape analysis for
families of models fine-tuned from one shared initialization.

Submodules
----------
- :mod:`soupkit.rng` — portable, platform-independent random streams
- :mod:`soupkit.datagen` — synthetic Gaussian-mixture classification tasks
- :mod:`soupkit.tensorstore` — the SOUPCKPT file format, the float32
  ``Checkpoint`` and float64 ``Params`` over one shared layout, and
  float64-accumulated weight-space arithmetic
- :mod:`soupkit.tinynet` — a small ReLU MLP: forward, loss, analytic
  gradients, logit-space Hessian forms
- :mod:`soupkit.schema` — every record read from a file: run configs,
  sweep manifests, checkpoint headers and pair files
- :mod:`soupkit.trainer` — SGD/AdamW pretraining and fine-tuning,
  random-search sweeps
- :mod:`soupkit.soups` — uniform, greedy, and learned weight averaging
- :mod:`soupkit.ensembles` — logit ensembles, temperature scaling,
  equal-mass-bin calibration error
- :mod:`soupkit.analysis` — interpolation advantage, pair angles, loss
  planes, and the second-order soup-vs-ensemble loss-gap approximation
- :mod:`soupkit.cli` — the ``soupkit`` command-line pipeline
"""

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "cli",
    "datagen",
    "ensembles",
    "errors",
    "fileio",
    "rng",
    "schema",
    "soups",
    "tensorstore",
    "tinynet",
    "trainer",
]
