"""The experiments — one module per figure of Section 6 — and what
only they run.

* :mod:`repro.experiments.exp_scalability` — Fig. 8(a–c)
* :mod:`repro.experiments.exp_fs` — Fig. 9(a–c)
* :mod:`repro.experiments.exp_sn` — Fig. 10(a–c)
* :mod:`repro.experiments.exp_blocking` — Figs. 9(d), 10(d) and the
  windowing variant of Exp-4
* :mod:`repro.experiments.baselines` — the Fig. 9 Fellegi–Sunter
  baselines and the global window they share
* :mod:`repro.experiments.extensions` — the Section 8 extensions:
  negative rules, MD discovery, synonyms

Each figure module exposes ``run(...)`` returning plain records and ``render``
producing the text table recorded in EXPERIMENTS.md.
"""

from . import exp_blocking, exp_fs, exp_scalability, exp_sn
from .harness import Table, Timer, records_to_table, timed

__all__ = [
    "Table",
    "Timer",
    "exp_blocking",
    "exp_fs",
    "exp_scalability",
    "exp_sn",
    "records_to_table",
    "timed",
]
