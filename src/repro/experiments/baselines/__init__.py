"""The Fig. 9 baselines: Fellegi–Sunter over a global window.

* :mod:`.comparison` — comparison vectors, from RCKs (FSrck) or plain
  equality on every target pair (FS);
* :mod:`.em` — the EM estimate of the model's m/u parameters;
* :mod:`.fellegi_sunter` — the posterior-odds classifier;
* :mod:`.windowing` — RCK-derived sort keys and the global-window
  candidate pass both configurations share.

:mod:`repro.experiments.exp_fs` runs them; the ``repro`` command never
does.
"""
