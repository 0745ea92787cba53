"""The Section 8 extensions, outside what a ``ResolutionSpec`` runs.

* :mod:`.negation` — negative rules (``NegativeRule``), their conflicts
  with Σ (``find_conflicts``) and a rule set they veto
  (``GuardedRuleSet``);
* :mod:`.miner` — MD discovery from a labelled sample;
* :mod:`.synonyms` — synonym tables and synonym-aware metrics.

``examples/md_discovery.py`` walks through all three.
"""
