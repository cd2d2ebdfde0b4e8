"""Sequential consistency, for tests of either dialect.

An execution is sequentially consistent when program order and
communication, ``po | rf | co | fr``, are acyclic (Shasha and Snir,
TOPLAS 1988; the SC model of herdtools7), and exchanges are atomic, by the
same axiom as the other two models.  Memory orders, release and acquire
accesses and barriers play no part: every access is ordered anyway.  The
outcomes are exactly those of interleaving whole statements.

Relations are bitmask rows (see ``relations``); po is built once per event
graph and ``com`` comes with the candidate, so the model only ORs them.

The model is antitone in ``(com, eco_before)``: ``po | com`` only grows
with ``com``, and both axioms forbid edges, so dropping any edges of a
consistent execution leaves it consistent.  ``allowed_outcomes`` relies on
this when a rejected meet rejects a whole product, and any new axiom must
keep it (``check_antitone_law`` in ``tests/support.py`` tests it).
"""

from __future__ import annotations

from .execution import Execution, atomicity_holds
from .relations import is_acyclic


def sc_consistent(execution: Execution) -> bool:
    """SC, ``po | com`` acyclic, and ATOMICITY."""
    return (is_acyclic([p | c for p, c in
                        zip(execution.graph.po, execution.com)])
            and atomicity_holds(execution))
