"""Graph vertex coloring for catching-rule minimization (paper §6, §8.3.2).

The number of reserved header values (and of catching rules per switch)
equals the number of colors in a proper vertex coloring:

* **Strategy 1** (single reserved field): adjacent switches need distinct
  identifiers — plain vertex coloring of the topology.
* **Strategy 2** (two reserved fields): additionally, any two switches
  with a common neighbor need distinct identifiers — coloring of the
  *square* of the graph (built by adding a clique over each node's
  neighborhood, as the paper describes).

Solvers provided:

* :func:`greedy_coloring` — largest-first and DSATUR orders,
* :func:`exact_coloring` — branch-and-bound optimal coloring (the
  paper's ILP stand-in; exact like the ILP, feasible for Topology-Zoo
  sized graphs),
* :func:`square_graph` — the strategy-2 transform.
"""

from repro.coloring.greedy import greedy_coloring, GreedyOrder
from repro.coloring.exact import exact_coloring
from repro.coloring.square import square_graph
from repro.coloring.validate import is_proper_coloring

__all__ = [
    "greedy_coloring",
    "GreedyOrder",
    "exact_coloring",
    "square_graph",
    "is_proper_coloring",
]
