"""divset: exact selection of k pairwise-distant binary vectors from rows
with unknown entries, plus the graph reductions and first-order logic
tooling built around the same instances.  The package exports nothing:
import each name from the module that defines it."""
