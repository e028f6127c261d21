"""Open-domain recognition toolkit.

Trains a shared encoder and a full classifier head on a labeled source
domain covering only part of the target's categories: classifier weights
for the missing categories are propagated over a class taxonomy by a graph
convolution, a Hungarian-matched cross-domain discrepancy aligns the
feature distributions, and a limited balance constraint keeps the unknown
class probability mass in a sensible range.
"""

__version__ = "0.1.0"
