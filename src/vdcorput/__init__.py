"""Exponential sums, the van der Corput transform, and its error budget."""

__version__ = "0.1.0"
