"""Lattice point counts of k-spheres and their mean-square discrepancy.

The library computes exact representation numbers r_k(n), the lattice
discrepancy P_k = S_k - V_k n^{k/2}, smoothed / sharp / Laplace-transformed
second moments and weighted first moments, the explicit constants their
asymptotics predict, and recovers the one constant (the dimension-three X^2
coefficient, approximately 10.6) that has no closed form, by constrained
least squares.  `python -m gausslab verify` runs the self-check battery.
Every name lives in its module, as `gausslab.<module>.<name>`; the package
re-exports none, so `import gausslab` loads nothing else.
"""

__version__ = "0.1.0"
