"""Numerical verification toolkit for friable values of affine-linear forms.

Modules:
    sieve      exact factor tables, Psi(N, y), sifted squarefree enumeration
    dickman    the Dickman function rho(u) to high precision
    forms      form systems, convex bodies, exact friable counts vs main term
    analytic   saddle point, singular series, sifted Mobius sums
    gowers     Gowers uniformity norms U^2..U^4 (cyclic and interval)
    correlate  balanced friable functions, Mobius truncation, phase correlations
    criteria   acceptance criteria 1-8, shared by `friable verify` and the tests
    cli        command-line front end
"""

__version__ = "0.1.0"
