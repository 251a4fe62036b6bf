"""Fourier analysis on finite abelian groups and random G-circulant spectra.

The modules are the interface: `groups`, `fourier`, `ensembles`, `spectra`,
`limits` and `cli` form the index-encoded run path, and `oracle` holds the
exact tuple-model checks it is tested against.
"""

__version__ = "0.1.0"
