"""Numerical laboratory for stochastic recursive control with state delay.

The modules are the API: import them (from delaylab import core, merton, ...)
and use their names as module.name.
"""

__version__ = "0.1.0"
