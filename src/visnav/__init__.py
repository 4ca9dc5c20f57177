"""Landmark-aided inertial navigation observer and analysis tools."""

from . import (dataio, errors, geom, hybrid, measurement, observability,
               observer, sim)

__all__ = ["dataio", "errors", "geom", "hybrid", "measurement",
           "observability", "observer", "sim"]
__version__ = "0.1.0"
