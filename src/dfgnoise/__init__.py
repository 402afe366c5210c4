"""dfgnoise: efficiency and pump-noise modeling for visible-to-telecom
DFG quantum frequency converters.

The package splits into a pure physics core (:mod:`dfgnoise.converter`),
noise-spectrum synthesis and analysis (:mod:`dfgnoise.spectra`), a Monte
Carlo detection-chain model (:mod:`dfgnoise.counting`), least-squares
parameter estimation (:mod:`dfgnoise.fitting`), the plain parameter
types they share (:mod:`dfgnoise.params`), and the configuration /
file-format / CLI layer (:mod:`dfgnoise.config`, :mod:`dfgnoise.dataio`,
:mod:`dfgnoise.pipelines`, :mod:`dfgnoise.cli`).  Each name is imported
from the module that defines it.
"""

__version__ = "0.1.0"
