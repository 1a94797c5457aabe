"""latmat: lattice path matroids from explicit basis families.

Subpackages by concern:

- :mod:`latmat.kernel` -- matroid values, axioms, minors, duality, sums,
  parallel connection, isomorphism, text format;
- :mod:`latmat.flats` -- flat enumeration and classification;
- :mod:`latmat.lpm` -- interval presentations, the three recognizers, the
  check that they agree and the catalog verifier;
- :mod:`latmat.catalog` -- the excluded-minor families;
- :mod:`latmat.minors` -- minor containment and the catalog search;
- :mod:`latmat.corpus` -- deterministic test-corpus generation;
- :mod:`latmat.cli` -- the ``latmat`` command line tool.
"""

from .kernel import Matroid, from_bases, uniform

__version__ = "0.1.0"

__all__ = ["Matroid", "from_bases", "uniform", "__version__"]
