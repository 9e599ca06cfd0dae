"""Loop measures, loop soups, and Gaussian free fields for complex edge
weights on finite state spaces.

The core objects are acceptable weight matrices (entrywise absolute value has
spectral radius below one), their Green's functions, the loop measure
Q(loop)/|loop|, loop-erased walks and Wilson's spanning tree sampler, Poisson
loop soups with occupation fields, and the squared-field isomorphism linking
them to Gaussian free fields, including Hermitian weights via two-sheet
doubling.

Only the objects of the README's library example are re-exported here;
everything else is reached through its module, e.g. ``loopsoup.soup``.
"""

from .errors import LoopSoupError
from .matrices import WeightMatrix, greens_exact
from .rng import substream
from .soup import SoupSampler

__version__ = "0.1.0"

__all__ = [
    "LoopSoupError",
    "SoupSampler",
    "WeightMatrix",
    "greens_exact",
    "substream",
]
