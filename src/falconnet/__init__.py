"""falconnet: factorized light-weight CNN operators as a numpy library.

The toolkit covers four layers of structure, from fine to coarse:

* reference tensor kernels (conv2d, inference batch norm, pooling, linear),
* RepSO, a multi-branch depthwise spatial operator that merges into a
  single biased 3x3 kernel for inference,
* SF-Conv, a two-stage sparse factorization of the dense 1x1 convolution
  that keeps a full receptive range, and RefCO, its multi-branch training
  form that merges back into one SF-Conv,
* LightNet / FalconNet model assembly with declarative block configs, a
  fusion engine, parameter/Flops accounting, weight serialization, and a
  command-line front end (see falconnet.cli).
"""

# Each module's __all__ lists its public names; the package re-exports them.
from .ops import *
from .spatial import *
from .channel import *
from .store import *
from .model import *
from .costs import *

__version__ = "0.1.0"

__all__ = [*ops.__all__, *spatial.__all__, *channel.__all__, *store.__all__, *model.__all__,
           *costs.__all__]
