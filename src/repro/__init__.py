"""repro — a reproduction of "Sketching Linear Classifiers over Data
Streams" (Tai, Sharan, Bailis & Valiant, SIGMOD 2018).

The library provides:

* the **Weight-Median Sketch** (:class:`~repro.core.wm_sketch.WMSketch`)
  and **Active-Set Weight-Median Sketch**
  (:class:`~repro.core.awm_sketch.AWMSketch`) — memory-budgeted online
  linear classifiers supporting recovery of the most heavily-weighted
  features;
* every baseline the paper evaluates (truncation, frequent-features,
  feature hashing, unconstrained logistic regression);
* the classical sketch substrate (Count-Sketch, Count-Min, Space Saving,
  reservoirs), vectorized hashing, and an indexed top-K heap;
* the three Section 8 applications (streaming explanation, relative
  deltoids, streaming PMI);
* synthetic stand-ins for the six evaluation datasets, an evaluation
  harness, and benchmark drivers regenerating every table and figure.

Quickstart
----------

>>> import numpy as np
>>> from repro import AWMSketch, SparseExample
>>> clf = AWMSketch(width=1024, depth=1, heap_capacity=512, lambda_=1e-6)
>>> x = SparseExample(np.array([3, 17, 42]), np.ones(3), label=1)
>>> clf.update(x)
>>> clf.predict(x)
1
>>> len(clf.top_weights(2)) <= 2
True
"""

from repro.core import (
    AWMSketch,
    MulticlassSketch,
    SketchConfig,
    WMSketch,
    default_awm_config,
    default_wm_config,
    enumerate_sketch_configs,
    theorem1_sizing,
    theorem2_sample_size,
)
from repro.data.sparse import SparseExample
from repro.learning import (
    CountMinFrequent,
    LogisticLoss,
    OnlineErrorTracker,
    ProbabilisticTruncation,
    SimpleTruncation,
    SmoothedHingeLoss,
    SpaceSavingFrequent,
    UncompressedClassifier,
    run_stream,
)
from repro.learning.adagrad import AdaGradAWMSketch, AdaGradFeatureHashing
from repro.learning.feature_hashing import FeatureHashing
from repro.parallel import ParallelHarness, train_sharded
from repro.data.partition import partition_stream
from repro.kernels import available_backends, get_backend
from repro.sketch import CountMinSketch, CountSketch, SpaceSaving

__version__ = "1.0.0"

__all__ = [
    "WMSketch",
    "AWMSketch",
    "MulticlassSketch",
    "SparseExample",
    "SketchConfig",
    "default_awm_config",
    "default_wm_config",
    "enumerate_sketch_configs",
    "theorem1_sizing",
    "theorem2_sample_size",
    "UncompressedClassifier",
    "FeatureHashing",
    "SimpleTruncation",
    "ProbabilisticTruncation",
    "SpaceSavingFrequent",
    "CountMinFrequent",
    "LogisticLoss",
    "SmoothedHingeLoss",
    "OnlineErrorTracker",
    "run_stream",
    "AdaGradFeatureHashing",
    "AdaGradAWMSketch",
    "ParallelHarness",
    "train_sharded",
    "partition_stream",
    "available_backends",
    "get_backend",
    "CountSketch",
    "CountMinSketch",
    "SpaceSaving",
    "__version__",
]
