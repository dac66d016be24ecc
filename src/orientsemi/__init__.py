"""Semi-supervised oriented object detection at desk scale.

The package is organised around a small set of numerical contracts:

- :mod:`orientsemi.geometry` -- rotated boxes, exact polygon IoU, rotated NMS.
- :mod:`orientsemi.transport` -- entropic optimal transport (Sinkhorn) with
  dual potentials and an analytic gradient for the dual-form matching loss.
- :mod:`orientsemi.weighting` -- the geometry-aware pair weight, in scalar
  reference form and vectorised for training.
- :mod:`orientsemi.consistency` -- noise-contrasted global consistency loss
  built on the transport solver.
- :mod:`orientsemi.sampling` -- dense pseudo-label selection (score floor and
  top-N cap, rotated NMS, ratio sampling, hard-negative mining, top-k).
- :mod:`orientsemi.scenes` -- synthetic oriented-scene generator and renderer.
- :mod:`orientsemi.detector` -- a linear dense detector with closed-form
  gradients, small enough to train on one core.
- :mod:`orientsemi.training` -- burn-in + EMA teacher-student loop, the
  shared head-error block of both losses, sampler dispatch, pseudo-label
  records and checkpoints.
- :mod:`orientsemi.evaluation` -- rotated-box mAP.
- :mod:`orientsemi.cli` -- command line entry points, the documented
  interface.
- :mod:`orientsemi.records` -- canonical JSONL records, schemas and atomic
  file replacement.
- :mod:`orientsemi.config` -- the run configuration and its INI/dict forms.

Everything is deterministic given a seed: a single PCG64 generator drives
each run and its state travels through checkpoints.

Import names from their modules; the package itself re-exports nothing,
so importing one module does not load the others.
"""

__version__ = "0.1.0"
