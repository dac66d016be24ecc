"""Semi-supervised oriented object detection at desk scale.

The package is organised around a small set of numerical contracts:

- :mod:`orientsemi.geometry` -- rotated boxes, exact polygon IoU, rotated NMS.
- :mod:`orientsemi.transport` -- entropic optimal transport (Sinkhorn) with
  dual potentials and an analytic gradient for the dual-form matching loss.
- :mod:`orientsemi.weighting` -- the geometry-aware pair weight, one per
  pair.
- :mod:`orientsemi.consistency` -- the noise-contrasted global consistency
  loss: one atom per pair with mass ``exp(score)`` on each side, matched by
  the transport solver under the run config's ``[semi]`` and ``[tab1]``
  settings.
- :mod:`orientsemi.sampling` -- dense pseudo-label selection (score floor and
  top-N cap, rotated NMS, ratio sampling, hard-negative mining, top-k) into
  one flat pair record of the teacher's outputs at the sampled cells.
- :mod:`orientsemi.scenes` -- synthetic oriented-scene generator and renderer.
- :mod:`orientsemi.detector` -- a linear dense detector with closed-form
  gradients, small enough to train on one core.
- :mod:`orientsemi.training` -- burn-in + EMA teacher-student loop, the
  two unsupervised losses (one signature: model, outputs, pairs, config),
  the shared head-error block, sampler dispatch, pseudo-label records and
  checkpoints.
- :mod:`orientsemi.evaluation` -- rotated-box mAP.
- :mod:`orientsemi.cli` -- command line entry points, the documented
  interface.
- :mod:`orientsemi.records` -- canonical JSON lines, schemas and durable
  atomic file replacement.
- :mod:`orientsemi.config` -- the run configuration and its INI/dict forms.

Everything is deterministic given a seed: a single PCG64 generator drives
each run and its state travels through checkpoints.

Import names from their modules; the package itself re-exports nothing,
so importing one module does not load the others.
"""

__version__ = "0.1.0"
