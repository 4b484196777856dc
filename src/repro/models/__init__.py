"""Affine-task models: named restrictions of IIS runs (sub-``SDS^b``).

See DESIGN.md §3.8.  The public surface:

* :class:`~repro.models.base.Model` and the zoo
  (``iis``/``t_resilient``/``k_concurrent``/``k_set_consensus``/
  ``adversary``) with :func:`resolve_model`/:func:`parse_model`;
* the packed streaming filter and the orbit-pruned restricted builder
  (:mod:`repro.models.packed`), which every solver path reads;
* the naive object-level reference engine (:mod:`repro.models.reference`),
  kept only as the oracle the differential suite trusts.
"""

from repro.models.base import Blocks, Model, ModelRestrictionEmpty, admits_run
from repro.models.zoo import (
    IIS,
    IIS_MODEL,
    Adversary,
    Composed,
    KConcurrent,
    KSetConsensus,
    ModelSpec,
    TResilient,
    compose_models,
    model_registry,
    parse_model,
    resolve_model,
)

__all__ = [
    "Adversary",
    "Blocks",
    "Composed",
    "IIS",
    "IIS_MODEL",
    "KConcurrent",
    "KSetConsensus",
    "Model",
    "ModelRestrictionEmpty",
    "ModelSpec",
    "TResilient",
    "admits_run",
    "compose_models",
    "model_registry",
    "parse_model",
    "resolve_model",
]
