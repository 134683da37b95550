"""Shared fixtures: the encoder roster registry every parity suite iterates.

``ENCODER_SPECS`` is the single source of truth for the encoder zoo in the
test suite.  ``test_multiseed.py`` (batched-vs-sequential bitwise parity),
``test_tape_free.py`` (taped-vs-tape-free bitwise parity) and
``test_dtype.py`` (float32 tolerance bounds) all parametrise over it instead
of keeping private roster lists.

Every architecture has a registered seed stacker
(``repro.nn.layers.register_seed_stacker``), so every suite runs the whole
roster.  The import-time check below fails collection loudly whenever a
model registered in ``repro.encoders.available_models`` is missing from
the spec list (or vice versa), so growing the zoo without extending the
parity suites is impossible to do silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.encoders import available_models, build_model


@dataclass(frozen=True)
class EncoderSpec:
    """One encoder roster entry: a `build_model` name and its build options."""

    name: str
    #: Extra `build_model` keyword arguments this architecture needs.
    build_kwargs: dict = field(default_factory=dict)

    def build(self, feature_dim, out_dim, rng, hidden_dim=8, num_layers=2, **overrides):
        """Construct one model instance via the real `build_model` registry."""
        kwargs = {**self.build_kwargs, **overrides}
        return build_model(
            self.name, feature_dim, out_dim, rng,
            hidden_dim=hidden_dim, num_layers=num_layers, **kwargs,
        )

    def factory(self, feature_dim, out_dim, hidden_dim=8, num_layers=2, **overrides):
        """A ``seed -> model`` factory with the conventional seed-derived rng."""

        def make(seed):
            return self.build(
                feature_dim, out_dim, np.random.default_rng((seed + 1) * 7919),
                hidden_dim=hidden_dim, num_layers=num_layers, **overrides,
            )

        return make


#: The full roster, in `available_models()` order.
ENCODER_SPECS = tuple(
    EncoderSpec(name)
    for name in (
        "gcn", "gcn-virtual", "gin", "gin-virtual", "factorgcn",
        "pna", "topkpool", "sagpool", "gat", "sage",
    )
)

# Loud completeness check: the spec registry must mirror the model registry
# exactly.  Raising here aborts pytest collection with a clear message.
_spec_names = tuple(spec.name for spec in ENCODER_SPECS)
if sorted(_spec_names) != sorted(available_models()):
    _missing = sorted(set(available_models()) - set(_spec_names))
    _extra = sorted(set(_spec_names) - set(available_models()))
    raise RuntimeError(
        "tests/conftest.py ENCODER_SPECS is out of sync with "
        f"repro.encoders.available_models(): missing specs for {_missing}, "
        f"stale specs {_extra}.  Add an EncoderSpec for every registered encoder."
    )
if len(set(_spec_names)) != len(_spec_names):
    raise RuntimeError("tests/conftest.py ENCODER_SPECS contains duplicate names")


def encoder_spec(name: str) -> EncoderSpec:
    """Look up one roster entry by `build_model` name."""
    for spec in ENCODER_SPECS:
        if spec.name == name:
            return spec
    raise KeyError(name)


def spec_params(specs):
    """``pytest.param`` list with readable ids for roster parametrisation."""
    return [pytest.param(spec, id=spec.name) for spec in specs]
