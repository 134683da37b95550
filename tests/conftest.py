"""Shared fixtures: loads the encoder-spec roster registry at collection time.

The registry itself lives in :mod:`tests.encoder_specs` (a uniquely named
module, because ``benchmarks/conftest.py`` also claims the ``conftest``
module name in a whole-repo pytest run).  Importing it here runs its loud
completeness check — pytest collection aborts whenever an encoder
registered in ``repro.encoders.available_models`` has no ``EncoderSpec``
— and re-exports the names so ``from conftest import ...`` keeps working
in suites collected from ``tests/`` alone.
"""

from encoder_specs import (  # noqa: F401  (re-exported for the parity suites)
    ENCODER_SPECS,
    EncoderSpec,
    encoder_spec,
    spec_params,
)
