"""The demo scripts' printed output, pinned byte for byte."""

import hashlib
import io
import runpy
import warnings
from contextlib import redirect_stdout
from pathlib import Path

import pytest

_DEMOS = Path(__file__).resolve().parents[1] / "demos"

# SHA-256 of each demo's standard output
_PINNED = {
    "01_generator_algebra.py":
        "304dac25ce6c7f51e414673f1be23b46f644feee96c8af8678fa0243b34a414d",
    "02_radial_motion_and_reconstruction.py":
        "63d40d44733d425fe1a01fb80724f443305cbdda6ad88ae479ddf49f89c119bf",
    "03_reduction_and_sphere_models.py":
        "d6305da515229ed0c332918f7ff5de9fc50d597e193980f51b85330ebe82ff6d",
    "04_calogero_force_centers.py":
        "ce3736052ae0fed5050c023ca4203788635c8f239407a508149e072b5dca2679",
    "05_halfplane_decoupling.py":
        "b4ec00b2241e23425d3b20de0e8e368871e943c22a0a66501808181aa745ac5e",
}


def test_every_demo_is_pinned():
    assert sorted(f.name for f in _DEMOS.glob("0*.py")) == sorted(_PINNED)


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_demo_output(name):
    # run in this process, not as `python demos/...`, so numpy and
    # confmech are imported once for all five; a RuntimeWarning fails the
    # demo, as `python -W error::RuntimeWarning` does
    out = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with redirect_stdout(out):
            runpy.run_path(str(_DEMOS / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
        _PINNED[name]
