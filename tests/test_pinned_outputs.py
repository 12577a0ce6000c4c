"""Outputs pinned bit for bit at the commit before the solver took V's x >= 0
half and the maxima count took psi0's half (`cf9285b`).

Both changes read the same values as before, so `sweep`'s and `classify`'s
bytes and the oracle's levels must not move.  The pins hold where the
closed forms round as they did where they were recorded (numpy 2.4 on
x86-64 with AVX-512): numpy's exp and log differ in the last bits between
its SIMD paths, and every pinned value starts from them.  So the tests first
compare a hash of the closed-form V, psi0 and psi1 at one eps, and skip
where those inputs differ.
"""

import hashlib

import pytest

from shallowdw import Grid, Partner, wells
from shallowdw.cli import main

SIX = "separatrix,curvature,gap,maxima_count,e0_error,e1_error"
INPUTS_SHA256 = "2d1bda28a49b4dccf66e4852ea0175fc7a986f96fb66892e0e9ce1dee9f42096"


@pytest.fixture(scope="module", autouse=True)
def same_closed_forms():
    p = Partner(-1.5, Grid(20.0, 16001))
    inputs = p._potential_half.tobytes() + p._psi0_half.tobytes() + p._psi1_half.tobytes()
    if hashlib.sha256(inputs).hexdigest() != INPUTS_SHA256:
        pytest.skip("the closed forms round differently on this platform, "
                    "so the pinned bytes cannot apply")


@pytest.mark.parametrize("argv, sha256", [
    # the benchmark's first sweep op at seed 31: six quantities, 5 rows, n = 16001
    (["sweep", "--eps-start", "-2.272621141813855", "--eps-end", "-1.7492413032287752",
      "--points", "16001", "--steps", "5", "--quantities", SIX],
     "ae90ad0c4750d59900edc896426d3e2ec6679bfc56d304da0117a3ef02ad229e"),
    (["sweep", "--eps-start", "-2.5", "--eps-end", "-1.3", "--steps", "5",
      "--points", "16001", "--quantities", SIX],
     "bfe048623e906df78e22d8ccfdec1985b95bd84919d656709b4da6ffc408a105"),
    # 41 rows across eps = -3 and -2
    (["sweep", "--eps-start", "-3.5", "--eps-end", "-1.000001", "--steps", "41",
      "--points", "16001", "--quantities", SIX],
     "6f197215708e1e957d1f3b0ab259981fa062aeb14591397a6a5f9f5cf9b6fc8e"),
    (["classify", "--epsilon", "-1.5", "--format", "json"],
     "78d4aea8b4d2e726ca1a9b0a9dce0475af8dd9dee4a223fe084d59a07347b135"),
    (["classify", "--epsilon", "-2.0", "--format", "json"],
     "0c850412fceb16f6de1376acd303d165630ee2bcb74312c178fdba8358e5738d"),
    (["classify", "--epsilon", "-2.5", "--format", "json"],
     "3be5c1397e4679851943c0fb3051b5411f3954f2c1465337d939b9cd19b8cd72"),
])
def test_output_bytes(argv, sha256, tmp_path):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("eps, e0, e1", [
    (-1.05, "-0x1.0ccccccd114edp+0", "-0x1.000000004c892p+0"),
    (-1.5, "-0x1.800000005070fp+0", "-0x1.0000000083451p+0"),
    (-2.25, "-0x1.2000000020a3bp+1", "-0x1.0000000107c4ap+0"),
    (-2.95, "-0x1.79999999d15a3p+1", "-0x1.00000001f63c9p+0"),
    (-30.0, "-0x1.e000016ab2458p+4", "-0x1.000004b6357adp+0"),
])
def test_levels_on_the_default_grid(eps, e0, e1):
    levels = wells.bound_levels(Partner(eps, Grid.default()))
    assert (levels.e0_numeric.hex(), levels.e1_numeric.hex()) == (e0, e1)
