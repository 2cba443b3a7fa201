"""Golden CLI outputs: the SHA-256 of stdout and the exit code of fixed commands.

The digests were recorded before the localized model was rebuilt on graded
Poly numerators; a change that alters any rendered byte, or which error a
command ends in, fails here.
"""

import hashlib

import pytest

from loopalg.cli import main

GOLDEN = [
    (("invert", "--f", "x1+x2", "--d", "2", "--n", "1", "--cap", "5"),
     0, "264be70edd9eefb3e4e9f7bcf3a95d3b65769e574af098db31b4788a6e65f3a3"),
    (("invert", "--f", "x1*x2+1", "--d", "2", "--n", "2", "--cap", "4"),
     0, "31f599c10c623dd8619baa9b859e52d5305140e9b73d040560504accd9be467b"),
    (("invert", "--f", "x1+x2+x3", "--d", "3", "--n", "1", "--cap", "3"),
     0, "ce8e7c9f25e3273898ac7f74aa6c4f018ead9ac35f46a04d14e0b8fead1288a3"),
    (("invert", "--f", "x1^3 - 2*x1", "--d", "1", "--n", "2", "--cap", "6"),
     0, "fcd101f3789d532004b1b7ad1951c3fadba6d3e15fc101e39a02f80a7619f4cb"),
    (("invert", "--f", "3", "--d", "1", "--n", "1", "--cap", "4"),
     0, "e6fffa76094f58f564f15bcdfc258e496d9c2a67f957795f9cb37c9f62d83ba3"),
    (("approx", "--f", "x1*x2+1", "--d", "2", "--band", "2", "--cap", "5"),
     0, "0752a15372c8e2c9249502e6a5cc0984f5a3f7ab193bd50ba325e61a523c13e8"),
    (("approx", "--f", "x1^2+x1", "--d", "1", "--j", "2", "--band", "3", "--N", "1",
      "--cap", "8"),
     0, "bf534abb65c4b7544f6b34cac19a6aa1a8e0cc977e6678a243120abb55910185"),
    (("approx", "--f", "2", "--d", "1", "--j", "0", "--band", "2", "--cap", "4"),
     0, "b73b3d968663d2b7b9c1d47ca3a9d4a74edaebe7f6a9c304f6159ca81b4d3316"),
    # The inverse is too short for z^20 and the base dies at level 0: approx
    # reports the precision error first.
    (("approx", "--f", "x1", "--d", "1", "--j", "20", "--N", "0", "--loop-level", "1",
      "--cap", "8"),
     2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("converge", "--mode", "complement", "--f", "x1+x2", "--d", "2", "--j", "1",
      "--n-max", "3", "--N", "1", "--cap", "5"),
     0, "6d9156d119830cbae73bf41dff850de5423e774b8a6379368b2e6a801c5f7a23"),
    (("converge", "--mode", "complement", "--f", "x1^2-x1", "--d", "1", "--j", "2",
      "--n-max", "4", "--N", "1", "--cap", "8", "--format", "json"),
     0, "18258a8917ca72608f8310ab3c66c3c1b915e52955555be3226d8a22582ff9b1"),
    # The same two faults: converge reports the dead base first.
    (("converge", "--mode", "complement", "--f", "x1", "--d", "1", "--j", "20",
      "--n-max", "2", "--N", "0", "--loop-level", "1", "--cap", "8"),
     1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("relations", "--complement", "--f", "x1*x2+1", "--d", "2", "--n", "1", "--cap", "3"),
     0, "e1a84d20da18db682af525e99da9a81fd60a1c788e925c18945936bdab007e46"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_output(capsys, argv, code, digest):
    assert main(list(argv)) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
