"""Golden CLI outputs: the SHA-256 of stdout and the exit code of fixed commands.

The digests were recorded before the localized model was rebuilt on graded
Poly numerators; a change that alters any rendered byte, or which error a
command ends in, fails here.
"""

import hashlib
import re

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
    # A cap that empties the output window, [-4, -5) and [-6, -6): a precision
    # error naming the least cap that works (-3, -5), and nothing on stdout.
    # The complement window starts at -6, so its twin takes cap -6, not -5.
    (("relations", "--f", "x1^2", "--d", "1", "--n", "2", "--cap", "-5"),
     2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("relations", "--complement", "--f", "x1^2", "--d", "1", "--n", "2", "--cap", "-6"),
     2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # Recorded before flags and config values shared one settings table: each
    # output format of the table commands, ev, and each property suite.
    (("relations", "--f", "x1*x2+1", "--d", "2", "--n", "1", "--cap", "3", "--format", "text"),
     0, "c3fda89fbb8fb69d1249917fad0a0973c7b1c33373dd614cfd6a2e55255b7ed6"),
    (("relations", "--f", "x1*x2+1", "--d", "2", "--n", "1", "--cap", "3", "--format", "csv"),
     0, "0ac7e92bd46431fced2f2a9bda3fdc2fbdf6b4b868127fff6f26fd3e09ed1429"),
    (("norm", "--f", "x1^2+x2", "--d", "2", "--n", "3", "--cap", "2", "--levels", "0,1,2,3",
      "--format", "csv"),
     0, "7908e5da2b17def5210dfb759ebecc2b0cb800d6f37f7e9dda65469c37786228"),
    (("converge", "--mode", "plain", "--j", "1", "--n-max", "4", "--N", "1", "--d", "1",
      "--cap", "7", "--format", "text"),
     0, "41a9b09dba458fc57a20e23eb5f7d38bb68e4d5009e084eb713e703bbf962713"),
    (("converge", "--mode", "plain", "--j", "1", "--n-max", "4", "--N", "1", "--d", "1",
      "--cap", "7", "--format", "json"),
     0, "bfb2d7675ba870737da264e2283168cb1afc895209cb9cbcba5ba97c935b8215"),
    (("ev", "--d", "2", "--n", "1", "--cap", "3"),
     0, "a44329ecc345f5cd75d1211623c818b315fb0a4e12ddfc28b33782d711b1d761"),
    (("check", "good", "--f", "x1^2+x2", "--d", "2", "--cap", "8", "--levels", "0,1,2"),
     0, "2ae3b6887547f667b90a61e8de6c5c7c81550976b4174925f99c7abc8add3375"),
    (("check", "isometry", "--d", "2", "--samples", "5", "--seed", "7", "--levels", "0,1"),
     0, "b4fc94c25b64611433d0e3c6dc906930dfd275b903763a6a4161dee84b52b38d"),
    (("check", "ultrametric", "--d", "1", "--samples", "5", "--seed", "3", "--levels", "0,1"),
     0, "f8760ebce1da0e58196c4f830d8a4dbd46b27113f5039ea4f5b4fd53af28ea41"),
    # Recorded while the Euler-operator action on localized elements still
    # reduced after every step: a wide band and a two-variable base.
    (("approx", "--f", "x1^2+3*x1+1", "--d", "1", "--j", "3", "--band", "5", "--N", "1",
      "--cap", "10"),
     0, "a732b20df104f5f750996c4b9260bfdda9a3b263acc2a6317c3232299e71da76"),
    (("approx", "--f", "2*x1+x2^2", "--d", "2", "--j", "2", "--band", "3", "--N", "2",
      "--cap", "6"),
     0, "db4815d9e27dfda57e5a0d87ce7ca916dccf60e882739add333ce9c177e5679b"),
    # Recorded while eps still travelled through the library as a value: the
    # commands that print eps^order, at bases other than the default 1/2. The
    # norm's level-0 row is an upper bound, 0,3/2,true; the last approx's
    # distance is the exact zero, "0".
    (("norm", "--f", "x1^2+x2", "--d", "2", "--n", "3", "--cap", "2", "--levels", "0,1,2,3",
      "--epsilon", "2/3", "--format", "csv"),
     0, "bf19acb3c8ab123dd870dc565bac89ea174b537937b664e6daf5c8b5a7f98c0a"),
    (("norm", "--f", "x1^2+x2", "--d", "2", "--n", "3", "--cap", "2", "--levels", "0,1,2,3",
      "--epsilon", "2/3", "--format", "json"),
     0, "b23252a7c6c3ee1ee214017766f1c617c095e095fa944e542818bf61cd3c5ef7"),
    (("converge", "--mode", "plain", "--j", "1", "--n-max", "4", "--N", "1", "--d", "1",
      "--cap", "7", "--epsilon", "3/7"),
     0, "450ccb674c4faf9634ef2754324bdce269772f83116354780ed8bd3b859ae238"),
    (("converge", "--mode", "plain", "--j", "1", "--n-max", "4", "--N", "1", "--d", "1",
      "--cap", "7", "--epsilon", "1/3", "--format", "json"),
     0, "f6f12059fe7690a8f9175bca1c080fec2d41559bf7ca5ae5cb160f8d9e8ac389"),
    (("converge", "--mode", "complement", "--f", "x1^2-x1", "--d", "1", "--j", "2",
      "--n-max", "4", "--N", "1", "--cap", "8", "--epsilon", "3/7"),
     0, "6c6a21513fc9302d5bd1b1e8ed757887090c1a51b10d04799752e2b10f83cbab"),
    (("converge", "--mode", "complement", "--f", "x1+x2", "--d", "2", "--j", "1",
      "--n-max", "3", "--N", "1", "--cap", "5", "--epsilon", "1/3", "--format", "json"),
     0, "c44ee47cb2ec15ccf18666997e4f40273b88519f11ebdbe85bb248b95f80bf75"),
    (("approx", "--f", "x1^2+x1", "--d", "1", "--j", "2", "--band", "3", "--N", "1",
      "--cap", "8", "--epsilon", "1/3"),
     0, "3e78e964a053f8a94f063cc4f189edfb6383729f2c7a54934e49cdf567469af8"),
    (("approx", "--f", "2", "--d", "1", "--j", "0", "--band", "2", "--cap", "4",
      "--epsilon", "2/3"),
     0, "b73b3d968663d2b7b9c1d47ca3a9d4a74edaebe7f6a9c304f6159ca81b4d3316"),
    # Recorded while an exact series still had cap None: the two kinds of
    # infinity at the print edge. At cap 1 the inverse of x1+1 holds one
    # known coefficient, so the approx distance is the bound "1/2" with
    # "distance_is_upper_bound": true. The constant 2 inverts exactly, so
    # every converge distance is the exact zero: "0", with an empty csv
    # ord_exponent and a json null.
    (("approx", "--f", "x1+1", "--d", "1", "--j", "0", "--N", "0", "--cap", "1"),
     0, "95f79c3b713b08c762e957980b1de39082bcff817385ecfdc7c9e43b65c6636e"),
    (("converge", "--mode", "complement", "--f", "2", "--d", "1", "--j", "0", "--n-max", "2",
      "--N", "0", "--cap", "4", "--format", "csv"),
     0, "e9745c291e9e6cc050c1e6cd14372fbb24b2b09fe2b4811f7bbb70492e65f3d6"),
    (("converge", "--mode", "complement", "--f", "2", "--d", "1", "--j", "0", "--n-max", "2",
      "--N", "0", "--cap", "4", "--format", "json"),
     0, "8d5c107ec0e15cd59f05c65274af4c28387f9cf3f4d939d416a7545874300c0f"),
    # Recorded before series products, the inverse recursion and div_exact's
    # int quotients went through one multiply-accumulate kernel: leads whose
    # coefficients are not +-1. A multi-term lead 2*x1*x2 + 3*x2^2 (the
    # general-divisor path), quotients that stay Fractions, and a band of
    # localized elements over the lead 3*x1*x2.
    (("invert", "--f", "2*x1*x2+3*x2^2+1", "--d", "2", "--n", "1", "--cap", "4"),
     0, "4362e835e3343752fae207a52bdae707ed6795151ad6df609e7617da36acf772"),
    (("invert", "--f", "2*x1^2+1", "--d", "1", "--n", "2", "--cap", "5"),
     0, "1637864fa843f92bbd0f90aa217122ab0ee1920ce2a465a962bed128c0e1e148"),
    (("approx", "--f", "3*x1*x2+x1+2", "--d", "2", "--j", "2", "--band", "2", "--N", "1",
      "--cap", "5"),
     0, "6202a78eb01241e97fde50558af64bff4060f733c78c139d39fc84b6b38e3d15"),
]

# The option strings of each subcommand's --help: -h, --config, the flags of
# the settings the command reads (--N for the semi-norm level) and its own.
COMMON_OPTIONS = {"-h", "--help", "--config", "--d", "--cap", "--output"}
OPTIONS = {
    "relations": COMMON_OPTIONS | {"--f", "--n", "--format", "--complement"},
    "ev": COMMON_OPTIONS | {"--n"},
    "invert": COMMON_OPTIONS | {"--f", "--n"},
    "norm": COMMON_OPTIONS | {"--f", "--n", "--epsilon", "--levels", "--format"},
    "converge": COMMON_OPTIONS | {"--f", "--epsilon", "--N", "--format", "--mode", "--j",
                                  "--n-max", "--loop-level"},
    "approx": COMMON_OPTIONS | {"--f", "--epsilon", "--N", "--j", "--band", "--loop-level"},
    "check": COMMON_OPTIONS | {"--f", "--levels", "--seed", "--samples"},
}


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_output(capsys, argv, code, digest):
    assert main(list(argv)) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_option_strings(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    assert set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", text)) == OPTIONS[command]
