"""Golden bytes of `first-integrals`, in both formats.

The sha256 digests below were recorded when the integrals, their
certificates and the pretty text still lived in `control` and `cli`, before
they moved to `integrals` and `pretty`.  The whole output is pinned, not a
substring of it, so a move that changes one byte of either target fails.
"""

import hashlib

import pytest

from normalforms.cli import main

GOLDEN = {
    (("--n", "1"), "json"): "324314d6cc9138f77e7350daa0fb720e5ca366b62a057db2d4ac161a57a0bdcf",
    (("--n", "1"), "pretty"): "982179422b4885b1e9ec30d532f5ffe2d00f6105f1ef401dd06ff15f4dd22cbc",
    (("--n", "2"), "json"): "d730e7d4bd92f1b62c70b33ab7f92e1ecaaf8b58837506af9f0f04a76264f125",
    (("--n", "2"), "pretty"): "d52ebef2aad0311049d1cf05c0ada267cab78bc268087af55f372eb598ab2699",
    (("--n", "3"), "json"): "2b682e9c2f1310d945cc1580c7d87018db2140915dad65a0f637c107dbc5f0fd",
    (("--n", "3"), "pretty"): "0ddd15374fb5e2a42a54f48631bf60fa357b0219fd5ff0f7b202088ae6787308",
    (("--n", "4"), "json"): "70ede1b7556e6c5c8fd88670534b0c535361f07d27307b293e0def7d8cf4f02e",
    (("--n", "4"), "pretty"): "cb8ed11c1ac7776fb4425f0e75c8eb9af9c86dadbebf378c9d4135f2266d4361",
    (("uncontrollable",), "json"): "3c1e02e93ce157e391dcdb42d0a38066c4072df98f48cd4a70d94d2fdeccd3c2",
    (("uncontrollable",), "pretty"): "d8100e7fb7575a5588fefd56e8a1f340a9b0266435aa3e9fa96701a2e2f08b2b",
}


@pytest.mark.parametrize("args, fmt", sorted(GOLDEN), ids=[f"{'-'.join(a)}-{f}" for a, f in sorted(GOLDEN)])
def test_first_integrals_bytes_are_golden(args, fmt, capsys):
    code = main(["first-integrals", *args, "--format", fmt])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[args, fmt]


def test_the_default_target_is_brunovsky_with_two_states_in_pretty(capsys):
    assert main(["first-integrals"]) == 0
    default = capsys.readouterr().out
    assert hashlib.sha256(default.encode("utf-8")).hexdigest() == GOLDEN[("--n", "2"), "pretty"]
