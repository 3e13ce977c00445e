"""Golden bytes of the output no other digest pins.

`normalize --format pretty` and `kernel --format pretty` of one ODE and
one control document, and `verify` in both formats on a fresh report and on
tampered copies of it, one per report field: one normal-form coefficient
changed (the control normal form at order 3 is empty, so there a zero
coefficient becomes 1), one generator coefficient changed, each certificate
claim flipped, each dimension of one degree changed, the order raised, a
generator's degree raised, a state-change term added and the last
generator dropped.  The fresh report and the first four tamperings were
recorded with separate report, render and recheck code per system kind,
before that code became one path driven by a description of each kind's
generator parts; the others on that one path.  A tampering that leaves the report malformed
exits 1 with nothing on stdout.
"""

import hashlib
import io
import json
import sys
from collections import Counter

import pytest

from normalforms import cli
from normalforms.cli import _EXAMPLE_DOCS, main
from test_golden_cli import ODE_DOCUMENTS

DOCUMENTS = {
    "ode-jordan-3": ODE_DOCUMENTS["ode-jordan-3"],  # Jordan A: equivariance true
    "brunovsky-quadratic": _EXAMPLE_DOCS["brunovsky-quadratic"],
}
ORDER = 3

# sha256 of `normalize --order 3` and `kernel --degree k`, pretty format
PRETTY_GOLDEN = {
    ("ode-jordan-3", "normalize"): "b36c6794ef774ad99ddf42b2b5129c5c74061bef0305c3b0090cd503eff202b3",
    ("ode-jordan-3", "kernel-2"): "0fa35f91dbe3d994cf3a8b5b25a39f3f3ebf4e8690442c7d8cd949a22676c7b1",
    ("ode-jordan-3", "kernel-3"): "4a0071b14da7da363c0f33564c8489ff8d80fb1cbdb55c1ea60175dd581d1901",
    ("brunovsky-quadratic", "normalize"): "6af0e4738cf29708f044389f46ce3d77cafeb5eca48c5a32796157e5726138b9",
    ("brunovsky-quadratic", "kernel-2"): "0f8544a2f7b63341001486840e5f9e653631f126b6ac61d0ebd99e87e7b6a5f9",
    ("brunovsky-quadratic", "kernel-3"): "33a566bf7941c138ba6b8de0e3cd13a2da28878d54c51ede3c26bf72920878ea",
}


def _normal_coeff(report):
    if report["normal_form"]:
        report["normal_form"][0]["coeff"] = "2"
    else:
        report["normal_form"].append(
            {"degree": 2, "component": 2, "exponents": [2, 0, 0], "coeff": "1"}
        )


def _generator_coeff(report):
    gen = report["generators"][-1]
    terms = gen["terms"] if "terms" in gen else gen["p_u"]
    terms[0]["coeff"] = "5/7"


def _certificate_claim(report):
    report["certificates"]["kernel_residual_zero"] = False


def _dimension(report):
    report["dimensions"]["2"]["complement"] += 1


def _order(report):
    report["order"] += 1


def _conjugacy_claim(report):
    report["certificates"]["conjugacy_residual_zero"] = False


def _equivariance_claim(report):
    # the Jordan report claims true; the control report claims nothing (null)
    claim = report["certificates"]["equivariance_zero"]
    report["certificates"]["equivariance_zero"] = True if claim is None else not claim


def _space(report):
    report["dimensions"]["2"]["space"] += 1


def _range(report):
    report["dimensions"]["2"]["range"] += 1


def _generator_degree(report):
    report["generators"][0]["degree"] += 1


def _state_term(report):
    # a term added to the first generator's state change: p_x of the control
    # report, the whole generator of the ODE report
    gen = report["generators"][0]
    terms = gen.get("p_x", gen.get("terms"))
    n, k = len(terms[0]["exponents"]), gen["degree"]
    terms.append({"degree": k, "component": 1, "exponents": [0] * (n - 1) + [k], "coeff": "1"})


def _dropped_generator(report):
    report["generators"].pop()


TAMPER = {
    "fresh": lambda report: None,
    "normal-coeff": _normal_coeff,
    "generator-coeff": _generator_coeff,
    "certificate-claim": _certificate_claim,
    "dimension": _dimension,
    "order": _order,
    "conjugacy-claim": _conjugacy_claim,
    "equivariance-claim": _equivariance_claim,
    "space": _space,
    "range": _range,
    "generator-degree": _generator_degree,
    "state-term": _state_term,
    "dropped-generator": _dropped_generator,
}

# (document, tampering, format) -> (exit code, sha256 of `verify` stdout)
VERIFY_GOLDEN = {
    ("ode-jordan-3", "fresh", "json"): (0, "e8298bda24587c8aae5f43ef2f597e009a22c441c29fcf2e635c6f8c0962956a"),
    ("ode-jordan-3", "fresh", "pretty"): (0, "41383b70ba1f90c4b0224b75752787414199dbdf6190830204572fe0df74073f"),
    ("ode-jordan-3", "normal-coeff", "json"): (2, "0e239c091aa5d8e87282c5838a56396c83f887b6a6b1e44ea7d176bc999d30c4"),
    ("ode-jordan-3", "normal-coeff", "pretty"): (2, "9aa0b93ab0a15b4191c0ce5e7b2160bb974694e2cda107d268f7606253dcd8e6"),
    ("ode-jordan-3", "generator-coeff", "json"): (2, "0e239c091aa5d8e87282c5838a56396c83f887b6a6b1e44ea7d176bc999d30c4"),
    ("ode-jordan-3", "generator-coeff", "pretty"): (2, "9aa0b93ab0a15b4191c0ce5e7b2160bb974694e2cda107d268f7606253dcd8e6"),
    ("ode-jordan-3", "certificate-claim", "json"): (2, "bcb15e91da2a822aa5e937f3093005a23bf45b204799a104ce9c5c7218a1ec8b"),
    ("ode-jordan-3", "certificate-claim", "pretty"): (2, "f168933c8a0497b45df9d3daca24c2ca0c6add108b3be5a6650ba0b2f5872785"),
    ("ode-jordan-3", "dimension", "json"): (2, "d7825b398ab4deebe67b5c73b87763a1637c9b6f29b89e68177e04f759c54bc3"),
    ("ode-jordan-3", "dimension", "pretty"): (2, "77ff479eb8a2ce156132fa74c7578a66b9ace834b080544a9eddc175f5cccbeb"),
    ("brunovsky-quadratic", "fresh", "json"): (0, "e8298bda24587c8aae5f43ef2f597e009a22c441c29fcf2e635c6f8c0962956a"),
    ("brunovsky-quadratic", "fresh", "pretty"): (0, "41383b70ba1f90c4b0224b75752787414199dbdf6190830204572fe0df74073f"),
    ("brunovsky-quadratic", "normal-coeff", "json"): (2, "a2dde03205a45eaae7b65f303cc742204b5fb581abc79a1f026d3b27aa3a8d5e"),
    ("brunovsky-quadratic", "normal-coeff", "pretty"): (2, "eaaf77cae9edbaca69fb5bd81288548b257736a0aadb2ae6f5beb91d17c7909d"),
    ("brunovsky-quadratic", "generator-coeff", "json"): (2, "0e239c091aa5d8e87282c5838a56396c83f887b6a6b1e44ea7d176bc999d30c4"),
    ("brunovsky-quadratic", "generator-coeff", "pretty"): (2, "9aa0b93ab0a15b4191c0ce5e7b2160bb974694e2cda107d268f7606253dcd8e6"),
    ("brunovsky-quadratic", "certificate-claim", "json"): (2, "bcb15e91da2a822aa5e937f3093005a23bf45b204799a104ce9c5c7218a1ec8b"),
    ("brunovsky-quadratic", "certificate-claim", "pretty"): (2, "f168933c8a0497b45df9d3daca24c2ca0c6add108b3be5a6650ba0b2f5872785"),
    ("brunovsky-quadratic", "dimension", "json"): (2, "d7825b398ab4deebe67b5c73b87763a1637c9b6f29b89e68177e04f759c54bc3"),
    ("brunovsky-quadratic", "dimension", "pretty"): (2, "77ff479eb8a2ce156132fa74c7578a66b9ace834b080544a9eddc175f5cccbeb"),
    ("ode-jordan-3", "order", "json"): (2, "a3263c60e79956057fc1c33ec7d55ef1f8158b85661a4a03da72d5ee934fa8d9"),
    ("ode-jordan-3", "order", "pretty"): (2, "5bb72dc484509af7c579932d6a7b56181713a326d91be55ca740dbd7632a4788"),
    ("brunovsky-quadratic", "order", "json"): (2, "a3263c60e79956057fc1c33ec7d55ef1f8158b85661a4a03da72d5ee934fa8d9"),
    ("brunovsky-quadratic", "order", "pretty"): (2, "5bb72dc484509af7c579932d6a7b56181713a326d91be55ca740dbd7632a4788"),
    ("ode-jordan-3", "conjugacy-claim", "json"): (2, "bcb15e91da2a822aa5e937f3093005a23bf45b204799a104ce9c5c7218a1ec8b"),
    ("ode-jordan-3", "conjugacy-claim", "pretty"): (2, "f168933c8a0497b45df9d3daca24c2ca0c6add108b3be5a6650ba0b2f5872785"),
    ("brunovsky-quadratic", "conjugacy-claim", "json"): (2, "bcb15e91da2a822aa5e937f3093005a23bf45b204799a104ce9c5c7218a1ec8b"),
    ("brunovsky-quadratic", "conjugacy-claim", "pretty"): (2, "f168933c8a0497b45df9d3daca24c2ca0c6add108b3be5a6650ba0b2f5872785"),
    ("ode-jordan-3", "equivariance-claim", "json"): (2, "bcb15e91da2a822aa5e937f3093005a23bf45b204799a104ce9c5c7218a1ec8b"),
    ("ode-jordan-3", "equivariance-claim", "pretty"): (2, "f168933c8a0497b45df9d3daca24c2ca0c6add108b3be5a6650ba0b2f5872785"),
    ("brunovsky-quadratic", "equivariance-claim", "json"): (2, "a18494141aa7074f9f0d074735489e177f78f4547938da3cf4551e242bd25391"),
    ("brunovsky-quadratic", "equivariance-claim", "pretty"): (2, "b3b6f9df16a17f582747215c7c56a739797b39d2c0a49f3e4ef55dd9070bfd29"),
    ("ode-jordan-3", "space", "json"): (2, "d7825b398ab4deebe67b5c73b87763a1637c9b6f29b89e68177e04f759c54bc3"),
    ("ode-jordan-3", "space", "pretty"): (2, "77ff479eb8a2ce156132fa74c7578a66b9ace834b080544a9eddc175f5cccbeb"),
    ("brunovsky-quadratic", "space", "json"): (2, "d7825b398ab4deebe67b5c73b87763a1637c9b6f29b89e68177e04f759c54bc3"),
    ("brunovsky-quadratic", "space", "pretty"): (2, "77ff479eb8a2ce156132fa74c7578a66b9ace834b080544a9eddc175f5cccbeb"),
    ("ode-jordan-3", "range", "json"): (2, "d7825b398ab4deebe67b5c73b87763a1637c9b6f29b89e68177e04f759c54bc3"),
    ("ode-jordan-3", "range", "pretty"): (2, "77ff479eb8a2ce156132fa74c7578a66b9ace834b080544a9eddc175f5cccbeb"),
    ("brunovsky-quadratic", "range", "json"): (2, "d7825b398ab4deebe67b5c73b87763a1637c9b6f29b89e68177e04f759c54bc3"),
    ("brunovsky-quadratic", "range", "pretty"): (2, "77ff479eb8a2ce156132fa74c7578a66b9ace834b080544a9eddc175f5cccbeb"),
    ("ode-jordan-3", "generator-degree", "json"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("ode-jordan-3", "generator-degree", "pretty"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("brunovsky-quadratic", "generator-degree", "json"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("brunovsky-quadratic", "generator-degree", "pretty"): (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("ode-jordan-3", "state-term", "json"): (2, "0e239c091aa5d8e87282c5838a56396c83f887b6a6b1e44ea7d176bc999d30c4"),
    ("ode-jordan-3", "state-term", "pretty"): (2, "9aa0b93ab0a15b4191c0ce5e7b2160bb974694e2cda107d268f7606253dcd8e6"),
    ("brunovsky-quadratic", "state-term", "json"): (2, "0e239c091aa5d8e87282c5838a56396c83f887b6a6b1e44ea7d176bc999d30c4"),
    ("brunovsky-quadratic", "state-term", "pretty"): (2, "9aa0b93ab0a15b4191c0ce5e7b2160bb974694e2cda107d268f7606253dcd8e6"),
    ("ode-jordan-3", "dropped-generator", "json"): (2, "0e239c091aa5d8e87282c5838a56396c83f887b6a6b1e44ea7d176bc999d30c4"),
    ("ode-jordan-3", "dropped-generator", "pretty"): (2, "9aa0b93ab0a15b4191c0ce5e7b2160bb974694e2cda107d268f7606253dcd8e6"),
    ("brunovsky-quadratic", "dropped-generator", "json"): (2, "0e239c091aa5d8e87282c5838a56396c83f887b6a6b1e44ea7d176bc999d30c4"),
    ("brunovsky-quadratic", "dropped-generator", "pretty"): (2, "9aa0b93ab0a15b4191c0ce5e7b2160bb974694e2cda107d268f7606253dcd8e6"),
}

# the checks each tampering fails; the term added to the empty control normal
# form also lies outside the complement
FAILED = {
    "fresh": set(),
    "normal-coeff": {"certificates_match", "conjugacy_residual_zero"},
    "generator-coeff": {"certificates_match", "conjugacy_residual_zero"},
    "certificate-claim": {"certificates_match", "claimed_certificates_pass"},
    "dimension": {"dimensions_match"},
    "order": {"certificates_match", "conjugacy_residual_zero", "dimensions_match"},
    "conjugacy-claim": {"certificates_match", "claimed_certificates_pass"},
    "equivariance-claim": {"certificates_match"},
    "space": {"dimensions_match"},
    "range": {"dimensions_match"},
    "generator-degree": None,  # its terms no longer match the degree: malformed, exit 1
    "state-term": {"certificates_match", "conjugacy_residual_zero"},
    "dropped-generator": {"certificates_match", "conjugacy_residual_zero"},
}
FAILED_TOO = {
    ("brunovsky-quadratic", "normal-coeff"): {"kernel_residual_zero"},
    # a claimed true equivariance is refuted for the Jordan report; the
    # control report has none to claim, so only the certificate set differs
    ("ode-jordan-3", "equivariance-claim"): {"claimed_certificates_pass"},
}


def run(argv, stdin_text, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    return code, capsys.readouterr().out


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "name, what", sorted(PRETTY_GOLDEN), ids=[f"{n}-{w}" for n, w in sorted(PRETTY_GOLDEN)]
)
def test_pretty_bytes_are_golden(name, what, monkeypatch, capsys):
    if what == "normalize":
        argv = ["normalize", "--order", str(ORDER), "--format", "pretty"]
    else:
        argv = ["kernel", "--degree", what.split("-")[1], "--format", "pretty"]
    code, out = run(argv, json.dumps(DOCUMENTS[name]), monkeypatch, capsys)
    assert code == 0
    assert digest(out) == PRETTY_GOLDEN[name, what]


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_one_pretty_normalize_cuts_each_generator_once(name, monkeypatch, capsys):
    """The report document of the kind cuts each generator part out of its
    logged field once (`cli._over`, which rebuilds the part as HomPolys);
    the pretty report renders each part from the field's own rows, with no
    second cut, so a pretty run cuts as often as a JSON one: once per part.
    Its bytes stay golden."""
    calls = Counter()
    for fn in ("_over", "ode_report_document", "control_report_document"):

        def counted(*args, _fn=getattr(cli, fn)):
            calls[_fn.__name__] += 1
            return _fn(*args)

        monkeypatch.setattr(cli, fn, counted)
    kind = DOCUMENTS[name]["kind"]
    outputs = {}
    for fmt in ("json", "pretty"):
        calls.clear()
        argv = ["normalize", "--order", str(ORDER), "--format", fmt]
        code, outputs[fmt] = run(argv, json.dumps(DOCUMENTS[name]), monkeypatch, capsys)
        assert code == 0
        parts = sum(len(g) - 1 for g in json.loads(outputs["json"])["report"]["generators"])
        assert parts > 0
        assert calls == {"_over": parts, f"{kind}_report_document": 1}, fmt
    assert digest(outputs["pretty"]) == PRETTY_GOLDEN[name, "normalize"]


@pytest.mark.parametrize(
    "name, tamper, fmt", sorted(VERIFY_GOLDEN), ids=["-".join(key) for key in sorted(VERIFY_GOLDEN)]
)
def test_verify_bytes_are_golden(name, tamper, fmt, monkeypatch, capsys):
    argv = ["normalize", "--order", str(ORDER), "--format", "json"]
    code, out = run(argv, json.dumps(DOCUMENTS[name]), monkeypatch, capsys)
    assert code == 0
    payload = json.loads(out)
    TAMPER[tamper](payload["report"])
    code, out = run(["verify", "--format", fmt], json.dumps(payload), monkeypatch, capsys)
    assert (code, digest(out)) == VERIFY_GOLDEN[name, tamper, fmt]
    if FAILED[tamper] is None:
        assert (code, out) == (1, "")
    elif fmt == "json":
        result = json.loads(out)
        failed = {key for key, ok in result["checks"].items() if not ok}
        assert failed == FAILED[tamper] | FAILED_TOO.get((name, tamper), set())
        assert result["verified"] is (tamper == "fresh")


def test_every_tampering_is_pinned_for_both_kinds_and_formats():
    assert set(VERIFY_GOLDEN) == {
        (name, tamper, fmt) for name in DOCUMENTS for tamper in TAMPER for fmt in ("json", "pretty")
    }
