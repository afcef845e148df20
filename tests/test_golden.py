"""Golden reports: one committed config per CLI kind, plus the online config
under each drawless noise (``online_<noise>.json``), pinned by sha256.

The digests pin the promise that an identical config and seed give a
byte-identical ``summary.json`` (and ``detail.csv``, for the kinds that write
one), across code changes and not only within one run.  A change that moves
a digest changes the random stream or the report, and must say so.
"""

import hashlib
import os

import pytest

from shatterlab.cli import KINDS, main

CONFIGS = os.path.join(os.path.dirname(__file__), "golden", "configs")

DIGESTS = {
    "dims": "b4c303dca534e0cbd2e34eab072fd3424b95cee632b9463b29bd278ce5b1c2c8",
    "online": "2c43ac4904a9f20273cd75a4f24722ee29a05390ee546e18300d5edba2ea0460",
    "adversary": "0cff4c346ba74754ed0d3fe72b62620e0c96a76eb2e69589b8cdd375026b4517",
    "stability": "c85c81ef59b7144bb7610f6c3da54d5313906907cfd0e543be0863b8cd7517c7",
    "privacy": "be000d8c46c9122e9218b007f0c3ff27df2a5bb8384af432f7e70d76231f9d99",
    "comm": "aae681d1b677918698794b758f4e6f174edb19229b83315e3f64dba8dd433c44",
    "quantum": "9c184cba5b1413fdd7e5193121f418954ff7862a83f9ee493c72b81177346a33",
    "shadow": "0f074af23e7627ce25697235afcac69266b7de6364f4b1f1d8eea95365aaedf9",
}

DETAIL_DIGESTS = {
    "online": "4035c447b5ad1ebe421b2210d505cb93849c1de2be9328b6eaf306d8be75e50e",
    "adversary": "75cc03aea747bf6a44eec637538772eae89730961a385a4900ac3e2e74c7e241",
    "privacy": "c5b5b13d3007cddc5ad75250d98b717b8e073c60135af75e395287fb30694e73",
    "comm": "aa96ae08f5d3ca384ca63653a4d21fed1b1cb0f6666cee39f912158ba3732771",
    "shadow": "64035284185cf8180b9a7c4bda47f3bfa4b0f9b163050e59d8f4f3a5e8f27393",
}

#: the online golden's game under each drawless noise, (summary, detail): these
#: games take run_online_game's drawless branch, which uniform_within does not
DRAWLESS_DIGESTS = {
    "exact": ("ed3aa35bbdacdc23993a7856eaa533052c4d96180116769bba98e3e0009c69f8",
              "cee3470f077223fb4a53b2a2302f25b7b283cf923ce927c3729edfe72459ed18"),
    "round_to_grid": ("6c422b3c986cc6744c622cbdf1ffcef5b70f95233e2edf776cfa5175e0e22fc6",
                      "2112a58023c31f2bfd99c000c9ea10e08aff37a959d22e60ef22979d4cf7b549"),
    "adversarial_extreme": ("8cec6c2130a57a80f554e1cb3ff9c239c0d464bf66c474507df6a78f95569d97",
                            "987fb6b82a89c98c2655985a4d354de21d862ac91b15f53d72a4c25152ed2c60"),
}


def sha256_of(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_every_kind_has_a_golden():
    assert sorted(DIGESTS) == sorted(KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_summary_digest(kind, tmp_path):
    out = str(tmp_path / kind)
    assert main([kind, os.path.join(CONFIGS, f"{kind}.json"), "--out", out]) == 0
    assert sha256_of(os.path.join(out, "summary.json")) == DIGESTS[kind]


@pytest.mark.parametrize("kind", KINDS)
def test_detail_digest(kind, tmp_path):
    out = str(tmp_path / kind)
    assert main([kind, os.path.join(CONFIGS, f"{kind}.json"), "--out", out]) == 0
    detail = os.path.join(out, "detail.csv")
    if kind in DETAIL_DIGESTS:
        assert sha256_of(detail) == DETAIL_DIGESTS[kind]
    else:
        assert not os.path.exists(detail)


@pytest.mark.parametrize("noise", DRAWLESS_DIGESTS)
def test_drawless_online_digests(noise, tmp_path):
    out = str(tmp_path / noise)
    assert main(["online", os.path.join(CONFIGS, f"online_{noise}.json"), "--out", out]) == 0
    digests = sha256_of(os.path.join(out, "summary.json")), sha256_of(os.path.join(out, "detail.csv"))
    assert digests == DRAWLESS_DIGESTS[noise]
