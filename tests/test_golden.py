"""Golden reports: one committed config per CLI kind, pinned by sha256.

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
    "stability": "71077a632060bca52390beba1a153202377eae83c948d61e9d8c4cedc4b9aa82",
    "privacy": "be000d8c46c9122e9218b007f0c3ff27df2a5bb8384af432f7e70d76231f9d99",
    "comm": "aae681d1b677918698794b758f4e6f174edb19229b83315e3f64dba8dd433c44",
    "quantum": "3ba14c9a87b09d80b9242350a033aa90cb43fa7e35a17c7fbfaa31fa9ac4f19c",
    "shadow": "0f074af23e7627ce25697235afcac69266b7de6364f4b1f1d8eea95365aaedf9",
}

DETAIL_DIGESTS = {
    "online": "4035c447b5ad1ebe421b2210d505cb93849c1de2be9328b6eaf306d8be75e50e",
    "adversary": "75cc03aea747bf6a44eec637538772eae89730961a385a4900ac3e2e74c7e241",
    "privacy": "c5b5b13d3007cddc5ad75250d98b717b8e073c60135af75e395287fb30694e73",
    "comm": "aa96ae08f5d3ca384ca63653a4d21fed1b1cb0f6666cee39f912158ba3732771",
    "shadow": "64035284185cf8180b9a7c4bda47f3bfa4b0f9b163050e59d8f4f3a5e8f27393",
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
