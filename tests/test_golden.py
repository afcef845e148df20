"""Golden summaries: one committed config per CLI kind, pinned by sha256.

The digests pin the promise that an identical config and seed give a
byte-identical ``summary.json``, across code changes and not only within one
run.  A change that moves a digest changes the random stream or the report,
and must say so.
"""

import hashlib
import os

import pytest

from shatterlab.cli import KINDS, main

CONFIGS = os.path.join(os.path.dirname(__file__), "golden", "configs")

DIGESTS = {
    "dims": "d0b28c15fab5d300da12a1f555b7916a8d71bd235aee1b8f7d11d8722d86ba8c",
    "online": "2c43ac4904a9f20273cd75a4f24722ee29a05390ee546e18300d5edba2ea0460",
    "adversary": "0cff4c346ba74754ed0d3fe72b62620e0c96a76eb2e69589b8cdd375026b4517",
    "stability": "71077a632060bca52390beba1a153202377eae83c948d61e9d8c4cedc4b9aa82",
    "privacy": "cd05881022f406f6da68cb695220e50df3cabeed4294675c526aa51ba7f39065",
    "comm": "aae681d1b677918698794b758f4e6f174edb19229b83315e3f64dba8dd433c44",
    "quantum": "3ba14c9a87b09d80b9242350a033aa90cb43fa7e35a17c7fbfaa31fa9ac4f19c",
    "shadow": "0f074af23e7627ce25697235afcac69266b7de6364f4b1f1d8eea95365aaedf9",
}


def test_every_kind_has_a_golden():
    assert sorted(DIGESTS) == sorted(KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_summary_digest(kind, tmp_path):
    out = str(tmp_path / kind)
    assert main([kind, os.path.join(CONFIGS, f"{kind}.json"), "--out", out]) == 0
    with open(os.path.join(out, "summary.json"), "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == DIGESTS[kind]
