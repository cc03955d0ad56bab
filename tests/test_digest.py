"""``repro.digest.sha256`` is SHA-256: hashlib's digests, without OpenSSL."""

from __future__ import annotations

import hashlib
import importlib.util

import numpy as np
import pytest

from repro import digest


@pytest.mark.parametrize(
    "chunks",
    [
        [],
        [b""],
        [b"abc"],
        [b"x", b"y" * 63, b"z" * 1000],
        [np.arange(50_000, dtype="<f8").tobytes(), b"n=7"],
    ],
    ids=["nothing", "empty", "abc", "block-edges", "array"],
)
def test_sha256_matches_hashlib(chunks):
    ours, reference = digest.sha256(), hashlib.sha256()
    for chunk in chunks:
        ours.update(chunk)
        reference.update(chunk)
    assert ours.hexdigest() == reference.hexdigest()
    assert ours.digest() == reference.digest()
    assert digest.sha256(b"".join(chunks)).hexdigest() == reference.hexdigest()


def test_sha256_is_the_built_in_implementation():
    built_in = [m for m in ("_sha2", "_sha256") if importlib.util.find_spec(m)]
    if not built_in:
        pytest.skip("this interpreter has no built-in SHA-256")
    assert type(digest.sha256()).__module__ == built_in[0]
