"""SHA-256 from CPython's own implementation, without OpenSSL.

``import hashlib`` loads ``_hashlib`` and with it OpenSSL's libcrypto,
3.4-3.7 MiB of a mine process's peak resident set, whatever it then
hashes.  The program hashes with SHA-256 alone: the dataset fingerprint
and index-cache keys (:mod:`repro.core.index_cache`), a ``.tjc`` store's
content hash (:mod:`repro.storage.columnar`) and the compiled kernel
library's file name (:mod:`repro.core.kernels.compiled`).  So
:func:`sha256` is CPython's built-in implementation -- ``_sha2`` on 3.12
and later, ``_sha256`` on 3.11 -- and ``hashlib``'s only on a build that
has neither.  SHA-256 is one function: every implementation gives the
same digest of the same bytes, so keys and file names do not depend on
which one ran.

The built-in code is slower per byte than OpenSSL's on CPUs with SHA
instructions (about 250 against 1,400 MiB/s on a 2-core Xeon with
``sha_ni``, CPython 3.11), which only a multi-gigabyte store conversion
or an uncached fingerprint of a large in-RAM dataset would notice.

This module imports nothing from :mod:`repro`, so any layer may use it.
"""

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.11
    except ImportError:  # a build without the built-in hashes
        from hashlib import sha256

__all__ = ["sha256"]
