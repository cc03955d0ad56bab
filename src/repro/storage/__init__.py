"""Out-of-core trajectory storage: the ``.tjc`` columnar format.

Public surface:

* :class:`TrajectoryStore` / :func:`open_store` -- O(footer) reader
  whose row reads are bounded ``pread`` + decode;
* :class:`StoreWriter` / :func:`write_store` -- streaming atomic writer;
* :class:`StoreDataset` -- lazy drop-in ``TrajectoryDataset`` over a
  store span (what engines consume);
* the converters in :mod:`repro.storage.ingest`, and
  :func:`open_as_store`, which opens a store or stream-converts JSONL.

See ``docs/STORAGE.md`` for the format specification.
"""

from repro.storage.columnar import (
    FORMAT_NAME,
    FORMAT_VERSION,
    STORE_SUFFIX,
    StoreFormatError,
    StoreWriter,
    TrajectoryStore,
    is_store_path,
    open_store,
    write_store,
)
from repro.storage.dataset import StoreDataset
from repro.storage.ingest import (
    convert_csv_to_store,
    convert_jsonl_to_store,
    ingest_porto_csv,
    open_as_store,
)

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "STORE_SUFFIX",
    "StoreDataset",
    "StoreFormatError",
    "StoreWriter",
    "TrajectoryStore",
    "convert_csv_to_store",
    "convert_jsonl_to_store",
    "ingest_porto_csv",
    "is_store_path",
    "open_as_store",
    "open_store",
    "write_store",
]
