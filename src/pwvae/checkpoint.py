"""Binary checkpoints for model parameters, format ``pwvae-ckpt v3``.

A checkpoint is one uncompressed ``.npz`` archive, written by
``np.savez`` at exactly the given path and read by ``np.load`` without
pickle.  It holds:

- ``header``: a 0-d unicode array of lines, the magic ``pwvae-ckpt v3``
  and then ``<field> <value>`` for the model's ``variant``,
  ``vocab_size``, ``hidden``, ``gauss_dims``, ``piece_dims``,
  ``n_pieces`` and ``activation``, in that order;
- one C-ordered array per parameter, under its ``named_parameters()``
  name and in its model shape (``nvdm.param_shapes``): the decoder
  matrix ``dec_r`` is (latent dims, vocabulary).  Every parameter is
  float32, or every parameter is float64: the arrays store the model's
  dtype, so the header does not repeat it.  A reader that takes only
  float64, as every reader before float32 models did, rejects a float32
  file with its own "expected float64" message.

Version 2 archives had the same layout, except that ``dec_r`` was
(vocabulary, latent dims).  They, and v1 text files, are rejected by
name; no loader converts them.

The archive stores the raw bytes of every array and fixed member
timestamps, so save -> load is exact to the bit and save -> load -> save
reproduces the file byte for byte.  Loading checks the magic, parses the
header's fields and checks that every array is float32 or float64; the
model built from them checks the rest, as every ``NvdmModel`` does: that
the fields form a valid configuration, that the parameter names and
shapes are exactly those of ``param_shapes`` and that every parameter
has ``dec_b``'s dtype.  Any other file raises ``CheckpointError`` naming
the path; for a mixed archive it names the first parameter of another
dtype.  A Fortran-ordered array in an archive is loaded in C order.
"""

from __future__ import annotations

import zipfile

import numpy as np

from .nvdm import NvdmModel
from .tensor import _wrap

__all__ = ["CheckpointError", "MAGIC", "save_checkpoint", "load_checkpoint"]

MAGIC = "pwvae-ckpt v3"
_V1_MAGIC = b"pwvae-ckpt v1"
_V2_MAGIC = "pwvae-ckpt v2"
_ZIP_MAGIC = b"PK\x03\x04"
_HEADER = "header"
# Header keys, in file order: the model's fields, all integers but two.
_FIELDS = ("variant", "vocab_size", "hidden", "gauss_dims", "piece_dims", "n_pieces", "activation")
_TEXT_FIELDS = ("variant", "activation")


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint file."""


def save_checkpoint(model: NvdmModel, path: str) -> None:
    header = "\n".join([MAGIC] + [f"{key} {getattr(model, key)}" for key in _FIELDS])
    arrays = {_HEADER: np.array(header), **{name: np.ascontiguousarray(t.data) for name, t in model.named_parameters()}}
    # A file handle, not a path: given a path, np.savez would append ".npz".
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _read_header(header, path: str) -> dict:
    """Model fields from the header array, the magic checked first; their values are the model's to check."""
    lines = str(header).split("\n") if header is not None and header.shape == () and header.dtype.kind == "U" else []
    if lines and lines[0] == _V2_MAGIC:
        raise CheckpointError(f"{path}: a {_V2_MAGIC} checkpoint, whose dec_r is (vocabulary, latent dims); only {MAGIC} is read")
    if not lines or lines[0] != MAGIC:
        raise CheckpointError(f"{path}: not a {MAGIC} file (no {MAGIC} header)")
    try:
        fields = dict(line.split(" ") for line in lines[1:])
        if tuple(fields) != _FIELDS:
            raise ValueError(f"expected keys {list(_FIELDS)}, got {list(fields)}")
        return {key: value if key in _TEXT_FIELDS else int(value) for key, value in fields.items()}
    except ValueError as exc:
        raise CheckpointError(f"{path}: malformed header ({exc})") from None


def load_checkpoint(path: str) -> NvdmModel:
    with open(path, "rb") as fh:
        start = fh.read(len(_V1_MAGIC))
        if start == _V1_MAGIC:
            raise CheckpointError(
                f"{path}: a pwvae-ckpt v1 text checkpoint; only {MAGIC} is read. "
                "Load it with a pwvae that reads v1 and save it again to convert it."
            )
        if not start.startswith(_ZIP_MAGIC):
            raise CheckpointError(f"{path}: not a {MAGIC} file")
        fh.seek(0)
        # zipfile raises RuntimeError for member flags it cannot read, and
        # BadZipFile or EOFError for a damaged or truncated archive.
        try:
            with np.load(fh, allow_pickle=False) as archive:
                arrays = {name: archive[name] for name in archive.files}
        except (EOFError, OSError, RuntimeError, ValueError, zipfile.BadZipFile) as exc:
            raise CheckpointError(f"{path}: unreadable {MAGIC} archive ({type(exc).__name__}: {exc})") from None

    fields = _read_header(arrays.pop(_HEADER, None), path)
    for name, a in arrays.items():
        if a.dtype not in (np.float32, np.float64):
            raise CheckpointError(f"{path}: parameter {name!r} is {a.dtype}, expected float32 or float64")
    try:
        return NvdmModel(**fields, params={name: _wrap(np.ascontiguousarray(a)) for name, a in arrays.items()})
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
