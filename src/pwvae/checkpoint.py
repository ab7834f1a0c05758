"""Binary checkpoints for model parameters, format ``pwvae-ckpt v2``.

A checkpoint is one uncompressed ``.npz`` archive, written by
``np.savez`` at exactly the given path and read by ``np.load`` without
pickle.  It holds:

- ``header``: a 0-d unicode array of lines, the magic ``pwvae-ckpt v2``
  and then ``<field> <value>`` for the model's ``variant``,
  ``vocab_size``, ``hidden``, ``gauss_dims``, ``piece_dims``,
  ``n_pieces`` and ``activation``, in that order;
- one float64 array per parameter, under its ``named_parameters()`` name
  and in its model shape.

The archive stores the raw bytes of every array and fixed member
timestamps, so save -> load is exact to the bit and save -> load -> save
reproduces the file byte for byte.  Loading checks the magic, then that
the header's fields form a configuration ``init_model`` accepts, then
that the parameter names, shapes and dtypes are exactly those of
``param_shapes``; any other file raises ``CheckpointError``.
"""

from __future__ import annotations

import zipfile

import numpy as np

from .nvdm import NvdmModel, _validate_config, param_shapes
from .tensor import _wrap

__all__ = ["CheckpointError", "MAGIC", "save_checkpoint", "load_checkpoint"]

MAGIC = "pwvae-ckpt v2"
_V1_MAGIC = b"pwvae-ckpt v1"
_ZIP_MAGIC = b"PK\x03\x04"
_HEADER = "header"
# Header keys, in file order: the model's fields, all integers but two.
_FIELDS = ("variant", "vocab_size", "hidden", "gauss_dims", "piece_dims", "n_pieces", "activation")
_TEXT_FIELDS = ("variant", "activation")


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint file."""


def save_checkpoint(model: NvdmModel, path: str) -> None:
    header = "\n".join([MAGIC] + [f"{key} {getattr(model, key)}" for key in _FIELDS])
    arrays = {_HEADER: np.array(header), **{name: t.data for name, t in model.named_parameters()}}
    # A file handle, not a path: given a path, np.savez would append ".npz".
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _read_header(header, path: str) -> dict:
    """Model fields from the header array; the magic is checked first, and the fields must be a configuration ``init_model`` accepts."""
    lines = str(header).split("\n") if header is not None and header.shape == () and header.dtype.kind == "U" else []
    if not lines or lines[0] != MAGIC:
        raise CheckpointError(f"{path}: not a {MAGIC} file (no {MAGIC} header)")
    try:
        fields = dict(line.split(" ") for line in lines[1:])
        if tuple(fields) != _FIELDS:
            raise ValueError(f"expected keys {list(_FIELDS)}, got {list(fields)}")
        fields = {key: value if key in _TEXT_FIELDS else int(value) for key, value in fields.items()}
        _validate_config(**fields)
        return fields
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
    expected = param_shapes(**fields)
    missing, extra = sorted(expected.keys() - arrays.keys()), sorted(arrays.keys() - expected.keys())
    if missing or extra:
        raise CheckpointError(f"{path}: parameters missing {missing}, unexpected {extra}")
    for name, shape in expected.items():
        got = arrays[name]
        if got.shape != shape or got.dtype != np.float64:
            raise CheckpointError(f"{path}: parameter {name!r} is {got.dtype} {got.shape}, expected float64 {shape}")
    return NvdmModel(**fields, params={name: _wrap(arrays[name]) for name in expected})
