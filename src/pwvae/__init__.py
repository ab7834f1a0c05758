"""Piecewise-constant and Gaussian latent variables for neural variational document models."""

from .corpus import Corpus, Document, load_corpus, make_synthetic_bimodal, save_corpus
from .gaussian import GaussianHead, GaussianParams
from .nvdm import ElboReport, NvdmModel, elbo, init_model
from .tensor import Tape, Tensor

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "Document",
    "ElboReport",
    "GaussianHead",
    "GaussianParams",
    "NvdmModel",
    "Tape",
    "Tensor",
    "__version__",
    "elbo",
    "init_model",
    "load_corpus",
    "make_synthetic_bimodal",
    "save_corpus",
]
