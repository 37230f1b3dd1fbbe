"""Model state-dict persistence.

State dicts are flat ``{name: numpy array}`` mappings (see
:meth:`repro.nn.module.Module.state_dict`).  They are stored as compressed ``.npz``
archives so checkpoints of the pruned detectors remain small.
:class:`repro.pipeline.DeployableArtifact` writes its own sparse, uncompressed
``.npz`` and shares only the path helpers below.
"""

from __future__ import annotations

import os
from typing import Dict, Mapping

import numpy as np


def writable_npz_path(path: str) -> str:
    """``path`` with ``.npz`` appended when missing; creates its directory."""
    if not path.endswith(".npz"):
        path = path + ".npz"
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    return path


def existing_npz_path(path: str) -> str:
    """``path``, or ``path + ".npz"`` when only the latter exists."""
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        return path + ".npz"
    return path


def save_state_dict(state: Mapping[str, np.ndarray], path: str) -> str:
    """Save a state dict to ``path`` (``.npz`` appended when missing).

    Returns the path actually written.
    """
    path = writable_npz_path(path)
    np.savez_compressed(path, **{k: np.asarray(v) for k, v in state.items()})
    return path


def load_state_dict(path: str) -> Dict[str, np.ndarray]:
    """Load a state dict written by :func:`save_state_dict`."""
    with np.load(existing_npz_path(path)) as archive:
        return {key: archive[key] for key in archive.files}
