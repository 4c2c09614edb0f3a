"""The mask injectors and the self-supervision whiten as they stood while
masks were uint8 0/1 arrays.

`graphfill.data` now checks a mask once where it enters and returns bool
arrays. These are the functions it replaced, copied unchanged, so that
tests can check that every 0/1 mask gives the same entries, drawn from the
same random numbers, as before.
"""

from __future__ import annotations

import numpy as np

from graphfill.data import SpatioTemporalWindow
from graphfill.errors import ValidationError


def _move_to_eval(mask, drop):
    """(mask without `drop`, eval mask of `drop`); drop is a boolean
    subset of mask."""
    drop = drop.astype(np.uint8)
    return mask.astype(np.uint8) & ~drop, drop


def inject_point_missing(mask, rate=0.25, rng=None):
    """Independently hide each valid entry with probability `rate`."""
    if not (0.0 <= rate < 1.0):
        raise ValidationError(f"point-missing rate must lie in [0, 1), got {rate}")
    rng = np.random.default_rng(rng)
    mask = np.asarray(mask, dtype=np.uint8)
    drop = (rng.random(mask.shape) < rate) & (mask == 1)
    return _move_to_eval(mask, drop)


def inject_block_missing(mask, point_rate=0.05, failure_prob=0.0015,
                         len_min=12, len_max=48, rng=None):
    """Simulate sensor failures: per (step, node), with probability
    failure_prob a failure starts and lasts S ~ U{len_min..len_max} steps,
    hiding that node's valid entries over [step, step+S); overlapping
    failures merge. On top of that, hide point_rate of the remaining
    valid entries. Everything hidden (and originally valid) becomes an
    evaluation target.
    """
    if not (0.0 <= point_rate < 1.0):
        raise ValidationError(f"point rate must lie in [0, 1), got {point_rate}")
    if len_min > len_max or len_min < 1:
        raise ValidationError(f"bad failure length range [{len_min}, {len_max}]")
    rng = np.random.default_rng(rng)
    mask = np.asarray(mask, dtype=np.uint8)
    n_steps, n_nodes = mask.shape
    failed = np.zeros_like(mask, dtype=bool)
    starts = rng.random(mask.shape) < failure_prob
    lengths = rng.integers(len_min, len_max + 1, size=mask.shape)
    for t, j in np.argwhere(starts):
        failed[t:t + lengths[t, j], j] = True
    drop = failed & (mask == 1)
    remaining = (mask == 1) & ~drop
    drop |= (rng.random(mask.shape) < point_rate) & remaining
    return _move_to_eval(mask, drop)


def inject_sparsity_sweep(mask, p, rng=None):
    """Remove each valid observation independently with probability p."""
    if not (0.0 <= p < 1.0):
        raise ValidationError(f"sparsity level p must lie in [0, 1), got {p}")
    return inject_point_missing(mask, rate=p, rng=rng)


WHITEN_LEVELS = (0.2, 0.5, 0.8)


def training_whiten(window: SpatioTemporalWindow, rng=None, p=None):
    """Self-supervision masks for one training window.

    Draws p uniformly from {0.2, 0.5, 0.8} (unless given) and hides that
    fraction of the window's valid entries — round to nearest, at least
    one — from the model input, marking them as loss targets instead.
    Entries held out for evaluation are absent from the window mask
    already, so they can appear in neither output.

    Returns (input_mask, loss_mask), disjoint, union = window.mask.
    """
    rng = np.random.default_rng(rng)
    if p is None:
        p = WHITEN_LEVELS[rng.integers(len(WHITEN_LEVELS))]
    valid = np.argwhere(window.mask == 1)
    if len(valid) == 0:
        raise ValidationError("cannot whiten a window with no valid entries")
    n_hide = max(1, int(np.floor(p * len(valid) + 0.5)))
    n_hide = min(n_hide, len(valid))
    chosen = valid[rng.choice(len(valid), size=n_hide, replace=False)]
    loss_mask = np.zeros_like(window.mask)
    loss_mask[chosen[:, 0], chosen[:, 1]] = 1
    input_mask = window.mask & ~loss_mask
    return input_mask, loss_mask

