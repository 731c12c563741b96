"""Signal-to-noise ratio and log-spectral distance scoring.

Corpus evaluation reads and degrades each file once and scores it twice:
the model's reconstruction and plain cubic-spline upsampling.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import dsp, model as model_mod, wavio


def snr(x, y):
    """10*log10(||y||^2 / ||x - y||^2) in dB; +inf when x == y exactly.

    `y` is the reference, `x` the reconstruction.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    ref = float(np.sum(y * y))
    if ref == 0.0:
        raise ValueError("reference signal is all-zero; SNR is undefined")
    err = float(np.sum((x - y) ** 2))
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(ref / err)


def lsd(x, y, frame=2048, hop=512):
    """Log-spectral distance: per-frame RMS over frequency bins of the log
    power difference, averaged over frames. `y` is the reference."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    X = dsp.stft_log_power(y, frame=frame, hop=hop)
    Xh = dsp.stft_log_power(x, frame=frame, hop=hop)
    per_frame = np.sqrt(np.mean((X - Xh) ** 2, axis=1))
    return float(np.mean(per_frame))


@dataclass
class EvalItem:
    file_id: str
    snr_db: float
    lsd: float


@dataclass
class EvalReport:
    """Per-file scores plus aggregates for one (method, scale, dataset)."""

    method: str
    scale: int
    dataset: str
    items: list = field(default_factory=list)
    skipped: list = field(default_factory=list)  # (path, reason)

    def aggregate(self):
        """Mean SNR/LSD over items; infinite-SNR items are excluded from the
        SNR mean but still counted in `count`."""
        if not self.items:
            return {"count": 0, "snr_db": None, "lsd": None}
        finite = [it.snr_db for it in self.items if math.isfinite(it.snr_db)]
        return {
            "count": len(self.items),
            "snr_db": float(np.mean(finite)) if finite else None,
            "lsd": float(np.mean([it.lsd for it in self.items])),
        }


def score_pair(recon, reference, file_id, frame=2048, hop=512):
    return EvalItem(file_id=file_id, snr_db=snr(recon, reference),
                    lsd=lsd(recon, reference, frame=frame, hop=hop))


def evaluate_corpus(model, files, r, dataset="corpus", frame=2048, hop=512):
    """Score a model and plain cubic-spline upsampling over WAV files.

    Each file is read and degraded once (`dsp.degrade`), and both
    reconstructions are scored against the same reference. Returns (model
    report, bicubic report), or (bicubic report,) when `model` is None. A file
    that fails is recorded in each report's `skipped`, never silently
    dropped; model output holding NaN or inf raises ValueError naming the
    file. Files are processed in sorted order for determinism.
    """
    reports = ([EvalReport("model", r, dataset)] if model is not None else []) \
        + [EvalReport("bicubic", r, dataset)]
    for path in sorted(str(f) for f in files):
        try:
            lo_up, hi = dsp.degrade(dsp.AudioSignal(*wavio.read_wav(path)), r)
            recons = ([model_mod.run_patched(model, lo_up.samples)]
                      if model is not None else []) + [lo_up.samples]
            items = [score_pair(x, hi.samples, os.path.basename(path), frame=frame, hop=hop)
                     for x in recons]
        except (OSError, ValueError) as exc:
            for rep in reports:
                rep.skipped.append((path, str(exc)))
            continue
        bad = int(np.count_nonzero(~np.isfinite(recons[0])))
        if bad:  # a broken model, not a bad file: refuse the whole run
            raise ValueError(f"{path}: model output holds {bad} non-finite samples (NaN or inf)")
        for rep, item in zip(reports, items):
            rep.items.append(item)
    return tuple(reports)


def bicubic_baseline(files, r, dataset="corpus", frame=2048, hop=512):
    """Score plain cubic-spline upsampling (no model) on the same files."""
    return evaluate_corpus(None, files, r, dataset, frame, hop)[-1]


def report_csv(reports):
    """Render reports as a comma-separated table: one row per file plus a
    mean row per report. Infinite SNR is written as the string 'inf'."""
    lines = ["method,scale,dataset,file,snr_db,lsd"]
    for rep in reports:
        for it in rep.items:
            s = "inf" if math.isinf(it.snr_db) else f"{it.snr_db:.6f}"
            lines.append(f"{rep.method},{rep.scale},{rep.dataset},{it.file_id},"
                         f"{s},{it.lsd:.6f}")
        agg = rep.aggregate()
        s = "" if agg["snr_db"] is None else f"{agg['snr_db']:.6f}"
        l = "" if agg["lsd"] is None else f"{agg['lsd']:.6f}"
        lines.append(f"{rep.method},{rep.scale},{rep.dataset},mean[{agg['count']}],{s},{l}")
    return "\n".join(lines) + "\n"
