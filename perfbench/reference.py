"""Dense-grid reference fronts and 2-D hypervolume, outside any timed region.

The fitted (Ra, MRR) models are evaluated term by term on a uniform 201^3
grid over the box, one cutting-speed slice at a time so that memory stays
small, and each slice is reduced to its non-dominated set before the slices
are merged. The arithmetic is written out here, independent of the package's
stacked basis evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

GRID_N = 201


def _quad(c, vc, fz, t):
    return (
        c[0] + c[1] * vc + c[2] * fz + c[3] * t
        + c[4] * vc * vc + c[5] * fz * fz + c[6] * t * t
        + c[7] * vc * fz + c[8] * vc * t + c[9] * fz * t
        + c[10] * vc * fz * t
    )


def staircase(ra, mrr):
    """Non-dominated subset for (Ra min, MRR max), sorted by Ra with MRR rising.

    Exact duplicates collapse to one point.
    """
    ra, mrr = np.asarray(ra, dtype=float), np.asarray(mrr, dtype=float)
    if ra.size == 0:
        return ra, mrr
    order = np.argsort(ra)
    ra, mrr = ra[order], mrr[order]
    keep = np.empty(ra.size, dtype=bool)
    keep[0] = True
    keep[1:] = mrr[1:] > np.maximum.accumulate(mrr)[:-1]
    ra, mrr = ra[keep], mrr[keep]
    # MRR now rises strictly, so of the points tied on Ra only the last is not dominated
    last = np.append(ra[1:] != ra[:-1], True)
    return ra[last], mrr[last]


def hypervolume(ra, mrr, ref_ra: float, ref_mrr: float) -> float:
    """Area dominated by the points (Ra min, MRR max) and bounded by the reference
    point, by sort and sweep (Zitzler & Thiele 1999). Points beyond the
    reference point add nothing."""
    ra, mrr = np.asarray(ra, dtype=float), np.asarray(mrr, dtype=float)
    inside = (ra <= ref_ra) & (mrr >= ref_mrr)
    ra, mrr = staircase(ra[inside], mrr[inside])
    if ra.size == 0:
        return 0.0
    widths = np.diff(np.append(ra, ref_ra))
    return float(np.sum(widths * (mrr - ref_mrr)))


@dataclass
class GridReference:
    front_ra: np.ndarray
    front_mrr: np.ndarray
    ra_min: float
    ra_max: float
    mrr_min: float
    mrr_max: float
    #: per (Ra*, MRR*) utopia: non-dominated (|Ra - Ra*|/|Ra*|, |MRR - MRR*|/|MRR*|) pairs
    deviations: dict = field(default_factory=dict)

    @property
    def hv(self) -> float:
        return hypervolume(self.front_ra, self.front_mrr, self.ra_max, self.mrr_min)

    def best_mrr_under(self, ra_bound: float) -> float:
        """Largest grid MRR among points with Ra <= ra_bound (-inf when there is none)."""
        k = int(np.searchsorted(self.front_ra, ra_bound, side="right")) - 1
        return float(self.front_mrr[k]) if k >= 0 else -np.inf


def grid_reference(models, bounds, utopias=(), n: int = GRID_N) -> GridReference:
    """Evaluate both models on the n^3 grid; ``utopias`` are (Ra*, MRR*) pairs."""
    c_ra, c_mrr = (np.asarray(m, dtype=float) for m in models)
    axes = [np.linspace(lo, hi, n) for lo, hi in zip(bounds.lower, bounds.upper)]
    fz, t = axes[1][:, None], axes[2][None, :]
    fronts, devs = [], {u: [] for u in utopias}
    lo_ra, hi_ra, lo_mrr, hi_mrr = np.inf, -np.inf, np.inf, -np.inf
    for vc in axes[0]:
        ra, mrr = _quad(c_ra, vc, fz, t).ravel(), _quad(c_mrr, vc, fz, t).ravel()
        lo_ra, hi_ra = min(lo_ra, ra.min()), max(hi_ra, ra.max())
        lo_mrr, hi_mrr = min(lo_mrr, mrr.min()), max(hi_mrr, mrr.max())
        fronts.append(staircase(ra, mrr))
        for (ra_star, mrr_star), parts in devs.items():
            d1 = np.abs(ra - ra_star) / abs(ra_star)
            d2 = np.abs(mrr - mrr_star) / abs(mrr_star)
            a, b = staircase(d1, -d2)
            parts.append((a, -b))
    front_ra, front_mrr = staircase(np.concatenate([f[0] for f in fronts]),
                                    np.concatenate([f[1] for f in fronts]))
    deviations = {}
    for u, parts in devs.items():
        a, b = staircase(np.concatenate([p[0] for p in parts]),
                         -np.concatenate([p[1] for p in parts]))
        deviations[u] = np.column_stack([a, -b])
    return GridReference(front_ra, front_mrr, float(lo_ra), float(hi_ra), float(lo_mrr),
                         float(hi_mrr), deviations)
