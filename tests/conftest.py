import sys
from pathlib import Path

try:
    import mssvs  # noqa: F401
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mssvs.circuit import CircuitColumns  # noqa: E402


def columns_of(points):
    """The ``CircuitColumns`` of a non-empty sequence of points that share m."""
    points = list(points)
    counts = sorted({p.m for p in points})
    if len(counts) != 1:
        raise ValueError(f"points must share one m, got m = {counts}")
    return CircuitColumns(*zip(*((p.r, p.eta1, p.eta2, p.T) for p in points)), counts[0])
