"""MNIST-75SP: superpixel digit graphs with feature-noise test shifts.

The paper converts MNIST images to graphs of at most 75 superpixels (node
features: intensity + coordinates) and evaluates under two feature shifts:
Test(noise) adds N(0, 0.4) Gaussian noise to node features and Test(color)
colourises the image with independent per-channel noise.

MNIST itself cannot be downloaded offline, so digits are rendered
procedurally: each class 0-9 is a canonical set of pen strokes, randomly
rotated / scaled / translated / jittered and rasterised to a 28x28
intensity image, then clustered into superpixels via k-means on the
foreground pixels.  Node features are ``[r, g, b, x, y]`` with the three
colour channels equal to the grayscale intensity at train time, which
keeps feature dimensionality constant across the colour shift: a model
trained on one grayscale channel could not read the three-channel colour
test split.  Graph structure is a k-nearest-neighbour
graph over superpixel centroids and is identical across test variants.
"""

from __future__ import annotations

import numpy as np

from repro.graph.data import Graph
from repro.graph.utils import undirected_edge_index
from repro.datasets.base import DatasetInfo, DatasetSplits
from repro.datasets.transforms import add_gaussian_noise, add_color_noise

__all__ = ["make_mnist75sp", "render_digit", "image_to_superpixel_graph", "DIGIT_STROKES", "MNIST75SP_INFO"]

_CANVAS = 28
_MAX_SUPERPIXELS = 75
_KNN = 6
_NOISE_SIGMA = 0.4
_COLOR_CHANNELS = slice(0, 3)

MNIST75SP_INFO = DatasetInfo(
    name="MNIST-75SP",
    task_type="multiclass",
    num_tasks=1,
    num_classes=10,
    metric="accuracy",
    split_method="feature",
    feature_dim=5,
)

# Canonical pen strokes per digit, as polylines in the unit square
# (x right, y down).  Coarse but distinctive silhouettes.
DIGIT_STROKES: dict[int, list[list[tuple[float, float]]]] = {
    0: [[(0.5, 0.08), (0.78, 0.2), (0.85, 0.5), (0.78, 0.8), (0.5, 0.92),
         (0.22, 0.8), (0.15, 0.5), (0.22, 0.2), (0.5, 0.08)]],
    1: [[(0.35, 0.25), (0.55, 0.08), (0.55, 0.92)]],
    2: [[(0.2, 0.25), (0.4, 0.08), (0.7, 0.12), (0.78, 0.35), (0.5, 0.6),
         (0.2, 0.9), (0.82, 0.9)]],
    3: [[(0.22, 0.12), (0.7, 0.1), (0.78, 0.3), (0.5, 0.48), (0.8, 0.68),
         (0.7, 0.9), (0.2, 0.88)]],
    4: [[(0.65, 0.92), (0.65, 0.08), (0.18, 0.62), (0.85, 0.62)]],
    5: [[(0.78, 0.1), (0.25, 0.1), (0.22, 0.45), (0.6, 0.42), (0.8, 0.62),
         (0.72, 0.88), (0.22, 0.9)]],
    6: [[(0.7, 0.08), (0.35, 0.3), (0.22, 0.62), (0.35, 0.9), (0.68, 0.88),
         (0.78, 0.65), (0.6, 0.5), (0.25, 0.58)]],
    7: [[(0.18, 0.1), (0.82, 0.1), (0.45, 0.92)]],
    8: [[(0.5, 0.5), (0.75, 0.32), (0.62, 0.08), (0.38, 0.08), (0.25, 0.32),
         (0.5, 0.5), (0.75, 0.7), (0.62, 0.92), (0.38, 0.92), (0.25, 0.7), (0.5, 0.5)]],
    9: [[(0.75, 0.35), (0.6, 0.1), (0.3, 0.12), (0.22, 0.35), (0.4, 0.52),
         (0.75, 0.42), (0.7, 0.92)]],
}


def render_digit(digit: int, rng: np.random.Generator, thickness: float = 1.6) -> np.ndarray:
    """Rasterise a jittered instance of ``digit`` to a 28x28 intensity image."""
    if digit not in DIGIT_STROKES:
        raise ValueError(f"digit must be 0-9, got {digit}")
    angle = rng.normal(0.0, 0.12)
    scale = rng.uniform(0.8, 1.05)
    shift = rng.normal(0.0, 1.2, size=2)
    cos_a, sin_a = np.cos(angle), np.sin(angle)
    segments = []
    for stroke in DIGIT_STROKES[digit]:
        pts = np.asarray(stroke, dtype=np.float64) * (_CANVAS - 6) + 3.0
        pts += rng.normal(0.0, 0.5, size=pts.shape)  # per-vertex jitter
        centre = np.array([_CANVAS / 2, _CANVAS / 2])
        pts = (pts - centre) * scale
        pts = pts @ np.array([[cos_a, -sin_a], [sin_a, cos_a]]).T + centre + shift
        segments.extend(zip(pts[:-1], pts[1:]))
    ys, xs = np.mgrid[0:_CANVAS, 0:_CANVAS]
    pixels = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)
    dist = np.full(len(pixels), np.inf)
    for a, b in segments:
        ab = b - a
        denom = float(ab @ ab) + 1e-12
        t = np.clip(((pixels - a) @ ab) / denom, 0.0, 1.0)
        proj = a + t[:, None] * ab
        d = np.linalg.norm(pixels - proj, axis=1)
        dist = np.minimum(dist, d)
    intensity = np.clip(1.0 - dist / thickness, 0.0, 1.0)
    return intensity.reshape(_CANVAS, _CANVAS)


def image_to_superpixel_graph(
    image: np.ndarray,
    rng: np.random.Generator,
    max_superpixels: int = _MAX_SUPERPIXELS,
    knn: int = _KNN,
) -> Graph:
    """Cluster foreground pixels into superpixels and k-NN connect them.

    Node features are ``[r, g, b, x, y]`` (colour channels replicate the
    grayscale superpixel intensity; coordinates normalised to [0, 1]).
    """
    rows, cols = np.nonzero(image > 0.05)
    values = image[rows, cols]
    coords = np.stack([cols, rows], axis=1).astype(np.float64)
    if len(coords) < 2:
        raise ValueError("image has no foreground to build a graph from")
    k = min(max_superpixels, len(coords))
    if k < len(coords):
        # Imported here: the entry points never generate MNIST-75SP, and
        # scipy.cluster costs about a third of their start-up.
        from scipy.cluster.vq import kmeans2

        centroids, labels = kmeans2(coords, k, minit="++", seed=int(rng.integers(2**31)))
        # Drop empty clusters.
        node_xy, node_val = [], []
        for c in range(k):
            members = labels == c
            if not members.any():
                continue
            node_xy.append(coords[members].mean(axis=0))
            node_val.append(values[members].mean())
        node_xy = np.asarray(node_xy)
        node_val = np.asarray(node_val)
    else:
        node_xy, node_val = coords, values
    n = len(node_xy)
    xy_norm = node_xy / (_CANVAS - 1)
    features = np.column_stack([node_val, node_val, node_val, xy_norm])
    # Symmetric k-NN over centroids.
    diffs = node_xy[:, None, :] - node_xy[None, :, :]
    d2 = (diffs**2).sum(axis=-1)
    np.fill_diagonal(d2, np.inf)
    neighbours = np.argsort(d2, axis=1)[:, : min(knn, n - 1)]
    pairs = {(min(i, j), max(i, j)) for i in range(n) for j in neighbours[i]}
    return Graph(x=features, edge_index=undirected_edge_index(sorted(pairs)))


def _sample_digits(num: int, rng: np.random.Generator) -> list[Graph]:
    graphs = []
    while len(graphs) < num:
        digit = int(rng.integers(0, 10))
        image = render_digit(digit, rng)
        graph = image_to_superpixel_graph(image, rng)
        graph.y = digit
        graph.meta["digit"] = digit
        graphs.append(graph)
    return graphs


def make_mnist75sp(
    rng: np.random.Generator,
    num_train: int = 300,
    num_valid: int = 60,
    num_test: int = 60,
) -> DatasetSplits:
    """Build MNIST-75SP with the paper's two feature-shift test sets.

    Paper scale is 6000/500/500; defaults are scaled down for the numpy
    substrate.  Both test sets share the *same* clean underlying graphs,
    so the shift is purely in the node features:

    * ``Test(noise)`` — shared N(0, 0.4) noise on the three colour
      channels (grayscale noise).
    * ``Test(color)`` — independent N(0, 0.4) noise per colour channel.
    """
    train = _sample_digits(num_train, rng)
    valid = _sample_digits(num_valid, rng)
    clean_test = _sample_digits(num_test, rng)
    noise_rng = np.random.default_rng(rng.integers(2**31))
    color_rng = np.random.default_rng(rng.integers(2**31))
    test_noise = add_gaussian_noise(clean_test, _NOISE_SIGMA, noise_rng, channels=_COLOR_CHANNELS)
    test_color = add_color_noise(clean_test, _NOISE_SIGMA, color_rng, channels=_COLOR_CHANNELS)
    return DatasetSplits(
        info=MNIST75SP_INFO,
        train=train,
        valid=valid,
        tests={"Test(noise)": test_noise, "Test(color)": test_color},
    )
