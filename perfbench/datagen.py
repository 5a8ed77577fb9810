"""Synthetic MNIST-shaped dataset, written as the four standard IDX files.

10 000 train and 2 000 test images of 28x28 uint8 pixels over K=10 classes.
Each class has a random stroke template inside a 24x24 centre; a 2-pixel
border is zero in every image, as in MNIST. Stroke pixels are on with
probability 0.65 and the other centre pixels with probability 0.05, which
leaves about 80% of all pixels at zero. Deterministic per seed.

Run as ``python3 -m perfbench.datagen --seed N --out DIR`` so that the memory
used here does not count towards the benchmark process's peak RSS.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from replica_anneal.data_io import (
    MAGIC_IMAGES,
    MAGIC_LABELS,
    MNIST_FILES,
    IdxFile,
    write_idx,
)

SIDE = 28
BORDER = 2
NUM_CLASSES = 10
N_TRAIN = 10_000
N_TEST = 2_000
STROKE_SHARE = 0.35
P_STROKE = 0.65
P_BACKGROUND = 0.05
PROPS_FILE = "props.json"


def generate(seed: int, n_train: int = N_TRAIN, n_test: int = N_TEST):
    """Returns ((train_images, train_labels), (test_images, test_labels)).

    Images are (n, SIDE*SIDE) uint8, labels (n,) uint8.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 0xC0FFEE])))
    centre = np.zeros((SIDE, SIDE), dtype=bool)
    centre[BORDER:SIDE - BORDER, BORDER:SIDE - BORDER] = True
    centre = centre.ravel()
    stroke = (rng.random((NUM_CLASSES, SIDE * SIDE)) < STROKE_SHARE) & centre
    p_on = np.where(stroke, P_STROKE, np.where(centre, P_BACKGROUND, 0.0))

    def draw(n):
        labels = rng.integers(0, NUM_CLASSES, size=n).astype(np.uint8)
        images = np.zeros((n, SIDE * SIDE), dtype=np.uint8)
        for lo in range(0, n, 1000):  # chunks keep the float temporaries small
            hi = min(lo + 1000, n)
            on = rng.random((hi - lo, SIDE * SIDE)) < p_on[labels[lo:hi]]
            values = rng.integers(64, 256, size=(hi - lo, SIDE * SIDE), dtype=np.uint8)
            images[lo:hi] = np.where(on, values, 0)
        return images, labels

    return draw(n_train), draw(n_test)


def properties(images: np.ndarray) -> dict:
    return {
        "images": int(images.shape[0]),
        "zero_pixel_share": float(np.mean(images == 0)),
        "features_zero_in_every_image": int(np.sum(images.max(axis=0) == 0)),
    }


def write_dataset(seed: int, out: Path, n_train: int = N_TRAIN, n_test: int = N_TEST) -> dict:
    """Write the four IDX files and a props.json describing them; returns the props."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    (train_x, train_y), (test_x, test_y) = generate(seed, n_train, n_test)
    for (images, labels), prefix in (((train_x, train_y), "train"), ((test_x, test_y), "test")):
        write_idx(out / MNIST_FILES[f"{prefix}_images"],
                  IdxFile(MAGIC_IMAGES, (images.shape[0], SIDE, SIDE), images.ravel()))
        write_idx(out / MNIST_FILES[f"{prefix}_labels"],
                  IdxFile(MAGIC_LABELS, (labels.shape[0],), labels))
    props = {"seed": seed, "train": properties(train_x), "test": properties(test_x)}
    (out / PROPS_FILE).write_text(json.dumps(props, sort_keys=True))
    return props


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    write_dataset(args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
