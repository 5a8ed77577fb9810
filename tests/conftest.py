import re

import numpy as np
import pytest

from replica_anneal.annealer import make_rng
from replica_anneal.data_io import MAGIC_IMAGES, MAGIC_LABELS, MNIST_FILES, IdxFile, write_idx
from replica_anneal.energies import PatternSet, TabulatedEnergy, generate_synthetic
from replica_anneal import experiments, fixtures


def pytest_terminal_summary(terminalreporter):
    """Echo one [PASS]/[FAIL]/[SKIP] line per acceptance criterion."""
    import test_acceptance

    lines = list(test_acceptance.VERDICT_LINES)
    for rep in terminalreporter.stats.get("skipped", []):
        match = re.search(r"test_criterion_(\d+)_(\w+)", rep.nodeid)
        if match:
            lines.append(f"[SKIP] criterion {int(match.group(1))}: "
                         f"{match.group(2)} -- {rep.longrepr[2]}")
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines, key=lambda s: int(s.split("criterion")[1].split(":")[0])):
            terminalreporter.write_line(line)


def config_of(idx: int, n: int) -> np.ndarray:
    """The spins of configuration idx: bit i of idx is 1 iff spin i is +1."""
    bits = (idx >> np.arange(n)) & 1
    return bits.astype(np.int8) * 2 - 1


def write_mnist(directory, seed=0, n_train=60, n_test=20, side=4):
    """The four IDX files of a small random MNIST-shaped dataset."""
    gen = np.random.Generator(np.random.Philox(seed))
    for prefix, n in (("train", n_train), ("test", n_test)):
        pixels = gen.integers(0, 256, size=n * side * side) * (gen.random(n * side * side) < 0.3)
        write_idx(directory / MNIST_FILES[f"{prefix}_images"],
                  IdxFile(MAGIC_IMAGES, (n, side, side), pixels.astype(np.uint8)))
        write_idx(directory / MNIST_FILES[f"{prefix}_labels"],
                  IdxFile(MAGIC_LABELS, (n,), gen.integers(0, 10, size=n).astype(np.uint8)))


@pytest.fixture(autouse=True)
def cold_model_cache():
    """Each test starts and ends with no built model, so that no result depends
    on which test built a model before it."""
    experiments._cached_model.cache_clear()
    yield
    experiments._cached_model.cache_clear()


@pytest.fixture
def rng():
    return make_rng(20240817)


@pytest.fixture
def two_state():
    # E(+1) = 0, E(-1) = 1 on a single spin
    return fixtures.two_state()


@pytest.fixture
def double_well2():
    return fixtures.double_well(2)


@pytest.fixture
def cluster4():
    return fixtures.cluster_plus_isolated(4)


@pytest.fixture
def small_patterns():
    return generate_synthetic(count=8, dim=11, seed=3)


@pytest.fixture
def tiny_tabulated(rng):
    return fixtures.random_integer_energies(3, rng)
