"""Shared pieces of the benchmark: inputs, statistics, checks, memory.

Everything a workload generates comes from the ``--seed`` argument: the
mix order, open-loop arrival times, idempotency keys and search queries.
The program under test only ever sees those generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE_PATH = os.path.join(HERE, "reference_points.json")

MIB = 1 << 20
DATASET_BYTES = 64 * MIB
#: The serving geometry every workload prices at (``repro serve`` and
#: ``CrossbarPool`` defaults); the committed reference uses the same.
TILE_ELEMENTS = 1 << 10
PRICING_SEED = 2017
#: The warm pricing mix: {Sobel, GEMM, FFT, Sharpen} x relax {0, 8}.
MIX_KEYS = tuple(
    (workload, relax)
    for workload in ("Sobel", "GEMM", "FFT", "Sharpen")
    for relax in (0, 8)
)
#: One request in SEARCH_EVERY is a ``/search`` instead of a pricing key.
SEARCH_EVERY = 8
SEARCH_K = 10
#: The campaign grid: every registered workload x these relax levels.
CAMPAIGN_LEVELS = (0, 4, 8, 12, 16)
#: Fields of a served point that must be bit-identical to the reference.
POINT_FIELDS = (
    "workload", "relax_bits", "dataset_bytes", "qol_percent", "qos_ok",
    "speedup", "energy_improvement", "edp_improvement", "apim_time_s",
    "apim_energy_j", "status", "effective_relax_bits",
)


class MissingProgram(RuntimeError):
    """The checkout holds no importable ``repro`` package."""


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``.

    Raises :class:`MissingProgram` when the package is absent, so the
    benchmark fails fast in a directory that holds only its own files.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro  # noqa: F401


# -- generated inputs ---------------------------------------------------------


class MixSource:
    """An endless, seeded stream of mix requests for one client.

    Each request is a dict: ``kind`` (``price``/``search``), the pricing
    key or the search query, and a unique ``idempotency_key``.
    """

    def __init__(self, seed: int, stream: int, dim: int = 256) -> None:
        self.rng = np.random.default_rng([seed, stream])
        self.prefix = f"pb{seed}-{stream}-{self.rng.integers(1 << 32):08x}"
        self.dim = dim
        self.count = 0

    def next(self) -> dict:
        self.count += 1
        key = f"{self.prefix}-{self.count}"
        if self.rng.integers(SEARCH_EVERY) == 0:
            query = self.rng.integers(0, 2, self.dim).tolist()
            return {"kind": "search", "query": query, "k": SEARCH_K,
                    "idempotency_key": key}
        workload, relax = MIX_KEYS[int(self.rng.integers(len(MIX_KEYS)))]
        return {"kind": "price", "workload": workload, "relax_bits": relax,
                "idempotency_key": key}


def poisson_schedule(seed: int, rate_rps: float, seconds: float) -> list:
    """Open-loop arrivals: ``[(due_offset_s, request), ...]`` over
    ``seconds`` at ``rate_rps`` with exponential gaps (no bursts)."""
    rng = np.random.default_rng([seed, 1 << 20])
    source = MixSource(seed, 0)
    schedule = []
    due = float(rng.exponential(1.0 / rate_rps))
    while due < seconds:
        schedule.append((due, source.next()))
        due += float(rng.exponential(1.0 / rate_rps))
    return schedule


# -- statistics ---------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (numpy's default); NaN when empty."""
    if len(values) == 0:
        return float("nan")
    return float(np.quantile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return quantile(values, 0.5)


# -- memory -------------------------------------------------------------------


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (MB = 10^6 bytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process, or 0."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return 0.0


def host_steal_ticks() -> tuple[int, int]:
    """``(steal, steal + busy)`` CPU ticks of the host since boot.

    Steal is time the hypervisor gave to other guests while this one had
    work; it inflates every wall-clock figure, so runs print its share
    and a noisy host can be told apart."""
    try:
        with open("/proc/stat") as stat:
            ticks = [int(value) for value in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    if len(ticks) < 8:
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = ticks
    return steal, steal + user + nice + system + irq + softirq


# -- correctness --------------------------------------------------------------


class Checks:
    """Counts checks run and failures found; keeps the first messages."""

    def __init__(self) -> None:
        self.run = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.run += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)
        return ok


class Reference:
    """Direct ``run_point`` pricing of every grid point, committed.

    ``reference_points.json`` is written by ``make_reference.py`` in a
    process of its own, so no state of a timed run can warm or alter it.
    """

    def __init__(self, path: str = REFERENCE_PATH) -> None:
        with open(path) as handle:
            document = json.load(handle)
        self.meta = document["meta"]
        self.points: dict[str, dict] = document["points"]
        canonical = json.dumps(self.points, sort_keys=True).encode()
        if hashlib.sha256(canonical).hexdigest() != self.meta["sha256"]:
            raise ValueError(f"{path} does not match its own sha256")

    def check(self, checks: Checks, point: dict | None, workload: str,
              relax_bits: int, where: str) -> bool:
        from repro.runtime.campaign import point_key

        key = point_key(workload, relax_bits, DATASET_BYTES)
        expected = self.points.get(key)
        if expected is None or point is None:
            return checks.expect(False, f"{where}: no point for {key}")
        wrong = [f for f in POINT_FIELDS if point.get(f) != expected[f]]
        return checks.expect(
            not wrong,
            f"{where}: {key} differs from direct run_point in {wrong}",
        )


class SearchOracle:
    """Client-side brute-force top-k over the serving codebook, through
    the codebook's unpacked-bits reference distances (not the packed
    popcount path the server uses)."""

    def __init__(self) -> None:
        from repro.search import default_search_index

        self.codebook = default_search_index(seed=PRICING_SEED).codebook
        self.dim = self.codebook.dim

    def top_k(self, query, k: int) -> tuple[list[int], list[int]]:
        distances = self.codebook.reference_distances(
            np.asarray(query, dtype=np.uint8))
        order = np.argsort(distances, kind="stable")[:k]
        return [int(i) for i in order], [int(d) for d in distances[order]]

    def check(self, checks: Checks, query, k: int, served: dict | None,
              where: str) -> bool:
        ids, distances = self.top_k(query, k)
        served = served or {}
        return checks.expect(
            served.get("ids") == ids and served.get("distances") == distances,
            f"{where}: served top-{k} {served.get('ids')} != brute force {ids}",
        )


def run_tempdir(workload: str) -> tempfile.TemporaryDirectory:
    """A fresh per-run scratch directory inside the checkout."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.TemporaryDirectory(prefix=f"{workload}-", dir=OUT_DIR)
