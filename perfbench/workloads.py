"""The benchmark's evidence containers, built by the fixture forge.

Each workload turns one item seed into one container: a fixture-forge tree
(phiscan.fixtures.build_tree), optionally with phone-image packages added
(phone.py), written by phiscan.fixtures.write_tree. The same item seed
always gives the same bytes.

- vitals-dir: a directory holding all three medical apps at large table
  sizes, plus one small swept package. The parsers, SQLite staging,
  classification and the render do the work.
- phone-zip: a zip shaped like a phone image: the replica apps plus 35
  unmatched packages. Zip reads, hashing and the raw sweep do
  the work.
- triage-batch: one small random_spec container plus one tiny swept app,
  written both as a directory and as a zip. Per-scan fixed costs dominate.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import os
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from phiscan.fixtures import (
    OUTPUT_DIRECTORY,
    OUTPUT_ZIP,
    FixtureManifest,
    FixtureSpec,
    GlucoSmartBlock,
    HealthMateBlock,
    MyVitalsBlock,
    build_tree,
    paper_replica_spec,
    random_spec,
    write_tree,
)

import phone


@dataclass(frozen=True)
class Container:
    """One generated container; `paths` are its forms (a directory, a zip or both)."""

    seed: int
    paths: tuple[Path, ...]
    manifest: FixtureManifest
    build_s: float
    write_s: float
    files: int
    bytes: int

    def remove(self) -> None:
        for path in self.paths:
            if path.is_dir():
                shutil.rmtree(path)
            else:
                path.unlink()


def _vitals_tree(seed: int, scale: float):
    def n(rows: int) -> int:
        return max(1, round(rows * scale))

    rng = random.Random(seed)
    spec = FixtureSpec(
        seed=seed,
        myvitals=MyVitalsBlock(
            bp_rows=n(1400), spo2_rows=n(1400), weight_rows=n(900), env_rows=n(900),
            user_rows=2,
            credential={"account": "patient01@example.com", "password": "Passw0rd1",
                        "refresh_token": "rTab" * 10, "is_online": True}),
        glucosmart=GlucoSmartBlock(encrypted_db_count=4,
                                   user_info={"username": "patient01@example.com",
                                              "device_id": "BG5-00A1"}),
        healthmate=HealthMateBlock(device_rows=16, measure_rows=n(3500), user_rows=2),
    )
    tree, manifest = build_tree(spec)
    # one swept app with a planted SSN keeps every layer busy, the sweep lightly
    return spec, *phone.merge(tree, manifest, phone.phone_packages(rng, 1, ssn_rate=1.0))


def _phone_tree(seed: int, scale: float):
    rng = random.Random(seed)
    spec = dataclasses.replace(paper_replica_spec(), seed=seed)
    tree, manifest = build_tree(spec)
    packages = phone.phone_packages(rng, max(1, round(35 * scale)), lines=45)
    return spec, *phone.merge(tree, manifest, packages)


def _triage_tree(seed: int, scale: float):
    spec = random_spec(seed)
    tree, manifest = build_tree(spec)
    # a phone rarely holds the medical apps alone: one tiny swept app
    packages = phone.phone_packages(random.Random(seed), 1, lines=6)
    return spec, *phone.merge(tree, manifest, packages)


# workload -> (tree builder, container forms written)
_WORKLOADS = {
    "vitals-dir": (_vitals_tree, (OUTPUT_DIRECTORY,)),
    "phone-zip": (_phone_tree, (OUTPUT_ZIP,)),
    "triage-batch": (_triage_tree, (OUTPUT_DIRECTORY, OUTPUT_ZIP)),
}

WORKLOADS = tuple(_WORKLOADS)


def build_container(workload: str, seed: int, out: Path, scale: float = 1.0) -> Container:
    """Build one container of `workload` and write its forms at `out` and/or `out.zip`."""
    make_tree, kinds = _WORKLOADS[workload]
    gc.collect()  # no collection left over from the last scan lands in the timing
    t0 = time.perf_counter()
    spec, tree, manifest = make_tree(seed, scale)
    t1 = time.perf_counter()
    paths = tuple(out if kind == OUTPUT_DIRECTORY else out.with_name(out.name + ".zip")
                  for kind in kinds)
    for kind, path in zip(kinds, paths):
        write_tree(tree, dataclasses.replace(spec, output_kind=kind), path)
    t2 = time.perf_counter()
    return Container(seed=seed, paths=paths, manifest=manifest,
                     build_s=t1 - t0, write_s=t2 - t1, files=len(tree),
                     bytes=sum(len(data) for data in tree.values()))


def containers(workload: str, seed: int, work: Path, scale: float = 1.0) -> Iterator[Container]:
    """Fresh containers of `workload` for run seed `seed`, built one at a time on demand."""
    for item in itertools.count():
        yield build_container(workload, item_seed(workload, seed, item), work / f"c{item}", scale)


def item_seed(workload: str, seed: int | str, item: int | str) -> int:
    """A 63-bit container seed, distinct per (workload, run seed, item)."""
    digest = hashlib.sha256(f"{workload}/{seed}/{item}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def pin_seed(workload: str) -> int:
    """The fixed seed of the container whose digest pins.json records."""
    return item_seed(workload, "pin", 0)


def container_digest(container: Container) -> str:
    """SHA-256 over every form of a container: zip bytes, or each file's path and bytes."""
    h = hashlib.sha256()
    for path in container.paths:
        if path.is_dir():
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                for name in sorted(filenames):
                    full = Path(dirpath) / name
                    h.update(full.relative_to(path).as_posix().encode() + b"\0")
                    h.update(hashlib.sha256(full.read_bytes()).digest())
        else:
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()
