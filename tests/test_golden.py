"""Byte-identical outputs: SHA-256 pins of the command-line verify reports
(small and standard size, and the negative control) and the experiment files.

The pins were computed before the vertex, radial and float64 sums moved
onto the packed level core, so any change in an exact value, in a float64
leapfrog bit or in the formatting shows up here.  Each experiment pin is
the digest of the sorted listing "<file name> <sha256 of its bytes>"; the
manifest is hashed without ``wall_time_seconds`` (varies per run) and
``config.out`` (the temporary directory).
"""

import hashlib
import json

import pytest

from treewave.cli import main
from treewave.experiment import ExperimentConfig, run_experiment

# (argv, exit code, SHA-256 of stdout) for every verify report that is pinned
VERIFY_REPORTS = [
    (
        ["--q", "2,3", "--seed", "0", "--size", "small"],
        0,
        "6040411e06c2698262ac19dce34a74d278f01e4ccee295223b03228f5c296faf",
    ),
    (
        ["--q", "2,3", "--seed", "0"],
        0,
        "ea1fe2bf00d286dc84ce858e2f997d2d9f074fba4065f3cfdf293847b402d23b",
    ),
    (
        ["--q", "2", "--seed", "0", "--size", "small", "--negative-control"],
        1,
        "52941ed648938982d51b9fcc39db3bcdf1a34443da7a6a652712495b7baa99c9",
    ),
]

EXACT_FILES = {
    2: "ad3ee0abc0390fe05606ac75b5fb34f29d1d88e975cf254c37e9a4a18333d13a",
    3: "88535ff7395ffbc512f62f205df6b28a8c485ab9e60e74db7d2aad21dfacde36",
}

# snapshot CSVs only: float64 energies are sums whose order may change
FLOAT_SNAPSHOTS = {
    (2, "both"): "a07e6675f7e6576028ed0e664d56ea00da6f64c86a62669927b9dd2602b98c44",
    (2, "recurrence"): "dca39076f653eabb4175ee9443150375d4fadf6774a1c9fec90c51891be26749",
    (3, "both"): "197fe086f9af3e1afd2ffe43936cb0093fcd13dc9c571ac6eab9f9ab0f4e52d5",
    (3, "recurrence"): "4dcdf59fec956e42d69c36e2390580dd98813d78d26becb1a39fbe3456d54c36",
}
FLOAT_AGREEMENT = {2: "max abs deviation 1.332e-15", 3: "max abs deviation 9.437e-16"}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _listing_digest(files: dict) -> str:
    listing = "\n".join(f"{name} {_sha256(data)}" for name, data in sorted(files.items()))
    return _sha256(listing.encode("utf-8"))


def _experiment(tmp_path, q, mode, solver):
    out = tmp_path / f"{q}-{mode}-{solver}"
    config = ExperimentConfig(
        q=q,
        steps=6,
        mode=mode,
        solver=solver,
        seed=0,
        initial={"f": "random", "g": "random"},
        out=str(out),
    )
    run_experiment(config)
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    manifest = json.loads(files["manifest.json"])
    manifest.pop("wall_time_seconds")
    manifest["config"].pop("out")
    files["manifest.json"] = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return files, manifest


def test_verify_report_bytes(capsys):
    for argv, code, digest in VERIFY_REPORTS:
        assert main(["verify", *argv]) == code
        assert _sha256(capsys.readouterr().out.encode("utf-8")) == digest, argv


@pytest.mark.parametrize("q", (2, 3))
def test_exact_experiment_files(tmp_path, q):
    files, manifest = _experiment(tmp_path, q, "exact", "both")
    assert manifest["closed_recurrence_agreement"] == "exact"
    assert len(files) == 16
    assert _listing_digest(files) == EXACT_FILES[q]


@pytest.mark.parametrize("solver", ("both", "recurrence"))
@pytest.mark.parametrize("q", (2, 3))
def test_float64_snapshot_files(tmp_path, q, solver):
    files, manifest = _experiment(tmp_path, q, "float64", solver)
    snapshots = {name: data for name, data in files.items() if name.startswith("snapshot_")}
    assert len(snapshots) == 13
    assert _listing_digest(snapshots) == FLOAT_SNAPSHOTS[(q, solver)]
    if solver == "both":
        assert manifest["closed_recurrence_agreement"] == FLOAT_AGREEMENT[q]
