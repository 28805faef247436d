"""Byte-identical outputs: SHA-256 pins of the command-line verify reports
(small and standard size, and the negative control), the experiment files
and the four ``treewave transforms`` tables.

The pins were computed before the vertex, radial and float64 sums moved
onto the packed level core, so any change in an exact value, in a float64
leapfrog bit or in the formatting shows up here.  The transforms pins were
computed while the closed transforms were still scalar loops over ``QSurd``
values built on ``Fraction``.  Each experiment and transforms pin is the
digest of the sorted listing "<file name> <sha256 of its bytes>"; the
manifest is hashed without ``wall_time_seconds`` (varies per run) and
``config.out`` (the temporary directory).  The q = 9 (sqrt(q) folded into
A) and float64 q = 5 transforms pins were computed while the closed
transforms ran on the packed form, before they became scalar loops over
the integer ``QSurd`` again.  The three float64 transforms pins were taken
again when the closed transforms became exact class sums whose float64
values are the exact values rounded once: only float values moved, and at
q = 5 two heights of ``dual_abel_inverse`` whose float64 sum cancelled to
0.0 now read their exact value, rounded.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from treewave.cli import main
from treewave.experiment import ExperimentConfig, run_experiment
from treewave.functions import RadialProfile
from treewave.scalars import QSurd, ScalarMode

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

# snapshot CSVs only: float64 energies are sums whose order may change.
# The "both" pins and FLOAT_AGREEMENT[3] were taken again when float64 M_n
# and C_n moved from the scatter over the vertex rows to the parity sums:
# only the float column of closed-route snapshots moved, by at most 4.4e-16
FLOAT_SNAPSHOTS = {
    (2, "both"): "a86b62177c4d67c41283c6f32878e8759bae999cc5e8e21a2593d1696f7c7579",
    (2, "recurrence"): "dca39076f653eabb4175ee9443150375d4fadf6774a1c9fec90c51891be26749",
    (3, "both"): "9254ed3914bc2dcbeadce992bc26933146fc58fbd934cb11a60edba713173a45",
    (3, "recurrence"): "4dcdf59fec956e42d69c36e2390580dd98813d78d26becb1a39fbe3456d54c36",
}
FLOAT_AGREEMENT = {2: "max abs deviation 1.332e-15", 3: "max abs deviation 1.055e-15"}

# listing digests of the four CSVs ``treewave transforms`` writes; the
# "--initial" cases read a seeded random q=3 profile of radius 5 with
# irrational values, exact or rounded to float64.  New cases go at the end:
# each test id carries the position of its case in this list
TRANSFORM_TABLES = [
    (["--q", "2"], "a5dfadf2a21c074e868a220de1e7d3d25bcf788e8949fc6077f9df4e0f03945a"),
    (["--q", "3"], "a5dfadf2a21c074e868a220de1e7d3d25bcf788e8949fc6077f9df4e0f03945a"),
    (["--q", "4"], "e4d521c82ea1afa555f75014adaf69ba67b543fe37987b90a18273460390e92d"),
    (
        ["--q", "3", "--mode", "float64"],
        "76dc8969cb9df61a51c454e495355d50e8a3603853dd664e8a38007d9185f9b8",
    ),
    (
        ["--initial", "exact"],
        "64460027149aa0ce0ddefe8e9b8f933682d2a712598f3a74ee85209bf69f9940",
    ),
    (
        ["--initial", "float64"],
        "f79d1acd5a6c913f203aff4c73c35f9d04db587a4ad79d3ec3538306ddbe878e",
    ),
    (["--q", "9"], "0b2db70b8b83debe7e7e10a2df440c179da71a7602733f949075e982ad80d168"),
    (
        ["--q", "5", "--mode", "float64"],
        "844c1cd69ce4fc580872923729e3ea081d629bed7cab1bf51cb87b8cebce4b04",
    ),
]


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


def _random_profile_json(path, mode: str, q=3, radius=5, seed=11):
    rng = random.Random(seed)

    def draw():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    profile = RadialProfile(
        q, ScalarMode.EXACT, [(n, QSurd(draw(), draw(), q)) for n in range(radius + 1)]
    )
    if mode == "float64":
        profile = profile.as_float64()
    path.write_text(json.dumps(profile.to_json()))
    return path


@pytest.mark.parametrize("argv, digest", TRANSFORM_TABLES)
def test_transform_table_files(tmp_path, capsys, argv, digest):
    if argv[0] == "--initial":
        argv = ["--initial", str(_random_profile_json(tmp_path / "profile.json", argv[1]))]
    out = tmp_path / "tables"
    assert main(["transforms", *argv, "--out", str(out)]) == 0
    capsys.readouterr()
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert sorted(files) == [
        "abel.csv",
        "abel_inverse.csv",
        "dual_abel.csv",
        "dual_abel_inverse.csv",
    ]
    assert _listing_digest(files) == digest, argv


# ``treewave equipartition --q 2 --steps 5``: the gap table of the delta
# instance, both gap routes and the decay bound
EQUIPARTITION_TABLE = "be486164124e51f00270f21416464554686ce11e99608f1a0387df91cae0cda6"


def test_equipartition_table_file(tmp_path, capsys):
    out = tmp_path / "gap"
    assert main(["equipartition", "--q", "2", "--steps", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    assert sorted(path.name for path in out.iterdir()) == ["equipartition.csv"]
    assert _sha256((out / "equipartition.csv").read_bytes()) == EQUIPARTITION_TABLE


# listing digests of the exact ``solver="recurrence"`` experiment files
# (random data, steps=6): the bytes of the exact leapfrog's own snapshots,
# energy and Huygens tables, which the "both" runs above do not write.
# Pinned while the leapfrog still stepped every vertex of the ball
EXACT_RECURRENCE_FILES = {
    2: "0ca981147b12c9e30e1f8cdb75ae8f8aaa3df5e19962a6a43b462e580bf074b8",
    3: "b21e0708dbb1ad3186c04565e8731e6e9ec1b5250f7a85bdf1b7fe2b695e1a47",
}


@pytest.mark.parametrize("q", (2, 3))
def test_exact_recurrence_experiment_files(tmp_path, q):
    files, manifest = _experiment(tmp_path, q, "exact", "recurrence")
    assert manifest["closed_recurrence_agreement"] is None
    assert len(files) == 16
    assert _listing_digest(files) == EXACT_RECURRENCE_FILES[q]


# listing digests of energy.csv and huygens.csv of the float64
# ``solver="recurrence"`` experiments (random data, steps=6).  Pinned with
# the orbit layout, whose weighted sums round once per stored row and then
# scale by the row weight; the vertex layout rounded each sum over the
# repeated entries, so a few of these floats differ from its output by some
# ulps.  A change to how the weight enters the rounding shows up here.
FLOAT_RECURRENCE_TABLES = {
    2: "33a5d7185ca01be00edde18a5b9f026836199fc5095afe8c218f52b98ae0c278",
    3: "6d93c4a85019ba8a475341c178469b28816d1c24589877fe59abf3b9532f37f6",
}


@pytest.mark.parametrize("q", (2, 3))
def test_float64_recurrence_energy_tables(tmp_path, q):
    files, _ = _experiment(tmp_path, q, "float64", "recurrence")
    tables = {name: files[name] for name in ("energy.csv", "huygens.csv")}
    assert _listing_digest(tables) == FLOAT_RECURRENCE_TABLES[q]
