"""The FEM tables' error bars and artifact bytes.

Every FEM table reads its eigenvalues and its error bar from one
mesh-size ladder.  The tests below pin the error-bar rule against direct
solves, and the bytes of each table against digests recorded before the
tables moved onto that ladder.
"""

import hashlib
import json
import math
import os

import numpy as np
import pytest

from sloshspec import cli
from sloshspec.fem_steklov import solve_steklov
from sloshspec.geometry import build_triangle_domain, generate_mesh
from sloshspec.geometry.io import domain_to_json
from sloshspec.harness import ExperimentConfig, compute_experiment, run_experiment

# the generic triangle of the fem checks: corner angles 1.0 and 0.7, surface length 1.2
TRIANGLE = (1.0, 0.7, 1.2)


def two_level_errbar(domain, h, kmax):
    """2 |lambda(h) - lambda(2h)| from two direct solves, as raw bytes."""
    fine, coarse = (solve_steklov(generate_mesh(domain, size), kmax).eigenvalues for size in (h, 2.0 * h))
    return (2.0 * np.abs(fine - coarse)).tobytes()


def test_custom_errbar_column_is_the_two_level_rule():
    domain = build_triangle_domain(*TRIANGLE)
    config = ExperimentConfig(kind="custom", domain=domain_to_json(domain), h=0.03, kmax=6)
    table = compute_experiment(config)
    assert np.array([row[2] for row in table.rows]).tobytes() == two_level_errbar(domain, 0.03, 6)


def test_example_1_errbar_metadata_is_the_two_level_rule():
    report = compute_experiment(ExperimentConfig(kind="reproduce_example_1", h=0.04))
    for label in ("neumann", "dirichlet"):
        domain = build_triangle_domain(2 * math.pi / 5, math.pi / 6, 2.0, wall_conditions=(label, label))
        assert np.array(report.metadata["errbar"][label]).tobytes() == two_level_errbar(domain, 0.04, 10)


def test_sl_vs_sloshing_errbar_metadata_is_the_two_level_rule():
    report = compute_experiment(ExperimentConfig(kind="sl_vs_sloshing", q=2, h=0.02, kmax=10))
    domain = build_triangle_domain(math.pi / 4, math.pi / 4, 1.0)
    assert np.array(report.metadata["errbar"]["fem_vs_ode"]).tobytes() == two_level_errbar(domain, 0.02, 10)


def sha256(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


# sha256 of each FEM table's output, recorded with numpy 2.4 and scipy 1.17
# on x86-64 Linux.  Another libm or BLAS may round differently.
STDOUT_DIGESTS = {
    ("reproduce", "--example", "1", "--h", "0.04"): "405a08c552ee075462d0d62a73ac0d90f11f53c8bb4dbf9d82363709f2b97dee",
    ("reproduce", "--example", "1", "--h", "0.04", "--format", "json"):
        "b0c4bae03523f2fb4e51d3dc43ee2b61c05f65e7bcbdcc0273b875bf27cb1636",
    ("reproduce", "--example", "2", "--h", "0.02"): "be1d203f22a07e433fed5c9ada54466cc38198a78cbb7fbd5f1faa1ed37a2500",
    ("reproduce", "--example", "2", "--h", "0.02", "--format", "json"):
        "5446f3ad69c4458d940325627d67555a7f2500cb7763a365362c07cb91dff08d",
    ("fem", "--domain", "tri.json", "--h", "0.03", "--neigs", "6", "--dump-mesh", "mesh.txt", "--dump-dtn", "dtn.bin"):
        "c3b4afc4a5c08ccff520af7d17dd141bc3fe6caa66fa34591e9772cd6cfb57bd",
    ("fem", "--domain", "tri.json", "--h", "0.03", "--neigs", "6", "--format", "json"):
        "ef13e0fc86dbedb7aeef50faf605ca6dc52be0234ea40f86ac1c909bceeb986d",
    ("convergence", "--domain", "tri.json", "--h", "0.08,0.04,0.02"):
        "be87aecb904b5725141b9e403b11a398a60664361d38d78d75d53fcbc598bb19",
    ("convergence", "--domain", "tri.json", "--h", "0.08,0.04,0.02", "--format", "json"):
        "395b069776ee867787d8e26bfcb84f22db8cb8e0a5cfbb60adcbc1e596527315",
    # this mesh mirrors, so the study solves and factors its halves: re-recorded when
    # that split landed, every column within 7e-13 relative of the full-pencil bytes
    ("residual", "--q", "2", "--h", "0.02", "--k", "4,6"):
        "9f55e2fe5efe0cfdc396dd7962b99d732271fd7792e41b014cbe391968e7c827",
}

DUMP_DIGESTS = {
    "mesh.txt": "ec615b451fc79dd957eb89897f15ace134fa9aa67b76b149a9095a7afcc875c3",
    "dtn.bin": "0d929000f98871a58fdcb16f4ab2132c6c01f7604eceb8f166584bbb527d1664",
}

# every artifact of `run` on sl_vs_sloshing at h = 0.02; the main table
# once per out_format, the metadata and series files shared by both
SL_RUN_DIGESTS = {
    2: {
        "sl_vs_sloshing.csv": "ecdf9e42d301be4d7312464151f16357eee7c9d540c8c9382c300e8fc4ab3dc8",
        "sl_vs_sloshing.json": "2dacf3dc1f88006d50772709fd2bb8d6c8fd5363ffa082309c443599833bd349",
        "sl_vs_sloshing_meta.json": "12157c0aad1e4f29b59779ab04cf2de2c29da7b8e666671614851e869963193f",
        "sl_vs_sloshing_fem_vs_ode_lambda.csv": "8fcd2411181886b57c999918a9fdfaca14f2d6493d824ee2b29dd8d8214ce9e1",
        "sl_vs_sloshing_fem_vs_ode_sigma.csv": "97c9273b217f0ffa9f2b1d25c2d649dceaf540f66ce8adc7e74086376f8199bb",
    },
    3: {
        "sl_vs_sloshing.csv": "ca2b76ebdc2f952df199a2bde3aa7a63157c7a201ce04c6948c388d0e298571e",
        "sl_vs_sloshing.json": "c1a2bf7f8d9635045e24a4b744bd1519cb1d4ce362469e844ed7ab1469dd139f",
        "sl_vs_sloshing_meta.json": "e978918b349fd3ea76bdef742f3590a302a267b81dedc71c4058386c724dc580",
        "sl_vs_sloshing_fem_vs_ode_lambda.csv": "15236f7f403a4e8f8e6341de372ea5e7ace90217435d48204ba001ba5fa67d6a",
        "sl_vs_sloshing_fem_vs_ode_sigma.csv": "87658e68e7d10c219065e9db9dc225e1da248fb1b09efeccad1676a1745336d6",
    },
}


@pytest.mark.parametrize("argv", list(STDOUT_DIGESTS), ids=" ".join)
def test_fem_table_stdout_matches_recorded_digest(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tri.json").write_text(json.dumps(domain_to_json(build_triangle_domain(*TRIANGLE))))
    assert cli.main(list(argv)) == 0
    assert sha256(capsys.readouterr().out) == STDOUT_DIGESTS[argv]
    for name, digest in DUMP_DIGESTS.items():
        if name in argv:
            assert sha256((tmp_path / name).read_bytes()) == digest


@pytest.mark.parametrize("q", sorted(SL_RUN_DIGESTS))
def test_sl_vs_sloshing_run_artifacts_match_recorded_digests(tmp_path, q):
    written = {}
    for fmt in ("csv", "json"):
        config = ExperimentConfig(kind="sl_vs_sloshing", q=q, h=0.02, out_format=fmt)
        for path in run_experiment(config, tmp_path / fmt):
            with open(path, "rb") as fh:
                written[os.path.basename(path)] = sha256(fh.read())
    assert written == SL_RUN_DIGESTS[q]
