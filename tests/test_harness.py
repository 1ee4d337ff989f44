"""Experiment configs, comparison reports, artifact writing, CLI."""

import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from sloshspec import harness
from sloshspec.geometry.domain import build_rectangle_domain, build_triangle_domain
from sloshspec.geometry.io import domain_to_json, read_mesh_text
from sloshspec.harness import (
    ComparisonReport,
    ConfigError,
    ExperimentConfig,
    ReportBlock,
    config_from_json,
    load_config,
    quasimode_residual_study,
    reproduce_table,
    run_experiment,
    sl_vs_sloshing,
    write_atomic,
)

from _tables import EX1_TABLE, EX2_TABLE, NOTCH_WALL_POINTS


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "sloshspec", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def write_rectangle_json(path):
    dom = build_rectangle_domain(math.pi, 1.0)
    path.write_text(json.dumps(domain_to_json(dom)))
    return str(path)


def write_notch_json(path):
    doc = {
        "surface": {
            "curve": {"kind": "segment", "start": [0.0, 0.0], "end": [1.0, 0.0]},
            "condition": "steklov",
        },
        "walls": [
            {
                "curve": {"kind": "polyline", "points": [list(p) for p in NOTCH_WALL_POINTS]},
                "condition": "neumann",
            }
        ],
        "corner_A": {"angle": math.pi / 2, "condition_adjacent_wall": "neumann"},
        "corner_B": {"angle": math.pi / 2, "condition_adjacent_wall": "neumann"},
        "surface_length": 1.0,
    }
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_field_validation():
    cases = [
        (dict(kind="warp_drive"), "kind"),
        (dict(kind="custom", domain={"x": 1}, h=-0.1), "h"),
        (dict(kind="sl_vs_sloshing", kmax=0), "kmax"),
        (dict(kind="sl_vs_sloshing", q=0), "q"),
        (dict(kind="sl_vs_sloshing", surface_length=0.0), "surface_length"),
        (dict(kind="sl_vs_sloshing", grading_factor=1.5), "grading_factor"),
        (dict(kind="sl_vs_sloshing", out_format="yaml"), "out_format"),
        (dict(kind="peters_phase", condition="robin"), "condition"),
        (dict(kind="convergence"), "domain"),
        (dict(kind="convergence", domain={"x": 1}, h_list=(0.1,)), "h_list"),
        (dict(kind="convergence", domain={"x": 1}, h_list=(0.1, 0.05)), "k_list"),
        (dict(kind="quasimode_residual"), "k_list"),
        (dict(kind="custom", domain="/nonexistent/place.json"), "domain"),
        # built in code, these used to end in a TypeError inside range or run as k = 4
        (dict(kind="sl_vs_sloshing", kmax=2.7), "kmax"),
        (dict(kind="peters_phase", samples=30.5), "samples"),
        (dict(kind="quasimode_residual", k_list=[4.5]), "k_list"),
        (dict(kind="sl_vs_sloshing", q=True), "q"),
        (dict(kind="quasimode_residual", k_list=[4, 6, 4]), "k_list"),
    ]
    for kwargs, field_name in cases:
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(**kwargs)
        assert err.value.field == field_name, kwargs


def test_a_config_built_in_code_converts_its_fields():
    assert ExperimentConfig(kind="sl_vs_sloshing", h="0.05").h == 0.05
    config = ExperimentConfig(kind="quasimode_residual", k_list=[4, 6])
    assert config.k_list == (4, 6) and isinstance(config.k_list, tuple)


def test_config_from_json_coerces_and_rejects():
    config = config_from_json(
        {
            "kind": "quasimode_residual",
            "h": "0.01",
            "q": "3",
            "k_list": [4, 5],
            "surface_length": 2,
        }
    )
    assert config.h == 0.01
    assert config.q == 3
    assert config.k_list == (4, 5)
    assert isinstance(config.surface_length, float)

    with pytest.raises(ConfigError) as err:
        config_from_json({"kind": "custom", "domain": {"x": 1}, "turbo": True})
    assert err.value.field == "turbo"
    with pytest.raises(ConfigError) as err:
        config_from_json({"h": 0.1})
    assert err.value.field == "kind"
    with pytest.raises(ConfigError) as err:
        config_from_json({"kind": "sl_vs_sloshing", "kmax": "seven"})
    assert err.value.field == "kmax"
    with pytest.raises(ConfigError) as err:
        config_from_json({"kind": "quasimode_residual", "k_list": 7})
    assert err.value.field == "k_list"
    with pytest.raises(ConfigError):
        config_from_json(["kind", "custom"])


@pytest.mark.parametrize(
    "doc, field_name",
    [
        # a string is iterable: "45" ran as k_list (4, 5)
        ({"kind": "quasimode_residual", "k_list": "45"}, "k_list"),
        ({"kind": "quasimode_residual", "k_list": {"4": 1}}, "k_list"),
        # JSON booleans are not numbers: true ran as h = 1.0
        ({"kind": "custom", "domain": "rect.json", "h": True}, "h"),
        ({"kind": "sl_vs_sloshing", "kmax": True}, "kmax"),
        ({"kind": "quasimode_residual", "k_list": [4, True]}, "k_list"),
        # an integer literal too large for a float overflowed uncaught
        ({"kind": "custom", "domain": "rect.json", "h": 10**400}, "h"),
    ],
)
def test_config_from_json_rejects_strings_as_lists_and_booleans_as_numbers(doc, field_name):
    with pytest.raises(ConfigError) as err:
        config_from_json(doc)
    assert err.value.field == field_name


def test_config_stem_prefers_label():
    assert ExperimentConfig(kind="sl_vs_sloshing").stem == "sl_vs_sloshing"
    assert ExperimentConfig(kind="sl_vs_sloshing", label="run7").stem == "run7"


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))


# ---------------------------------------------------------------------------
# report containers
# ---------------------------------------------------------------------------

def test_report_block_recomputes_deviation():
    block = ReportBlock("demo", (1, 2), (2.0, 0.0), (2.1, 1.0))
    assert block.deviation[0] == pytest.approx(0.05)
    assert block.deviation[1] is None
    with pytest.raises(ValueError, match="equal length"):
        ReportBlock("demo", (1, 2), (1.0,), (1.0, 2.0))


def test_comparison_report_block_lookup():
    block = ReportBlock("a", (1,), (1.0,), (1.0,))
    report = ComparisonReport(blocks=(block,))
    assert report.block("a") is block
    with pytest.raises(KeyError):
        report.block("b")


def test_report_csv_layout():
    one = ReportBlock("left", (1, 2), (1.0, 2.0), (1.0, 2.2))
    two = ReportBlock("right", (1, 2), (3.0, 4.0), (3.3, 4.4))
    single = ComparisonReport(blocks=(one,)).text("csv")
    lines = single.strip().split("\n")
    assert lines[0] == "k,lambda,sigma,deviation"
    assert len(lines) == 3
    merged = ComparisonReport(blocks=(one, two)).text("csv")
    header = merged.strip().split("\n")[0].split(",")
    assert header == [
        "k",
        "lambda_left", "sigma_left", "deviation_left",
        "lambda_right", "sigma_right", "deviation_right",
    ]
    mismatched = ReportBlock("right", (1, 3), (3.0, 4.0), (3.3, 4.4))
    with pytest.raises(ValueError, match="share the k column"):
        ComparisonReport(blocks=(one, mismatched)).text("csv")


def test_report_json_drops_runtime_metadata():
    block = ReportBlock("a", (1,), (2.0,), (2.1,))
    report = ComparisonReport(
        blocks=(block,), metadata={"h": 0.1, "runtime_seconds": 12.0}
    )
    doc = json.loads(report.text("json"))
    assert doc["metadata"] == {"h": 0.1}
    assert doc["blocks"][0]["rows"][0]["lambda"] == 2.0


def test_write_atomic_replaces_and_creates_dirs(tmp_path):
    target = tmp_path / "deep" / "nested" / "out.txt"
    write_atomic(str(target), "one\n")
    write_atomic(str(target), "two\n")
    assert target.read_text() == "two\n"
    assert not target.with_name("out.txt.tmp").exists()
    write_atomic(str(target), b"\x00\xff")
    assert target.read_bytes() == b"\x00\xff"


def test_write_atomic_removes_its_temp_file_when_the_rename_fails(tmp_path):
    target = tmp_path / "existing"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        write_atomic(str(target), "text\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing"]
    assert not list(target.iterdir())


# ---------------------------------------------------------------------------
# worked example tables
# ---------------------------------------------------------------------------

def test_example_1_reproduces_reference_eigenvalues(ex1_report):
    for label, col in (("neumann", 1), ("dirichlet", 3)):
        block = ex1_report.block(label)
        reference = [row[col] for row in EX1_TABLE]
        for k, computed, ref in zip(block.k, block.computed, reference):
            if ref == 0.0:
                assert abs(computed) < 1e-10
            else:
                assert abs(computed - ref) / ref < 1e-2, (label, k)
    lam5 = ex1_report.block("neumann").computed[4]
    assert abs(lam5 - EX1_TABLE[4][1]) / EX1_TABLE[4][1] < 5e-3
    lam5d = ex1_report.block("dirichlet").computed[4]
    assert abs(lam5d - EX1_TABLE[4][3]) / EX1_TABLE[4][3] < 5e-3


def test_example_1_metadata_and_deviation_trend(ex1_report):
    meta = ex1_report.metadata
    assert set(meta["errbar"]) == {"neumann", "dirichlet"}
    assert len(meta["errbar"]["neumann"]) == 10
    assert meta["runtime_seconds"] > 0
    assert "corner angles" in meta["domain"]["neumann"]
    # lattice deviations shrink sharply over k=3..5, then creep back up
    # as discretization error takes over, staying below the k=3 level
    dev = ex1_report.block("neumann").deviation
    assert dev[2] > dev[3] > dev[4]
    assert dev[4] < dev[9] < dev[2]


def test_example_2_reproduces_reference_eigenvalues(ex2_report):
    for label, col in (("omega_plus", 1), ("omega_minus", 3)):
        block = ex2_report.block(label)
        reference = [row[col] for row in EX2_TABLE]
        for k, computed, ref in zip(block.k, block.computed, reference):
            if k >= 5:
                assert abs(computed - ref) / ref < 1e-2, (label, k)


def test_example_1_meshes_its_triangle_once_per_level(monkeypatch):
    # the Dirichlet case solves on the Neumann meshes with the walls retagged
    from sloshspec import fem_steklov, harness
    from sloshspec.geometry import build_triangle_domain, mesh

    meshed, solved = [], []
    generate, solve = mesh.generate_mesh, fem_steklov.solve_steklov

    def counting(domain, h, *args):
        meshed.append(h)
        return generate(domain, h, *args)

    def keep(*args, **kwargs):
        spectrum = solve(*args, **kwargs)
        solved.append(spectrum.eigenvalues)
        return spectrum

    for module in (mesh, fem_steklov, harness):
        monkeypatch.setattr(module, "generate_mesh", counting)
    monkeypatch.setattr(fem_steklov, "solve_steklov", keep)
    reproduce_table(1, 0.04)
    assert meshed == [0.04, 0.08]
    monkeypatch.undo()
    dirichlet = build_triangle_domain(2 * math.pi / 5, math.pi / 6, 2.0, wall_conditions=("dirichlet",) * 2)
    assert len(solved) == 4
    for h, got in zip((0.04, 0.08), solved[2:]):
        assert got.tobytes() == solve(dirichlet, h, 10).eigenvalues.tobytes()


def test_reproduce_table_validates_example_number():
    with pytest.raises(ConfigError) as err:
        reproduce_table(3, 0.1)
    assert err.value.field == "example"


# ---------------------------------------------------------------------------
# ODE versus sloshing comparison
# ---------------------------------------------------------------------------

def test_sl_vs_sloshing_gap_closes_with_k():
    report = sl_vs_sloshing(2, 1.0, 0.01, 8)
    block = report.block("fem_vs_ode")
    # the FEM tank has a single zero mode, the order-4 ODE a double one,
    # so the k=2 row disagrees by construction and agreement starts at
    # k=3 with a percent-level gap that then drops fast
    assert block.deviation[0] is None
    assert block.deviation[1] == pytest.approx(1.0)
    assert 1.5e-2 < block.deviation[2] < 2.2e-2
    assert block.deviation[3] < 5e-3
    assert max(block.deviation[3:]) < 1e-2
    assert report.metadata["num_nodes"]["fem_vs_ode"] > 1000


def test_sl_vs_sloshing_rejects_degenerate_triangle():
    with pytest.raises(ConfigError, match="degenerate"):
        sl_vs_sloshing(1, 1.0, 0.01, 5)


# ---------------------------------------------------------------------------
# quasimode residual study
# ---------------------------------------------------------------------------

def test_quasimode_residual_study_rows():
    study = quasimode_residual_study(2, 1.0, 4e-3, (4, 6, 8))
    assert [row[0] for row in study.rows] == [4, 6, 8]
    for k, sigma, residual, gap in study.rows:
        assert sigma == pytest.approx(math.pi * (k - 0.5) - math.pi, abs=1e-12)
        assert residual < 2e-2
        assert gap < 5e-2
    assert study.metadata["num_nodes"] > 10000


def test_quasimode_residuals_at_gamma_minus_one_bound_the_spectral_gap():
    # q = 3 has gamma = -1; its glued trace is the imaginary part.  The
    # real part held only corner terms and read 5.15, 0.87 and 0.43 here.
    study = quasimode_residual_study(3, 1.0, 0.01, (4, 6, 9))
    assert [row[0] for row in study.rows] == [4, 6, 9]
    for k, sigma, residual, gap in study.rows:
        assert residual < 0.07
        # a unit quasimode with residual r lies within r of the spectrum
        assert sigma * residual >= gap


def test_quasimode_residual_study_validation():
    with pytest.raises(ConfigError) as err:
        quasimode_residual_study(1, 1.0, 0.01, (4,))
    assert err.value.field == "q"
    with pytest.raises(ConfigError, match="at least q"):
        quasimode_residual_study(2, 1.0, 0.01, (2,))
    # int() ran 4.5 as k = 4
    with pytest.raises(ConfigError) as err:
        quasimode_residual_study(2, 1.0, 0.01, (4.5,))
    assert err.value.field == "k_list"
    # a repeated index returned its row twice
    with pytest.raises(ConfigError, match="must not repeat") as err:
        quasimode_residual_study(2, 1.0, 0.03, (4, 4))
    assert err.value.field == "k_list"


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

def test_run_experiment_custom_artifacts(tmp_path):
    config = ExperimentConfig(
        kind="custom",
        domain=domain_to_json(build_rectangle_domain(math.pi, 1.0)),
        h=0.08,
        kmax=3,
        label="tank",
    )
    paths = run_experiment(config, str(tmp_path / "a"))
    names = sorted(os.path.basename(p) for p in paths)
    assert names == ["tank.csv", "tank_lambda.csv"]
    body = open(paths[0]).read()
    assert body.startswith("k,lambda,errbar\n")
    assert len(body.strip().split("\n")) == 4
    # reruns are byte-identical
    again = run_experiment(config, str(tmp_path / "b"))
    assert open(again[0], "rb").read() == open(paths[0], "rb").read()


def test_run_experiment_that_fails_its_second_write_leaves_the_directory_as_it_was(tmp_path, monkeypatch):
    config = ExperimentConfig(
        kind="custom",
        domain=domain_to_json(build_rectangle_domain(math.pi, 1.0)),
        h=0.08,
        kmax=3,
        label="tank",
    )
    (tmp_path / "tank.csv").write_text("stale\n")
    writes = []

    def second_fails(path, text):
        writes.append(path)
        if len(writes) == 2:
            raise OSError(errno.ENOSPC, "No space left on device", path)
        write_atomic(path, text)

    monkeypatch.setattr(harness, "write_atomic", second_fails)
    with pytest.raises(OSError, match="No space left"):
        run_experiment(config, str(tmp_path))
    assert [os.path.basename(p) for p in writes] == ["tank.csv.tmp", "tank_lambda.csv.tmp"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tank.csv"]
    assert (tmp_path / "tank.csv").read_text() == "stale\n"
    monkeypatch.undo()
    paths = run_experiment(config, str(tmp_path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tank.csv", "tank_lambda.csv"]
    assert open(paths[0]).read().startswith("k,lambda,errbar\n")


def test_run_experiment_report_artifacts(tmp_path):
    config = ExperimentConfig(kind="sl_vs_sloshing", q=2, h=0.02, kmax=5)
    paths = run_experiment(config, str(tmp_path))
    names = sorted(os.path.basename(p) for p in paths)
    assert names == [
        "sl_vs_sloshing.csv",
        "sl_vs_sloshing_fem_vs_ode_lambda.csv",
        "sl_vs_sloshing_fem_vs_ode_sigma.csv",
        "sl_vs_sloshing_meta.json",
    ]
    meta = json.load(open(paths[1]))
    assert "runtime_seconds" not in meta
    assert meta["h"] == 0.02


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_asymptotics_matches_library():
    from sloshspec.asymptotics import QuasiFrequencyModel, quasi_frequency
    from sloshspec.geometry import CornerSpec

    out = run_cli(
        "asymptotics", "--regime", "nn",
        "--alpha", repr(2 * math.pi / 5), "--beta", repr(math.pi / 6),
        "--length", "2", "--kmax", "4",
    )
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "k,sigma"
    model = QuasiFrequencyModel(CornerSpec(2 * math.pi / 5, "neumann"), CornerSpec(math.pi / 6, "neumann"), 2.0)
    for line in lines[1:]:
        k, sigma = line.split(",")
        assert float(sigma) == pytest.approx(quasi_frequency(model, int(k)), abs=1e-12)


def test_cli_sl_emits_beam_spectrum_with_predictions():
    out = run_cli("sl", "--q", "2", "--kmax", "5", "--format", "json")
    assert out.returncode == 0
    rows = json.loads(out.stdout)
    assert [row["k"] for row in rows] == [1, 2, 3, 4, 5]
    assert rows[0]["prediction"] is None
    assert rows[1]["prediction"] is None
    assert rows[2]["lambda"] == pytest.approx(4.730040744862704, abs=1e-6)
    assert rows[4]["residual"] < 1e-3


@pytest.mark.parametrize("q", [2, 3])
def test_cli_sl_dirichlet_rows_take_the_neumann_lattice_index(capsys, q):
    # Dirichlet has no zero modes: its row i is the Neumann row i + q
    from sloshspec import cli

    def rows(bc):
        assert cli.main(["sl", "--q", str(q), "--bc", bc, "--kmax", str(8 + q), "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)

    neumann, dirichlet = rows("neumann"), rows("dirichlet")
    for row, below in zip(dirichlet, neumann[q:]):
        assert row["prediction"] == below["prediction"]
        assert row["residual"] == abs(row["lambda"] - row["prediction"])
        assert row["residual"] == pytest.approx(below["residual"], rel=0, abs=1e-12)


# sha256 of `sl --q Q --bc BC --kmax 20 --format FMT` stdout, recorded with numpy 2.4
# and scipy 1.17 on x86-64 Linux while `sl` had a handler of its own, before it
# became the experiment kind `sl`; another libm or LAPACK may round differently
SL_STDOUT_DIGESTS = {
    (2, "neumann", "csv"): "9c974f4ec31143a8e49e2c45c12ce42fd54fb621e00ff9407d565a4278c94e9f",
    (2, "neumann", "json"): "d0053cc96f7abe8d37e19b72f6e6ce3bbf68a24d2ef1b76070937ee52e9188d6",
    (2, "dirichlet", "csv"): "7afecb6ef27a4a9f03ff4321f72fd9ab2a831053781bede1ecfa4b42be6719cc",
    (2, "dirichlet", "json"): "554b2818f8838aedd79bd5673b05c1db9376653fe200a4f028f4f8a05cd4d76d",
    (3, "neumann", "csv"): "b4c51905874e1c781c42ab49f76aff1cf2670a2978286b643055c69b12fa4a01",
    (3, "neumann", "json"): "d1c95b092d9ded547e85bcebeaf232a9c8c66c9a7b35a8ffbd181e7b260b7139",
    (3, "dirichlet", "csv"): "2727c8b05077101baae4629b9dcaf59c44e90e94b3e0cfb70939a6503b142207",
    (3, "dirichlet", "json"): "4484af308dae634e012b87c713007e7efb7deb77dc2a0fafcb59d132a7ce850b",
    (4, "neumann", "csv"): "f9f18cff592c52ac277355dc326cd9a35ae89aa34b999edfdd744c3e248d5d31",
    (4, "neumann", "json"): "41870f9ee8c7a69d873e212094b1c04292001e01700149d7a6bdf57ef5cfd283",
    (4, "dirichlet", "csv"): "f5566d66db6f32444c224e74a197bec7004f67620072d227393f94195c3bb3bf",
    (4, "dirichlet", "json"): "2d8acebcd60c8988fe2b970883fed741648604087c98c92465538edf5b064fce",
    (5, "neumann", "csv"): "dadfa0f74a8633ed278b19ccb2ee894e050a46e276023821a8bad938696f9069",
    (5, "neumann", "json"): "6823ba9831e8597b839a342b0906d59071c41c6804538906c08767ea196a7be3",
    (5, "dirichlet", "csv"): "a00ddbe966d90a3d33320998e283d499bba81f61bf2fbdb28b1a131f2b4acfb6",
    (5, "dirichlet", "json"): "0cccf0ff78702703c5bda124e891e5ceb3c66736cb2df69ee91e5b9c04e7b6bc",
    (6, "neumann", "csv"): "6a2cf2811c9345ab28d63b582aac0b9888a6285af4880e8bc470b84b377d2e37",
    (6, "neumann", "json"): "5299fe9216fc1466c46f06d6a4a6d4b8433403e8e35b4c405cd1e3b07a5cc63a",
    (6, "dirichlet", "csv"): "f72294b312c8b5f9abf391c78a24d1d2e61b850c1c7ef15bbe5348739c512ed2",
    (6, "dirichlet", "json"): "c8fc960d9ba4b2232df1611127f7f0188ef4022a3676817514d4f9a660a78c99",
    (7, "neumann", "csv"): "8cf4e40097350e7d98fac03f9bab00829b18c7f73f8a3d51b1593d3b1d2a63ef",
    (7, "neumann", "json"): "c5639299425a3a31538dd07b704919bb11dbd5cb1c181856b7a605b2132c4eef",
    (7, "dirichlet", "csv"): "8c9ca509377ddc13e2185e57d015edc249d90974ccc9a5f23fb3d0b62d19fed0",
    (7, "dirichlet", "json"): "f05e0a8092a953a37e29ea9c92a0b0377971bcd194a6b62d2eb68d62525cdb84",
    (8, "neumann", "csv"): "15b8f8cf714270ddea04d8d60b39df37e281038f40a82d6e5e79ace86b411a60",
    (8, "neumann", "json"): "34f566018672a110a96b8f0b6052f9ea906ec01a91cd48b14639d9d20e383d08",
    (8, "dirichlet", "csv"): "152a714b6a371332114d84575a2b7e45d645be28afb35c91795dbe4f85a7b143",
    (8, "dirichlet", "json"): "d3842cc94e8a455cc0b553a82ce789b387df2d2c5a5c0ea615ed0d44bd3d90e0",
}


@pytest.mark.parametrize("q, bc, fmt", list(SL_STDOUT_DIGESTS), ids=lambda v: str(v))
def test_cli_sl_stdout_matches_recorded_digest(capsys, q, bc, fmt):
    from sloshspec import cli

    assert cli.main(["sl", "--q", str(q), "--bc", bc, "--kmax", "20", "--format", fmt]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == SL_STDOUT_DIGESTS[q, bc, fmt]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_run_on_kind_sl_writes_the_sl_stdout(tmp_path, monkeypatch, capsys, fmt):
    from sloshspec import cli

    monkeypatch.chdir(tmp_path)
    config = {"kind": "sl", "q": 3, "condition": "dirichlet", "kmax": 12, "out_format": fmt}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert cli.main(["sl", "--q", "3", "--bc", "dirichlet", "--kmax", "12", "--format", fmt]) == 0
    printed = capsys.readouterr().out
    assert cli.main(["run", "--config", "cfg.json", "--out", "out"]) == 0
    assert capsys.readouterr().out.split() == [os.path.join("out", f"sl.{fmt}")]
    assert (tmp_path / "out" / f"sl.{fmt}").read_text() == printed


def test_cli_peters_and_sl_print_the_same_bytes_in_two_processes():
    for argv in (
        ("peters", "--alpha", "0.7", "--bc", "dirichlet", "--samples", "40", "--xmax", "20"),
        ("sl", "--q", "3", "--bc", "dirichlet", "--kmax", "12"),
    ):
        first, second = run_cli(*argv), run_cli(*argv)
        assert first.returncode == 0, first.stderr
        assert first.stdout == second.stdout


def test_cli_sl_leaves_scipy_optimize_unimported():
    # Importing scipy.optimize adds about 8 MiB RSS to a process; the
    # order-2q solver finds its roots without it.
    code = (
        "import sys\n"
        "from sloshspec.cli import main\n"
        "status = main(['sl', '--q', '3', '--kmax', '20'])\n"
        "print(status, 'scipy.optimize' in sys.modules, file=sys.stderr)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stderr.split()[-2:] == ["0", "False"]


def test_cli_peters_reports_wave_residual():
    out = run_cli("peters", "--alpha", repr(math.pi / 3), "--bc", "neumann",
                  "--samples", "48", "--xmax", "24")
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "x,re_f,im_f,planewave_re,residual"
    assert len(lines) == 49
    tail_residual = float(lines[-1].split(",")[4])
    assert tail_residual < 1e-2


def test_cli_fem_solves_and_dumps_mesh(tmp_path):
    domain_file = write_rectangle_json(tmp_path / "rect.json")
    # the dump directories do not exist yet; fem creates them as --out does
    mesh_file = tmp_path / "mesh_dir" / "mesh.txt"
    dtn_file = tmp_path / "dtn_dir" / "dtn.bin"
    out = run_cli(
        "fem", "--domain", domain_file, "--h", "0.1", "--neigs", "3",
        "--dump-mesh", str(mesh_file), "--dump-dtn", str(dtn_file),
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "k,lambda,errbar"
    lam2 = float(lines[2].split(",")[1])
    assert lam2 == pytest.approx(math.tanh(1.0), rel=1e-2)
    mesh = read_mesh_text(mesh_file)
    assert mesh.num_triangles > 100
    raw = dtn_file.read_bytes()
    n = int(np.frombuffer(raw[:8], dtype="<u8")[0])
    assert n > 10 and len(raw) == 8 + 8 * n * n


def test_cli_reproduce_emits_merged_table():
    out = run_cli("reproduce", "--example", "1", "--h", "0.04")
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    assert lines[0].split(",")[:4] == ["k", "lambda_neumann", "sigma_neumann", "deviation_neumann"]
    assert len(lines) == 11


def test_cli_residual_and_convergence(tmp_path):
    out = run_cli("residual", "--h", "0.004", "--k", "4,6")
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "k,sigma,residual,nearest_gap"
    assert len(lines) == 3

    domain_file = write_rectangle_json(tmp_path / "rect.json")
    out = run_cli("convergence", "--domain", domain_file, "--h", "0.1,0.05", "--k", "1,2")
    assert out.returncode == 0
    lines = out.stdout.strip().split("\n")
    assert lines[0] == "k,h,lambda,observed_order,richardson,errbar"
    assert len(lines) == 5

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    out = run_cli("convergence", "--domain", domain_file, "--h", "0.1,0.05", "--k", "1,2", "--format", "json")
    assert out.returncode == 0
    rows = json.loads(out.stdout, parse_constant=reject)
    assert len(rows) == 4
    # two levels give no observed order; CSV writes nan, JSON null
    assert all(row["observed_order"] is None for row in rows)


def test_cli_run_executes_config_deterministically(tmp_path):
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps(
        {"kind": "sl_vs_sloshing", "q": 2, "h": 0.02, "kmax": 5, "label": "smoke"}
    ))
    first = run_cli("run", "--config", str(config_file), "--out", str(tmp_path / "a"))
    second = run_cli("run", "--config", str(config_file), "--out", str(tmp_path / "b"))
    assert first.returncode == 0 and second.returncode == 0
    paths = first.stdout.strip().split("\n")
    assert any(p.endswith("smoke.csv") for p in paths)
    for p_a, p_b in zip(paths, second.stdout.strip().split("\n")):
        assert open(p_a, "rb").read() == open(p_b, "rb").read()


def test_cli_mesh_failure_exits_one_with_error_json(tmp_path):
    domain_file = write_notch_json(tmp_path / "notch.json")
    out = run_cli("fem", "--domain", domain_file, "--h", "0.4", "--neigs", "2")
    assert out.returncode == 1
    doc = json.loads(out.stdout)
    assert doc["error"]["type"] == "numerical"
    assert "not recovered" in doc["error"]["message"]


def test_cli_mesh_size_past_the_node_bound_exits_one_with_error_json(capsys):
    code, doc = run_main(capsys, "reproduce", "--example", "1", "--h", "1e-300")
    assert code == 1
    assert doc["error"]["type"] == "numerical"
    assert "nodes, more than" in doc["error"]["message"]


def test_cli_eigensolve_failure_exits_one_with_error_json(tmp_path, monkeypatch, capsys):
    import scipy.sparse.linalg as spla

    from sloshspec import cli

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK did not converge", None, None)

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    domain_file = write_rectangle_json(tmp_path / "rect.json")
    code = cli.main(["fem", "--domain", domain_file, "--h", "0.1", "--neigs", "3"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"]["type"] == "numerical"
    assert "ARPACK did not converge" in doc["error"]["message"]


def test_cli_config_errors_exit_two_with_field(tmp_path):
    domain_file = write_rectangle_json(tmp_path / "rect.json")
    out = run_cli("fem", "--domain", domain_file, "--h", "0.1", "--grading", "2")
    assert out.returncode == 2
    doc = json.loads(out.stdout)
    assert doc["error"]["type"] == "config"
    assert doc["error"]["field"] == "grading"

    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps({"kind": "custom", "turbo": 1}))
    out = run_cli("run", "--config", str(config_file))
    assert out.returncode == 2
    assert json.loads(out.stdout)["error"]["field"] == "turbo"


def run_main(capsys, *argv):
    """cli.main in process: (exit code, parsed last stdout line or None)."""
    from sloshspec import cli

    code = cli.main(list(argv))
    lines = capsys.readouterr().out.strip().splitlines()
    try:
        return code, json.loads(lines[-1])
    except (IndexError, ValueError):
        return code, None


@pytest.mark.parametrize(
    "config, field_name",
    [
        ({"kind": "peters_phase", "alpha": 2.0}, "alpha"),
        ({"kind": "peters_phase", "xmax": -1.0}, "xmax"),
        ({"kind": "custom", "domain": "not_json.txt"}, "domain"),
        ({"kind": "convergence", "domain": "not_json.txt", "h_list": [0.1, 0.05], "k_list": [1]}, "domain"),
        ({"kind": "custom", "domain": {"x": 1}}, "domain"),
        ({"kind": "custom", "domain": {"surface": 1, "walls": 2, "corner_A": 3, "corner_B": 4,
                                       "surface_length": 1}}, "domain"),
        ({"kind": "convergence", "domain": "rect.json", "h_list": [0.05, 0.1], "k_list": [1]}, "h_list"),
        ({"kind": "convergence", "domain": "rect.json", "h_list": [0.1, -0.05], "k_list": [1]}, "h_list"),
        ({"kind": "convergence", "domain": "rect.json", "h_list": [0.1, 0.05], "k_list": [0, 1]}, "k_list"),
        ({"kind": "convergence", "domain": "rect.json", "h_list": ["a", 0.05], "k_list": [1]}, "h_list"),
        # whole numbers only: int() would run 2.7 as q=2
        ({"kind": "sl_vs_sloshing", "q": 2.7}, "q"),
        ({"kind": "sl_vs_sloshing", "kmax": 3.9}, "kmax"),
        ({"kind": "quasimode_residual", "k_list": [4.5]}, "k_list"),
        # the far-field fit needs 12 samples in the outer half of the window
        ({"kind": "peters_phase", "samples": 20}, "samples"),
        (None, "config"),  # no config file at all
        # non-finite sizes: JSON's Infinity used to reach the mesher or the contour
        ({"kind": "peters_phase", "xmax": math.inf}, "xmax"),
        ({"kind": "sl_vs_sloshing", "surface_length": math.inf}, "surface_length"),
        ({"kind": "quasimode_residual", "surface_length": math.inf, "k_list": [4]}, "surface_length"),
        ({"kind": "reproduce_example_1", "h": math.inf}, "h"),
        ({"kind": "convergence", "domain": "rect.json", "h_list": [math.inf, 0.1], "k_list": [1]}, "h_list"),
        # pi/2 is the plane wave itself, with no remainder to fit
        ({"kind": "peters_phase", "alpha": math.pi / 2}, "alpha"),
        # past |z| = 117 the contour's rounding exceeds 1e-8
        ({"kind": "peters_phase", "xmax": 400.0}, "xmax"),
        # the label names every artifact: the first wrote beside --out, the
        # next two died with a traceback, and 5 wrote 5.csv
        ({"kind": "sl_vs_sloshing", "h": 0.05, "kmax": 3, "label": "../escaped"}, "label"),
        ({"kind": "sl_vs_sloshing", "h": 0.05, "kmax": 3, "label": "sub/../../escaped"}, "label"),
        ({"kind": "sl_vs_sloshing", "h": 0.05, "kmax": 3, "label": "nul\0byte"}, "label"),
        ({"kind": "sl_vs_sloshing", "h": 0.05, "kmax": 3, "label": 5}, "label"),
    ],
)
def test_run_rejects_invalid_configs_with_exit_two(tmp_path, monkeypatch, capsys, config, field_name):
    monkeypatch.chdir(tmp_path)
    write_rectangle_json(tmp_path / "rect.json")
    (tmp_path / "not_json.txt").write_text("not json")
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
    code, doc = run_main(capsys, "run", "--config", "cfg.json", "--out", "out")
    assert code == 2
    assert doc["error"]["type"] == "config"
    assert doc["error"]["field"] == field_name
    assert not (tmp_path / "out").exists() or not os.listdir(tmp_path / "out")
    assert set(os.listdir(tmp_path)) <= {"rect.json", "not_json.txt", "cfg.json", "out"}


def test_cli_gives_the_same_answer_after_other_calls_in_one_process(capsys):
    from sloshspec import cli

    def sl():
        return cli.main(["sl", "--q", "2", "--kmax", "4"]), capsys.readouterr().out

    first = sl()
    assert cli.main(["asymptotics", "--alpha", "1.0", "--beta", "0.7"]) == 0
    assert cli.main(["peters", "--alpha", "2.0"]) == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()
    assert sl() == first
    assert first[0] == 0 and first[1].startswith("k,lambda,prediction,residual")


def test_run_takes_its_format_from_the_config_not_a_flag(tmp_path, monkeypatch, capsys):
    # `run --format json` used to be accepted and ignored, writing CSV
    # whenever the config asked for it
    from sloshspec import cli

    monkeypatch.chdir(tmp_path)
    config = {"kind": "sl_vs_sloshing", "q": 2, "h": 0.05, "kmax": 3, "out_format": "json", "label": "t"}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", "cfg.json", "--out", "out", "--format", "json"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert run_main(capsys, "run", "--config", "cfg.json", "--out", "out")[0] == 0
    assert (tmp_path / "out" / "t.json").exists()


@pytest.mark.parametrize(
    "argv, field_name",
    [
        (["convergence", "--domain", "rect.json", "--h", "0.05,0.1"], "h"),
        (["convergence", "--domain", "rect.json", "--h", "0.1,0.1"], "h"),
        (["convergence", "--domain", "rect.json", "--h", "0.1"], "h"),
        (["convergence", "--domain", "rect.json", "--h", "0.1,0.05", "--k", "0"], "k"),
        (["residual", "--h", "0.01", "--k", "4", "--grading", "2"], "grading"),
        (["peters", "--alpha", "1.0", "--xmax", "inf"], "xmax"),
        (["reproduce", "--example", "1", "--h", "inf"], "h"),
        (["residual", "--length", "inf", "--k", "4"], "length"),
        (["convergence", "--domain", "rect.json", "--h", "inf,0.1"], "h"),
        (["sl", "--q", "2", "--length", "inf"], "length"),
        (["asymptotics", "--alpha", "1", "--beta", "1", "--length", "inf"], "length"),
        (["peters", "--alpha", repr(math.pi / 2)], "alpha"),
        (["peters", "--alpha", "1.0", "--xmax", "400"], "xmax"),
        (["asymptotics", "--alpha", "1", "--beta", "4"], "beta"),
        (["residual", "--h", "0.05", "--k", "2"], "k"),
        (["asymptotics", "--regime", "halfpi-neumann", "--alpha", "1.0", "--beta", "0.5"], "alpha"),
        (["asymptotics", "--alpha", "4", "--beta", "4"], "alpha"),
    ],
)
def test_cli_rejects_what_run_rejects_with_exit_two(tmp_path, monkeypatch, capsys, argv, field_name):
    monkeypatch.chdir(tmp_path)
    write_rectangle_json(tmp_path / "rect.json")
    code, doc = run_main(capsys, *argv)
    assert code == 2
    assert doc["error"]["type"] == "config"
    assert doc["error"]["field"] == field_name


@pytest.mark.parametrize(
    "command, usage",
    [
        ("fem", "--neigs NEIGS"),
        ("fem", "--grading GRADING"),
        ("reproduce", "--grading GRADING"),
        ("residual", "--length LENGTH"),
        ("residual", "--k K"),
        ("residual", "--grading GRADING"),
        ("convergence", "--h H"),
        ("convergence", "--k K"),
        ("convergence", "--grading GRADING"),
        ("peters", "--bc {neumann,dirichlet}"),
    ],
)
def test_help_names_each_flag_argument_after_its_flag(capsys, command, usage):
    # the flags that set a config field take the field's name as dest
    from sloshspec import cli

    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert re.search(re.escape(usage) + r"(?!\w)", capsys.readouterr().out)


@pytest.mark.parametrize("argv", [["fem", "--domain", "bad.json", "--h", "0.1"], ["run", "--config", "cfg.json", "--out", "out"]])
def test_domain_whose_corners_contradict_its_walls_exits_two(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    doc = domain_to_json(build_rectangle_domain(math.pi, 1.0))
    doc["corner_B"]["condition_adjacent_wall"] = "dirichlet"
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    (tmp_path / "cfg.json").write_text(json.dumps({"kind": "custom", "domain": "bad.json"}))
    code, err = run_main(capsys, *argv)
    assert code == 2
    assert err["error"]["type"] == "config"
    assert err["error"]["field"] == "domain"
    assert "corner B" in err["error"]["message"]


@pytest.mark.parametrize("argv", [["fem", "--domain", "bad.json", "--h", "0.1"], ["run", "--config", "cfg.json", "--out", "out"]])
def test_domain_with_a_wrong_corner_angle_exits_two(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    doc = domain_to_json(build_rectangle_domain(math.pi, 1.0))
    doc["corner_A"]["angle"] = 0.3
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    (tmp_path / "cfg.json").write_text(json.dumps({"kind": "custom", "domain": "bad.json"}))
    code, err = run_main(capsys, *argv)
    assert code == 2
    assert err["error"]["type"] == "config"
    assert err["error"]["field"] == "domain"
    assert "corner A angle 0.3" in err["error"]["message"]


@pytest.mark.parametrize(
    "argv", [["fem", "--domain", "bad.json", "--h", "0.05", "--neigs", "3"], ["run", "--config", "cfg.json", "--out", "out"]]
)
def test_domain_with_a_nan_surface_length_exits_two(tmp_path, monkeypatch, capsys, argv):
    # NaN compares false with the length tolerance, so the domain used to pass and solve
    monkeypatch.chdir(tmp_path)
    doc = domain_to_json(build_triangle_domain(1.0, 0.7, 1.2))
    doc["surface_length"] = math.nan
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    (tmp_path / "cfg.json").write_text(json.dumps({"kind": "custom", "domain": "bad.json", "h": 0.05, "kmax": 3}))
    code, err = run_main(capsys, *argv)
    assert code == 2
    assert err["error"]["type"] == "config"
    assert err["error"]["field"] == "domain"
    assert "surface_length nan" in err["error"]["message"]


_SAME_TABLE_CASES = [
    (
        "fem-custom",
        ["fem", "--domain", "rect.json", "--h", "0.1", "--neigs", "3", "--grading", "0.5"],
        {"kind": "custom", "domain": "rect.json", "h": 0.1, "kmax": 3, "grading_factor": 0.5},
        "fem",
    ),
    (
        "peters-peters_phase",
        ["peters", "--alpha", repr(math.pi / 3), "--bc", "dirichlet", "--samples", "48", "--xmax", "24"],
        {"kind": "peters_phase", "alpha": math.pi / 3, "condition": "dirichlet", "samples": 48, "xmax": 24.0},
        "peters",
    ),
    (
        "residual-quasimode_residual",
        ["residual", "--q", "2", "--h", "0.01", "--k", "6,4", "--grading", "1.0"],
        {"kind": "quasimode_residual", "q": 2, "h": 0.01, "k_list": [6, 4], "grading_factor": 1.0},
        "residual",
    ),
    (
        "convergence",
        ["convergence", "--domain", "rect.json", "--h", "0.1,0.07,0.05", "--k", "2,1"],
        {"kind": "convergence", "domain": "rect.json", "h_list": [0.1, 0.07, 0.05], "k_list": [2, 1]},
        "convergence",
    ),
    (
        "sl",
        ["sl", "--q", "3", "--bc", "dirichlet", "--length", "0.8", "--kmax", "12"],
        {"kind": "sl", "q": 3, "condition": "dirichlet", "surface_length": 0.8, "kmax": 12},
        "sl",
    ),
    (
        "reproduce-reproduce_example_1",
        ["reproduce", "--example", "1", "--h", "0.04"],
        {"kind": "reproduce_example_1", "h": 0.04},
        "example_1",
    ),
]


@pytest.mark.parametrize(
    "argv, config, stem, fmt",
    [
        pytest.param(argv, config, stem, fmt, id=name if fmt == "csv" else f"{name}-json")
        for fmt in ("csv", "json")
        for name, argv, config, stem in _SAME_TABLE_CASES
    ],
)
def test_cli_subcommand_and_run_write_the_same_table(tmp_path, monkeypatch, capsys, argv, config, stem, fmt):
    monkeypatch.chdir(tmp_path)
    write_rectangle_json(tmp_path / "rect.json")
    (tmp_path / "cfg.json").write_text(json.dumps(dict(config, label="from_run", out_format=fmt)))
    assert run_main(capsys, *argv, "--format", fmt, "--out", "cli")[0] == 0
    assert run_main(capsys, "run", "--config", "cfg.json", "--out", "run")[0] == 0
    cli_bytes = (tmp_path / "cli" / f"{stem}.{fmt}").read_bytes()
    assert cli_bytes.count(b"\n") > 2
    assert cli_bytes == (tmp_path / "run" / f"from_run.{fmt}").read_bytes()


class _Captured(Exception):
    pass


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["fem", "--domain", "rect.json", "--h", "0.1"], {"kind": "custom", "domain": "rect.json", "h": 0.1}),
        (["peters", "--alpha", "0.7"], {"kind": "peters_phase", "alpha": 0.7}),
        (["reproduce", "--example", "2"], {"kind": "reproduce_example_2"}),
        # sl's --kmax keeps its default of 8
        (["sl", "--q", "3"], {"kind": "sl", "q": 3, "kmax": 8}),
        # residual's --h, --k and --grading and convergence's --k keep defaults of their own
        (["residual"], {"kind": "quasimode_residual", "h": 0.002, "k_list": [4, 6, 8], "grading_factor": 1.0}),
        (
            ["convergence", "--domain", "rect.json", "--h", "0.1,0.05"],
            {"kind": "convergence", "domain": "rect.json", "h_list": [0.1, 0.05], "k_list": [1, 2, 3]},
        ),
    ],
    ids=["fem", "peters", "reproduce", "sl", "residual", "convergence"],
)
def test_a_subcommand_with_only_its_required_flags_builds_the_config_run_builds(tmp_path, monkeypatch, argv, doc):
    from sloshspec import cli, harness

    def capture(config):
        raise _Captured(config)

    monkeypatch.chdir(tmp_path)
    write_rectangle_json(tmp_path / "rect.json")
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "compute_experiment", capture)
    monkeypatch.setattr(harness, "compute_experiment", capture)
    built = []
    for args in (argv, ["run", "--config", "cfg.json"]):
        with pytest.raises(_Captured) as exc:
            cli.main(args)
        built.append(exc.value.args[0])
    assert built[0] == built[1]


def test_fem_and_reproduce_artifacts_leave_out_the_eigensolve_diagnostics(tmp_path, monkeypatch, capsys):
    # eigen_residual and pencil_solves stay on SteklovSpectrum: no table
    # carries them, and reruns write the same bytes
    monkeypatch.chdir(tmp_path)
    write_rectangle_json(tmp_path / "rect.json")
    runs = []
    for out in ("a", "b"):
        for argv in (
            ("fem", "--domain", "rect.json", "--h", "0.1", "--neigs", "3"),
            ("reproduce", "--example", "1", "--h", "0.04"),
        ):
            for fmt in ("csv", "json"):
                assert run_main(capsys, *argv, "--format", fmt, "--out", out)[0] == 0
        runs.append({path.name: path.read_bytes() for path in sorted((tmp_path / out).iterdir())})
    assert len(runs[0]) == 4
    assert runs[0] == runs[1]
    for body in runs[0].values():
        assert b"eigen_residual" not in body and b"pencil_solves" not in body


@pytest.mark.parametrize(
    "args",
    [("reproduce", "--example", "1", "--h", "0.02"), ("residual", "--q", "2", "--h", "0.01")],
)
def test_stdout_is_byte_identical_across_thread_counts(args):
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "sloshspec", *args], capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert outputs[0] and outputs[0] == outputs[1]

