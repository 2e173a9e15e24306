"""Command line behaviour: argument parsing, exit codes, artifacts."""

import csv
import shutil
import subprocess

import pytest

from stormcover.cli import build_parser, main


def short_track(name="TINY", samples=4) -> bytes:
    rows = ["name,time_hours,lat_deg,lon_deg"]
    for i in range(samples):
        rows.append(f"{name},{6.0 * i},{15.0 + 0.3 * i},{-55.0 - 0.9 * i}")
    return ("\n".join(rows) + "\n").encode()


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("scenario")
    (base / "tiny.csv").write_bytes(short_track())
    (base / "run.cfg").write_text(
        "# desk-size scenario\n"
        "step_s = 900\n"
        "models = B,A,P1\n"
        "tracks = tiny.csv\n"
    )
    return base


@pytest.fixture(scope="module")
def finished_run(scenario_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    code = main(["run", "--config", str(scenario_dir / "run.cfg"), "--out", str(out)])
    assert code == 0
    return out


class TestRunSuccess:
    def test_artifacts_written(self, finished_run):
        for name in ("rewards.csv", "pct_increase.csv", "outperform.csv", "summary.csv"):
            assert (finished_run / name).is_file(), name
        assert (finished_run / "tracks" / "TINY.csv").is_file()
        assert (finished_run / "plans" / "TINY__B.csv").is_file()
        assert (finished_run / "plans" / "TINY__P1.csv").is_file()
        # schedule files carry the reference constellation's names
        assert (finished_run / "schedules" / "TINY__A__DMC3-FM3.csv").is_file()
        assert (finished_run / "schedules" / "TINY__A__NIGERIASAT-1.csv").is_file()

    def test_rewards_cover_requested_models(self, finished_run):
        with open(finished_run / "rewards.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert {(r[0], r[1]) for r in rows} == {("TINY", m) for m in ("B", "A", "P1")}

    def test_summary_printed(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "printed"
        code = main(
            [
                "run",
                "--config", str(scenario_dir / "run.cfg"),
                "--out", str(out),
                "--models", "B",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[0].split()[0] == "model"
        assert len(lines) == 2  # header plus the single requested model
        assert lines[1].split()[0] == "B"

    def test_models_flag_overrides_config(self, scenario_dir, tmp_path):
        out = tmp_path / "b_only"
        assert main(
            ["run", "--config", str(scenario_dir / "run.cfg"), "--out", str(out),
             "--models", "B"]
        ) == 0
        assert (out / "plans" / "TINY__B.csv").is_file()
        assert not (out / "plans" / "TINY__P1.csv").exists()
        assert list((out / "schedules").iterdir()) == []

    def test_narrow_fov_never_scores_higher(self, scenario_dir, tmp_path):
        rewards = {}
        for deg in (45.0, 8.0):
            out = tmp_path / f"fov{int(deg)}"
            assert main(
                ["run", "--config", str(scenario_dir / "run.cfg"), "--out", str(out),
                 "--models", "B", "--fov-deg", str(deg)]
            ) == 0
            with open(out / "rewards.csv", newline="") as fh:
                row = list(csv.reader(fh))[1]
            rewards[deg] = float(row[2])
        assert rewards[8.0] <= rewards[45.0]

    def test_threads_flag_reaches_pool(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "threaded"
        code = main(
            ["run", "--config", str(scenario_dir / "run.cfg"), "--out", str(out),
             "--models", "B,P1", "--threads", "2"]
        )
        capsys.readouterr()
        assert code == 0
        assert (out / "rewards.csv").is_file()


class TestFailures:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1
        assert "stormcover: error:" in captured.err
        assert not (tmp_path / "o").exists()

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("fov = 45\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1
        assert "config line 1" in captured.err

    def test_bad_models_value(self, scenario_dir, tmp_path, capsys):
        code = main(
            ["run", "--config", str(scenario_dir / "run.cfg"), "--out", str(tmp_path / "o"),
             "--models", "B..Q"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "unknown model" in captured.err

    def test_grid_misfit_named_before_any_compute(self, tmp_path, capsys):
        # 2.75 days at 7200 s steps is 33 steps, which two stages cannot split
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text("step_s = 7200\ncontrol_step_s = 7200\ntracks = synthetic:2\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1
        assert "track 'synth-01', model P1:" in captured.err
        assert "num_steps 33 is not divisible by num_stages 2" in captured.err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "cfg_line,flags",
        [("fov_deg = 95\n", []), ("", ["--fov-deg", "0"])],
        ids=["config-95", "flag-0"],
    )
    def test_cone_out_of_range_named_before_any_compute(self, tmp_path, capsys, cfg_line, flags):
        # the agile model alone never built a cone, so a bad one went unseen
        (tmp_path / "tiny.csv").write_bytes(short_track())
        cfg = tmp_path / "cone.cfg"
        cfg.write_text("step_s = 900\nmodels = A\n" + cfg_line + "tracks = tiny.csv\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")] + flags)
        captured = capsys.readouterr()
        assert code == 1
        assert "fov_deg" in captured.err
        if cfg_line:
            assert "config line 3:" in captured.err
        assert not (tmp_path / "o").exists()

    def test_zero_slew_box_rejected_before_any_compute(self, tmp_path, capsys):
        # a zero box used to reach score_agility, which wrote nan for A
        (tmp_path / "tiny.csv").write_bytes(short_track())
        cfg = tmp_path / "slew.cfg"
        cfg.write_text("step_s = 900\nmodels = B,A\nmax_slew_deg = 0\ntracks = tiny.csv\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1
        assert "config line 3:" in captured.err
        assert "max_slew_deg 0" in captured.err
        assert not (tmp_path / "o").exists()

    def test_bad_track_csv_names_the_file(self, tmp_path, capsys):
        rows = short_track().decode().splitlines()
        rows[2] = "TINY,6.0,north,-55.9"
        (tmp_path / "bad.csv").write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "bad_track.cfg"
        cfg.write_text("tracks = bad.csv\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 1
        assert "bad.csv: line 3:" in captured.err
        assert not (tmp_path / "o").exists()

    def test_zero_threads(self, scenario_dir, tmp_path, capsys):
        code = main(
            ["run", "--config", str(scenario_dir / "run.cfg"), "--out", str(tmp_path / "o"),
             "--threads", "0"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "--threads" in captured.err


class TestArgparse:
    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        capsys.readouterr()
        assert exc.value.code == 2

    def test_missing_required_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        capsys.readouterr()
        assert exc.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["walk", "--config", "x", "--out", "y"])
        capsys.readouterr()
        assert exc.value.code == 2

    def test_parser_prog_name(self):
        assert build_parser().prog == "stormcover"


def test_console_script_end_to_end(scenario_dir, tmp_path):
    """The installed entry point, exercised the way a user would."""
    out = tmp_path / "cli_out"
    script = shutil.which("stormcover")
    if script is None:
        pytest.skip("console script not installed")
    proc = subprocess.run(
        [
            script, "run", "--config", str(scenario_dir / "run.cfg"),
            "--out", str(out), "--models", "B",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith("model")
    assert (out / "summary.csv").is_file()
