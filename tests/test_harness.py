"""Model matrix, scenario config, corpus evaluation, and report output."""

import csv
import io
import json
import math
import os
import pickle
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as oracles
from stormcover import harness
from stormcover.harness import (
    _SLOT_GRIDS,
    _WARM_SOURCES,
    DEFAULT_SATELLITES,
    MODEL_MATRIX,
    MODEL_ORDER,
    ComparisonReport,
    ModelResult,
    ScenarioConfig,
    _TrackWorkspace,
    _safe_name,
    _warm_candidates,
    build_report,
    default_corpus,
    emit_report,
    evaluate_track,
    load_config,
    parse_config,
    parse_models,
    run_corpus,
    write_outputs,
)
from stormcover.maneuvers import (
    GridMode,
    SlotGrid,
    SlotGridSpec,
    _pairwise_costs,
    build_cost_matrix,
    generate_slot_grid,
)
from stormcover.mcrp import ReconfigPlan, active_point_of_step, build_reward_matrix, score_plan, solve_mcrp
from stormcover.orbits import TimeGrid, eci_positions, geodetic_to_eci, propagate
from stormcover.tracks import parse_track_csv, serialize_track, synthesize_track, track_to_targets
from stormcover.visibility import slot_visibility, visibility_mask


SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# slots per satellite on each slot grid: 20 phases, and 9 planes x 15 phases
GRID_SIZES = {"phasing": 20, "unrestricted": 135}


def short_track(name="TINY", samples=4, lat0=15.0, lon0=-55.0) -> bytes:
    """A handcrafted track CSV well below the synthetic corpus floor."""
    rows = ["name,time_hours,lat_deg,lon_deg"]
    for i in range(samples):
        rows.append(f"{name},{6.0 * i},{lat0 + 0.3 * i},{lon0 - 0.9 * i}")
    return ("\n".join(rows) + "\n").encode()


def tiny_config(**overrides) -> ScenarioConfig:
    base = dict(
        satellites=DEFAULT_SATELLITES[:2],
        models=("B", "A", "P1"),
        step=900.0,
        control_step=1800.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.fixture(scope="module")
def tiny_corpus():
    """Two short tracks evaluated once, shared by the report tests."""
    tracks = (
        parse_track_csv(short_track("ONE", samples=4)),
        parse_track_csv(short_track("TWO", samples=5, lat0=-12.0, lon0=140.0)),
    )
    config = tiny_config()
    report, per_track = run_corpus(tracks, config, threads=1)
    return tracks, config, report, per_track


class TestModelMatrix:
    def test_canonical_order(self):
        assert MODEL_ORDER == ("B", "A", "P1", "P2", "P3", "P4", "U1", "U2")

    def test_stage_and_grid_shapes(self):
        assert MODEL_MATRIX["B"].kind == "baseline"
        assert MODEL_MATRIX["A"].kind == "agile"
        for name in ("P1", "P2", "P3", "P4", "U1", "U2"):
            assert MODEL_MATRIX[name].kind == "reconfig"
        assert _SLOT_GRIDS["phasing"] == (GridMode.PHASING_ONLY, SlotGridSpec(num_phases=20))
        assert _SLOT_GRIDS["unrestricted"] == (GridMode.UNRESTRICTED, SlotGridSpec(15, num_plane_axis=5))
        shapes = {
            name: (spec.num_stages, spec.grid, len(range(GRID_SIZES[spec.grid])[spec.slots]))
            for name, spec in MODEL_MATRIX.items()
        }
        assert shapes == {
            "B": (1, "phasing", 1),
            "A": (1, "phasing", 1),
            "P1": (2, "phasing", 10),
            "P2": (2, "phasing", 20),
            "P3": (4, "phasing", 10),
            "P4": (4, "phasing", 20),
            "U1": (2, "unrestricted", 135),
            "U2": (4, "unrestricted", 135),
        }

    def test_family_groups_grid_sharers(self):
        def view(name):
            spec = MODEL_MATRIX[name]
            return spec.grid, spec.slots

        assert view("B") == ("phasing", slice(0, 1))
        assert view("P1") == view("P3") == ("phasing", slice(0, None, 2))
        assert view("P2") == view("P4") == ("phasing", slice(None))
        assert view("U1") == view("U2") == ("unrestricted", slice(None))

    def test_five_reference_satellites(self):
        assert len(DEFAULT_SATELLITES) == 5
        names = [sc.name for sc in DEFAULT_SATELLITES]
        assert names[0] == "DMC3-FM3"
        assert len(set(names)) == 5
        for sc in DEFAULT_SATELLITES:
            assert 6900.0 < sc.elements.semi_major_axis < 7100.0
            assert abs(math.degrees(sc.elements.inclination) - 97.8) < 0.2


class TestParseModels:
    def test_single_and_list(self):
        assert parse_models("B") == ("B",)
        assert parse_models("P2, B ,A") == ("B", "A", "P2")

    def test_span(self):
        assert parse_models("P1..P4") == ("P1", "P2", "P3", "P4")
        assert parse_models("B,A,P1..U2") == MODEL_ORDER
        assert parse_models("U1..U1") == ("U1",)

    def test_duplicates_collapse(self):
        assert parse_models("A,A,B,P1..P3,P2") == ("B", "A", "P1", "P2", "P3")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown model 'Q'"):
            parse_models("B,Q")
        with pytest.raises(ValueError, match="unknown model"):
            parse_models("P1..Z9")

    def test_backwards_span(self):
        with pytest.raises(ValueError, match="against canonical order"):
            parse_models("U2..P1")

    def test_empty_pieces(self):
        with pytest.raises(ValueError, match="empty model name"):
            parse_models("B,,A")
        with pytest.raises(ValueError, match="empty model name"):
            parse_models("")


class TestScenarioConfig:
    def test_defaults_match_reference_setup(self):
        config = ScenarioConfig()
        assert config.satellites == DEFAULT_SATELLITES
        assert config.models == MODEL_ORDER
        assert config.fov_half_angle == pytest.approx(math.radians(45.0))
        assert config.step == 300.0
        assert config.control_step == 1800.0
        assert config.budget_km_s == 2.0
        assert config.max_revs == 4

    def test_property_bundles(self):
        config = ScenarioConfig()
        assert config.fov.half_angle == config.fov_half_angle
        ag = config.agility
        assert ag.max_rate_x == ag.max_rate_y == ag.max_rate_z == config.max_rate
        assert ag.max_angle == config.max_slew
        assert ag.control_step == config.control_step

    def test_rejects_duplicate_satellites(self):
        with pytest.raises(ValueError, match="unique"):
            ScenarioConfig(satellites=(DEFAULT_SATELLITES[0], DEFAULT_SATELLITES[0]))

    def test_rejects_empty_or_unknown_models(self):
        with pytest.raises(ValueError, match="at least one model"):
            ScenarioConfig(models=())
        with pytest.raises(ValueError, match="unknown model"):
            ScenarioConfig(models=("B", "X1"))

    def test_rejects_bad_scalars(self):
        with pytest.raises(ValueError, match="max_revs"):
            ScenarioConfig(max_revs=0)
        with pytest.raises(ValueError, match="node_limit"):
            ScenarioConfig(node_limit=-1)
        with pytest.raises(ValueError, match="budget"):
            ScenarioConfig(budget_km_s=-0.5)


class TestDefaultCorpus:
    def test_twenty_track_ramp(self):
        tracks = default_corpus(20)
        assert len(tracks) == 20
        days = [t.duration_seconds / 86400.0 for t in tracks]
        assert days[0] == 2.75
        assert days[-1] == 15.5
        for i, d in enumerate(days, start=1):
            expect = round((2.75 + (i - 1) * 12.75 / 19.0) * 4.0) / 4.0
            assert d == expect
            assert (d * 4.0) == int(d * 4.0)
        assert days == sorted(days)

    def test_basins_alternate(self):
        tracks = default_corpus(6)
        lons = [math.degrees(t.samples[0].lon_rad) for t in tracks]
        for i, lon in enumerate(lons, start=1):
            if i % 2 == 1:
                assert lon < 0.0, f"track {i} should start west"
            else:
                assert lon > 0.0, f"track {i} should start east"

    def test_single_track_corpus(self):
        (track,) = default_corpus(1)
        assert track.duration_seconds == pytest.approx(2.75 * 86400.0)

    def test_deterministic(self):
        a = default_corpus(5)
        b = default_corpus(5)
        assert [serialize_track(t) for t in a] == [serialize_track(t) for t in b]

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            default_corpus(0)


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        config, tracks = parse_config("")
        assert config == ScenarioConfig()
        assert len(tracks) == 20
        assert tracks[0].duration_seconds == pytest.approx(2.75 * 86400.0)

    def test_full_file(self):
        text = """
        # reference scenario, trimmed
        fov_deg = 30
        step_s = 600       # coarse
        control_step_s = 1800
        max_rate_deg_s = 2.5
        max_slew_deg = 20
        budget_km_s = 1.5
        max_revs = 6
        node_limit = 5000
        models = B,P1..P2
        tracks = synthetic:3
        """
        config, tracks = parse_config(text)
        assert config.fov_half_angle == pytest.approx(math.radians(30.0))
        assert config.step == 600.0
        assert config.max_rate == pytest.approx(math.radians(2.5))
        assert config.max_slew == pytest.approx(math.radians(20.0))
        assert config.budget_km_s == 1.5
        assert config.max_revs == 6
        assert config.node_limit == 5000
        assert config.models == ("B", "P1", "P2")
        assert len(tracks) == 3

    def test_unknown_key_cites_line(self):
        with pytest.raises(ValueError, match="line 2: unknown key 'fov'"):
            parse_config("step_s = 300\nfov = 45\n")

    def test_duplicate_key_cites_line(self):
        with pytest.raises(ValueError, match="line 3: duplicate key"):
            parse_config("step_s = 300\n\nstep_s = 600\n")

    def test_missing_equals_cites_line(self):
        with pytest.raises(ValueError, match="line 1: expected"):
            parse_config("step_s 300\n")

    def test_empty_value_cites_line(self):
        with pytest.raises(ValueError, match="line 1: empty value"):
            parse_config("models =\n")

    def test_zero_slew_box_cites_line_and_key(self):
        with pytest.raises(ValueError, match=r"config line 2: .*max_slew_deg 0, .*max_angle must lie in \(0"):
            parse_config("step_s = 300\nmax_slew_deg = 0\n")

    def test_bad_number_cites_line_and_key(self):
        with pytest.raises(ValueError, match="line 2: bad max_revs"):
            parse_config("step_s = 300\nmax_revs = four\n")

    def test_bad_model_list_cites_line(self):
        with pytest.raises(ValueError, match="line 1: bad models.*unknown"):
            parse_config("models = B,WAT\n")

    @pytest.mark.parametrize("value", ["-5", "0", "inf", "nan"])
    def test_step_not_positive_and_finite_cites_line(self, value):
        with pytest.raises(ValueError, match="config line 2: step_s must be positive and finite"):
            parse_config(f"fov_deg = 30\nstep_s = {value}\n")

    def test_step_not_dividing_the_control_step_cites_line(self):
        with pytest.raises(ValueError, match="config line 1: control_step_s 1800 is not a positive multiple of step_s 7"):
            parse_config("step_s = 7\n")

    def test_mismatched_pair_cites_the_step_line(self):
        with pytest.raises(ValueError, match="config line 2: control_step_s 1000 is not a positive multiple of step_s 300"):
            parse_config("control_step_s = 1000\nstep_s = 300\n")
        with pytest.raises(ValueError, match="config line 1: control_step_s 150 is not a positive multiple"):
            parse_config("step_s = 300\ncontrol_step_s = 150\n")

    def test_step_and_control_step_read_as_a_pair(self):
        config, _ = parse_config("step_s = 600\ncontrol_step_s = 1200\ntracks = synthetic:1\n")
        assert (config.step, config.control_step) == (600.0, 1200.0)

    def test_track_not_a_multiple_of_the_step_cites_line_and_track(self):
        # 2.75 days is 237,600 s, not a whole number of 7 s steps
        with pytest.raises(ValueError, match=r"config line 2: step_s 7, track 'synth-01': duration 237600.0 s is not a positive multiple of step 7.0 s"):
            parse_config("control_step_s = 700\nstep_s = 7\ntracks = synthetic:2\n")

    @pytest.mark.parametrize("value", ["nan", "-0.5"])
    def test_bad_slew_rate_cites_line_and_key(self, value):
        # nan < 0 is False, so a nan rate once reached the planner, which
        # wrote nan angles for A and scored it 0
        with pytest.raises(ValueError, match=r"config line 2: max_rate_deg_s .*slew rates must be non-negative"):
            parse_config(f"step_s = 300\nmax_rate_deg_s = {value}\n")

    @pytest.mark.parametrize("value", ["nan", "-0.5"])
    def test_bad_budget_cites_line(self, value):
        # nan < 0 is False, so a nan budget once priced every transfer
        # infeasible and scored P1 at exactly B's reward
        with pytest.raises(ValueError, match="config line 1: budget_km_s must be non-negative"):
            parse_config(f"budget_km_s = {value}\n")

    def test_budget_beyond_a_plane_reversal_cites_line_and_satellite(self):
        # the unrestricted grid cannot be sized, so U1 fails before any compute
        with pytest.raises(
            ValueError,
            match="config line 2: budget_km_s 20, satellite 'DMC3-FM3': budget 20.0 km/s exceeds a plane reversal",
        ):
            parse_config("models = B,U1\nbudget_km_s = 20\n")
        with pytest.raises(ValueError, match="config line 1: budget_km_s 20, satellite 'DMC3-FM3'"):
            parse_config("budget_km_s = 20\n")

    def test_budget_beyond_a_plane_reversal_without_u1_or_u2(self):
        config, _ = parse_config("budget_km_s = 20\nmodels = B,P1..P4\ntracks = synthetic:1\n")
        assert config.budget_km_s == 20.0
        assert config.models == ("B", "P1", "P2", "P3", "P4")

    def test_bad_synthetic_count(self):
        with pytest.raises(ValueError, match="bad synthetic track count"):
            parse_config("tracks = synthetic:many\n")

    @pytest.mark.parametrize(
        "value, reason",
        [
            ("synthetic:0", "at least one track"),
            ("synthetic:-3", "at least one track"),
            ("synthetic:x", "bad synthetic track count"),
            (",a.csv", "empty track path"),
            ("a.csv,", "empty track path"),
        ],
    )
    def test_bad_tracks_cite_line(self, value, reason):
        with pytest.raises(ValueError, match=f"^config line 2: bad tracks: .*{reason}"):
            parse_config(f"step_s = 600\ntracks = {value}\n", base_dir=".")

    def test_track_files_resolved_against_base_dir(self, tmp_path):
        (tmp_path / "a.csv").write_bytes(short_track("ALPHA"))
        (tmp_path / "b.csv").write_bytes(short_track("BRAVO", samples=5))
        config, tracks = parse_config("tracks = a.csv, b.csv\n", base_dir=str(tmp_path))
        assert [t.name for t in tracks] == ["ALPHA", "BRAVO"]

    def test_empty_track_path_rejected(self):
        # every piece is checked before any file is read
        with pytest.raises(ValueError, match="empty track path"):
            parse_config("tracks = ,a.csv\n", base_dir=".")

    def test_load_config_resolves_beside_file(self, tmp_path):
        (tmp_path / "storm.csv").write_bytes(short_track("STORM"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("step_s = 900\ntracks = storm.csv\n")
        config, tracks = load_config(str(cfg))
        assert config.step == 900.0
        assert [t.name for t in tracks] == ["STORM"]


def dense_fine_tensor(track, config, slots):
    """The all-points visibility path: a (T, P, 3) table and a bool tensor
    on the four-stage partition, shaped (4, K, J, T / 4, P).

    Each stage block propagates every slot in its own batch of step times
    and tests it against every target point, as the packed-tensor path
    did before visibility collapsed to the active target.
    """
    grid = TimeGrid(track.duration_seconds, config.step, config.control_step, 4)
    targets = track_to_targets(track, grid)
    table = np.array(
        [
            [geodetic_to_eci(point, t * grid.step) for point in targets.points]
            for t in range(grid.num_steps)
        ]
    )
    j_max = max(len(slot_list) for slot_list in slots)
    t_stage = grid.steps_per_stage
    full = np.zeros((4, len(slots), j_max, t_stage, targets.num_points), dtype=bool)
    for s in range(4):
        lo, hi = grid.stage_step_range(s)
        times = np.arange(lo, hi, dtype=float) * grid.step
        for k, slot_list in enumerate(slots):
            for j, coe in enumerate(slot_list):
                pos = eci_positions(coe, times)
                full[s, k, j] = visibility_mask(pos, table[lo:hi], config.fov.half_angle)
    return full


class TestMergeTensorStages:
    """The stage-merge oracle that the dense reference path relies on."""

    def test_known_rearrangement(self):
        rng = np.random.default_rng(3)
        full = rng.random((4, 2, 3, 5, 2)) < 0.3
        got = oracles.merge_stages(full, 2)
        assert got.shape == (2, 2, 3, 10, 2)
        # merged stage m stacks original stages 2m and 2m+1 along time
        for m in range(2):
            for a in range(2):
                block = got[m, :, :, 5 * a : 5 * (a + 1)]
                assert np.array_equal(block, full[2 * m + a])

    def test_merge_to_single_stage_concatenates_time(self):
        rng = np.random.default_rng(4)
        full = rng.random((4, 1, 2, 3, 2)) < 0.5
        got = oracles.merge_stages(full, 4)
        assert got.shape == (1, 1, 2, 12, 2)
        for s in range(4):
            assert np.array_equal(got[0, :, :, 3 * s : 3 * (s + 1)], full[s])

    def test_factor_one_is_identity(self):
        full = np.random.default_rng(5).random((2, 1, 2, 4, 3)) < 0.5
        assert np.array_equal(oracles.merge_stages(full, 1), full)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2 ** 32 - 1),
        st.sampled_from([1, 2, 3, 6]),
        st.integers(1, 3),
        st.integers(1, 4),
        st.integers(1, 5),
        st.integers(1, 3),
    )
    def test_bit_population_preserved(self, seed, factor, k, j, t_stage, p):
        # merging may not invent or drop a single observation bit
        rng = np.random.default_rng(seed)
        full = rng.random((6, k, j, t_stage, p)) < 0.4
        merged = oracles.merge_stages(full, factor)
        assert merged.sum() == full.sum()
        per_slot = full.sum(axis=(0, 3, 4))
        assert np.array_equal(merged.sum(axis=(0, 3, 4)), per_slot)


class TestActiveTargetTensor:
    """The one-target tensors against the dense path they replaced."""

    @pytest.mark.parametrize("fov_deg", [45.0, 30.0])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_matches_dense_path(self, index, fov_deg):
        track = default_corpus(20)[index]
        config = ScenarioConfig(fov_half_angle=math.radians(fov_deg))
        models = parse_models("B,P1..U2")
        results = evaluate_track(track, config, models)
        ws = _TrackWorkspace(track, config)
        fine = {}
        for name in models:
            spec = MODEL_MATRIX[name]
            key = (spec.grid, repr(spec.slots))
            if key not in fine:
                slots = [slot_list[spec.slots] for slot_list in config.slot_grid(spec.grid).slots]
                fine[key] = dense_fine_tensor(track, config, slots)
            full = oracles.merge_stages(fine[key], 4 // spec.num_stages)
            n_stages, _, _, t_stage, n_points = full.shape
            n_steps = n_stages * t_stage
            rewards = build_reward_matrix(n_steps, n_points, n_stages)

            tensor = ws.tensor_for(spec)
            assert tensor.shape == full.shape[:4] + (1,)
            active = [active_point_of_step(t, n_steps, n_points) for t in range(n_steps)]
            active = np.array(active).reshape(n_stages, 1, 1, t_stage, 1)
            cells = np.take_along_axis(full, active, axis=4)
            assert tensor.dtype == bool
            assert np.array_equal(tensor, cells), name

            got = results[name].plan
            if spec.kind == "baseline":
                assert score_plan(got, full, rewards) == got.objective
                continue
            costs = ws.costs_for(spec)
            warm = _warm_candidates(spec, results, len(config.slot_grid(spec.grid).slots[0]))
            ref = solve_mcrp(full, rewards, costs, node_limit=config.node_limit, warm_starts=warm)
            assert ref.paths == got.paths, name
            assert ref.objective == got.objective, name
            assert ref.proven_optimal == got.proven_optimal, name


def _bits(a: np.ndarray) -> tuple:
    return a.dtype.str, a.shape, a.tobytes()


def _with_paths(paths_by_model) -> dict:
    """Results holding only the given slot paths, as warm sources."""
    out = {}
    for name, paths in paths_by_model.items():
        n_stages = len(paths[0]) - 1
        plan = ReconfigPlan(paths=paths, per_stage_cost=np.zeros((len(paths), n_stages)), objective=0.0)
        out[name] = ModelResult(name, 0.0, True, 0.0, plan=plan)
    return out


class TestTwoSlotGrids:
    """The two slot grids against the four slot families they replaced
    (tests/_oracles.py), bit for bit: tensors, stage costs, warm seeds."""

    RECONFIG = ("P1", "P2", "P3", "P4", "U1", "U2")

    @pytest.mark.parametrize("fov_deg", [45.0, 30.0])
    @pytest.mark.parametrize("index", [0, 10, 19])
    def test_matches_four_family_path(self, index, fov_deg):
        track = default_corpus(20)[index]
        config = ScenarioConfig(fov_half_angle=math.radians(fov_deg))
        initials = [sc.elements for sc in config.satellites]
        results = evaluate_track(track, config, ("B",) + self.RECONFIG)
        ws = _TrackWorkspace(track, config)
        slots, visible, priced = {}, {}, {}
        for name in ("B",) + self.RECONFIG:
            spec = MODEL_MATRIX[name]
            family = oracles.FAMILY_SHAPES[name][1:]
            if family not in slots:
                slots[family] = oracles.hashed_grid(
                    SlotGrid,
                    oracles.family_slots(
                        initials, config.budget_km_s, family, generate_slot_grid, SlotGridSpec, GridMode
                    ),
                    initials=initials,
                    max_revs=config.max_revs,
                    budget=config.budget_km_s,
                )
                visible[family] = slot_visibility(slots[family], ws.table, ws.grid_for(1), config.fov)
            n_sats, n_slots, _ = visible[family].shape
            t_stage = ws.grid_for(spec.num_stages).steps_per_stage
            want = visible[family].reshape(n_sats, n_slots, spec.num_stages, t_stage, 1).transpose(2, 0, 1, 3, 4)
            assert _bits(ws.tensor_for(spec)) == _bits(want), name
            if spec.kind == "baseline":
                continue
            want_costs = build_cost_matrix(
                slots[family], ws.grid_for(spec.num_stages), priced=priced.setdefault(family, {})
            )
            got_costs = ws.costs_for(spec)
            assert got_costs.num_stages == want_costs.num_stages == spec.num_stages
            for s, (got, want) in enumerate(zip(got_costs.stages, want_costs.stages)):
                assert _bits(got) == _bits(want), (name, s)
            assert np.array_equal(got_costs.budget, want_costs.budget)

            grid_size = len(config.slot_grid(spec.grid).slots[0])
            paths = {source: results[source].plan.paths for source in _WARM_SOURCES.get(name, ())}
            want_seeds = oracles.family_warm_seeds(name, paths, n_sats)
            assert _warm_candidates(spec, results, grid_size) == want_seeds, name

    def test_warm_seeds_match_on_every_source_slot(self):
        rng = np.random.default_rng(16)
        n_sats = 5
        for _ in range(25):
            paths = {}
            for name in self.RECONFIG:
                spec = MODEL_MATRIX[name]
                n_slots = len(range(GRID_SIZES[spec.grid])[spec.slots])
                if rng.random() < 0.8:
                    stages = rng.integers(0, n_slots, size=(n_sats, spec.num_stages))
                    paths[name] = tuple((0,) + tuple(int(j) for j in row) for row in stages)
            results = _with_paths(paths)
            for name in MODEL_ORDER:
                spec = MODEL_MATRIX[name]
                got = _warm_candidates(spec, results, GRID_SIZES[spec.grid])
                assert got == oracles.family_warm_seeds(name, paths, n_sats), name


class TestSlotGridCalls:
    """A run builds each slot grid's slots once, and each track its
    visibility once per grid."""

    @staticmethod
    def _count(monkeypatch, name):
        calls = []
        real = getattr(harness, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
        return calls

    @pytest.mark.parametrize("models, grids", [(MODEL_ORDER, 2), (("B", "A"), 1)])
    def test_one_build_per_grid(self, monkeypatch, models, grids):
        visibility = self._count(monkeypatch, "slot_visibility")
        slot_grids = self._count(monkeypatch, "generate_slot_grid")
        config = ScenarioConfig(satellites=DEFAULT_SATELLITES[:2], models=models)
        for track in default_corpus(20)[:2]:
            evaluate_track(track, config)
        assert len(visibility) == grids * 2
        assert len(slot_grids) == grids * 2

    def test_one_build_per_grid_per_worker(self, monkeypatch):
        class PicklingPool:
            """One worker that, like a process pool, gets pickled copies
            of its start arguments and of each task."""

            def __init__(self, max_workers, initializer, initargs):
                initializer(*pickle.loads(pickle.dumps(initargs)))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return [fn(pickle.loads(pickle.dumps(job))) for job in jobs]

        slot_grids = self._count(monkeypatch, "generate_slot_grid")
        monkeypatch.setattr(harness, "ProcessPoolExecutor", PicklingPool)
        monkeypatch.setattr(harness, "_worker_config", None)
        config = ScenarioConfig(satellites=DEFAULT_SATELLITES[:2], models=("B", "P1"))
        run_corpus(default_corpus(20)[:3], config, threads=2)
        assert len(slot_grids) == 2


class TestSlotGridsOnCorpus:
    """Each slot grid, laid out by construction and built once per config,
    against the hashing path it replaced (tests/_oracles.py), bit for bit:
    every stage cost array and every slot_visibility array of the corpus,
    on both grids."""

    @pytest.mark.parametrize("fov_deg", [30.0, 45.0])
    def test_corpus_matches_hashing_path(self, fov_deg):
        config = ScenarioConfig(fov_half_angle=math.radians(fov_deg))
        initials = [sc.elements for sc in config.satellites]
        hashed = {
            name: oracles.hashed_grid(
                SlotGrid,
                config.slot_grid(name).slots,
                initials=initials,
                max_revs=config.max_revs,
                budget=config.budget_km_s,
            )
            for name in _SLOT_GRIDS
        }
        full = [spec for spec in MODEL_MATRIX.values() if spec.kind == "reconfig" and spec.slots == slice(None)]
        assert {spec.grid for spec in full} == set(_SLOT_GRIDS)
        for track in default_corpus(20):
            ws = _TrackWorkspace(track, config)
            for name, want in hashed.items():
                got = slot_visibility(config.slot_grid(name), ws.table, ws.grid_for(1), config.fov)
                assert _bits(got) == _bits(slot_visibility(want, ws.table, ws.grid_for(1), config.fov))
            for spec in full:
                grid = ws.grid_for(spec.num_stages)
                for s, stage in enumerate(ws.costs_for(spec).stages):
                    epoch = grid.stage_start_time(s)
                    for k, slot_list in enumerate(hashed[spec.grid].slots):
                        tos = oracles.hashed_stage_angles(slot_list, epoch, propagate)
                        froms = oracles.hashed_stage_angles([initials[k]], 0.0, propagate) if s == 0 else tos
                        want = _pairwise_costs(froms, tos, config.max_revs)[0]
                        assert _bits(stage[k]) == _bits(want), (track.name, spec.name, s, k)


class TestAgilePathImports:
    def test_scoring_b_and_a_imports_no_module(self):
        # numpy.ma, which np.unique imports at its first call, cost every
        # fresh process that ran model A about 10 ms
        script = (
            "import json, sys\n"
            "from stormcover.harness import ScenarioConfig, default_corpus, evaluate_track\n"
            "track, config = default_corpus(20)[0], ScenarioConfig(models=('B', 'A'))\n"
            "before = set(sys.modules)\n"
            "evaluate_track(track, config)\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n"
            "print(json.dumps(['numpy.ma' in before, 'numpy.ma' in sys.modules]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
        imported, (ma_before, ma_after) = map(json.loads, out.stdout.splitlines())
        assert imported == []
        # numpy releases that load numpy.ma at import time leave nothing to check
        assert ma_after == ma_before


class TestSolverMetamorphic:
    """Relations every proven optimum obeys, on synth-01 with P1 and U1.

    Both run through the plane-screened visibility and the stage cost
    arrays shared within a slot family."""

    MODELS = ("P1", "U1")

    def test_permuting_satellites_keeps_proven_optima(self):
        track = default_corpus(20)[0]
        base = evaluate_track(track, ScenarioConfig(models=self.MODELS))
        order = (3, 0, 4, 2, 1)
        permuted = ScenarioConfig(satellites=tuple(DEFAULT_SATELLITES[k] for k in order), models=self.MODELS)
        moved = evaluate_track(track, permuted)
        for name in self.MODELS:
            assert base[name].proven and moved[name].proven, name
            assert moved[name].reward == base[name].reward, name

    def test_raising_the_budget_never_lowers_a_proven_optimum(self):
        config = ScenarioConfig(models=self.MODELS)
        ws = _TrackWorkspace(default_corpus(20)[0], config)
        for name in self.MODELS:
            spec = MODEL_MATRIX[name]
            tensor, rewards, costs = ws.tensor_for(spec), ws.rewards_for(spec.num_stages), ws.costs_for(spec)
            optima = []
            for budget in (0.0, 0.1, 0.5, 1.0, 2.0, 4.0):
                raised = replace(costs, budget=np.full_like(costs.budget, budget))
                plan = solve_mcrp(tensor, rewards, raised, node_limit=config.node_limit)
                assert plan.proven_optimal, (name, budget)
                optima.append(plan.objective)
            assert optima == sorted(optima), (name, optima)
            assert optima[-1] > optima[0], name

    def test_adding_a_slot_never_lowers_a_proven_optimum(self):
        config = ScenarioConfig(models=self.MODELS)
        ws = _TrackWorkspace(default_corpus(20)[0], config)
        rng = np.random.default_rng(5)
        for name in self.MODELS:
            spec = MODEL_MATRIX[name]
            tensor, rewards, costs = ws.tensor_for(spec), ws.rewards_for(spec.num_stages), ws.costs_for(spec)
            # slot 0 starts the all-stay plan; the others join one at a time
            order = np.concatenate([[0], 1 + rng.permutation(tensor.shape[2] - 1)])
            optima = []
            for count in range(1, order.size + 1):
                kept = order[:count]

                def restrict(stages):
                    return tuple(c[:, :, kept] if s == 0 else c[:, kept][:, :, kept] for s, c in enumerate(stages))

                fewer = replace(costs, stages=restrict(costs.stages))
                plan = solve_mcrp(tensor[:, :, kept], rewards, fewer, node_limit=config.node_limit)
                assert plan.proven_optimal, (name, count)
                optima.append(plan.objective)
            assert optima == sorted(optima), (name, optima)
            assert optima[-1] > optima[0], name


class TestWarmMapping:
    def test_phase_double_keeps_plane_and_doubles_phase(self):
        # P1's slot j is the phasing grid's slot 2j, which is P2's slot 2j
        results = _with_paths({"P1": ((0, 0, 7), (0, 9, 3))})
        assert _warm_candidates(MODEL_MATRIX["P2"], results, 20) == [(0, 14, 18, 6)]
        results = _with_paths({"P3": ((0, 1, 2, 3, 9),)})
        assert _warm_candidates(MODEL_MATRIX["P4"], results, 20) == [(2, 4, 6, 18)]

    def test_stage_split_repeats_per_satellite(self):
        results = _with_paths({"P1": ((0, 1, 2), (0, 3, 4))})  # two satellites, two stages each
        assert _warm_candidates(MODEL_MATRIX["P3"], results, 20) == [(1, 1, 2, 2, 3, 3, 4, 4)]
        results = _with_paths({"U1": ((0, 134, 17),)})
        assert _warm_candidates(MODEL_MATRIX["U2"], results, 135) == [(134, 134, 17, 17)]

    def test_every_source_lies_on_its_targets_slots(self):
        # the one mapping holds only if each source reads a subset of its
        # target's slots on the same grid, and splits into its stages
        for name, sources in _WARM_SOURCES.items():
            target = MODEL_MATRIX[name]
            on_target = set(range(GRID_SIZES[target.grid])[target.slots])
            for source_name in sources:
                source = MODEL_MATRIX[source_name]
                assert source.grid == target.grid, (name, source_name)
                assert set(range(GRID_SIZES[source.grid])[source.slots]) <= on_target, (name, source_name)
                assert target.num_stages % source.num_stages == 0, (name, source_name)
                assert MODEL_ORDER.index(source_name) < MODEL_ORDER.index(name)


class TestEvaluateTrack:
    def test_tiny_scenario_results(self, tiny_corpus):
        tracks, config, report, per_track = tiny_corpus
        for results in per_track:
            assert set(results) == {"B", "A", "P1"}
            assert results["B"].proven and results["A"].proven
            assert results["B"].plan is not None
            assert results["P1"].plan is not None
            assert results["A"].schedules is not None
            assert len(results["A"].schedules) == 2
            for r in results.values():
                assert r.elapsed_s >= 0.0
                assert r.reward >= 0.0

    def test_reconfiguration_never_below_baseline(self, tiny_corpus):
        _, _, _, per_track = tiny_corpus
        for results in per_track:
            assert results["P1"].reward >= results["B"].reward

    def test_baseline_plan_is_all_stay(self, tiny_corpus):
        _, _, _, per_track = tiny_corpus
        for results in per_track:
            for path in results["B"].plan.paths:
                assert path == (0, 0)

    def test_model_subset_argument(self, tiny_corpus):
        tracks, config, _, per_track = tiny_corpus
        results = evaluate_track(tracks[0], config, models=["B"])
        assert set(results) == {"B"}
        assert results["B"].reward == per_track[0]["B"].reward

    def test_unknown_model_rejected(self, tiny_corpus):
        tracks, config, _, _ = tiny_corpus
        with pytest.raises(ValueError, match="unknown model"):
            evaluate_track(tracks[0], config, models=["B", "NOPE"])

    def test_empty_selection(self, tiny_corpus):
        tracks, config, _, _ = tiny_corpus
        assert evaluate_track(tracks[0], config, models=[]) == {}

    def test_former_node_limit_solve_is_proven(self):
        # P4 on this 6-day track (the benchmark's corpus seed 2001) needs
        # more than 10^6 nodes without the level-entry dominance rule
        track = synthesize_track(40026, 6.0, "east-hemisphere")
        config = ScenarioConfig(fov_half_angle=30.0 * math.pi / 180.0, node_limit=20_000)
        results = evaluate_track(track, config, models=["B", "P1", "P2", "P3", "P4"])
        assert results["P4"].proven and results["P4"].reward == 22.0


class TestRunCorpus:
    def test_report_mirrors_results(self, tiny_corpus):
        tracks, config, report, per_track = tiny_corpus
        assert report.track_names == ("ONE", "TWO")
        assert report.model_names == ("B", "A", "P1")
        for r, results in enumerate(per_track):
            for c, name in enumerate(report.model_names):
                assert report.rewards[r, c] == results[name].reward
                assert report.proven[r, c] == results[name].proven

    def test_two_workers_match_inline(self, tiny_corpus):
        tracks, config, report, _ = tiny_corpus
        threaded, _ = run_corpus(tracks, config, threads=2)
        assert np.array_equal(threaded.rewards, report.rewards)
        assert np.array_equal(threaded.proven, report.proven)

    def test_no_more_workers_than_tracks(self, tiny_corpus, monkeypatch):
        tracks, config, report, _ = tiny_corpus
        asked = []

        class SerialPool:
            def __init__(self, max_workers, initializer, initargs):
                asked.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(harness, "_worker_config", None)
        pooled, _ = run_corpus(tracks, config, threads=64)
        assert asked == [len(tracks)]
        assert np.array_equal(pooled.rewards, report.rewards)

    def test_empty_corpus(self):
        report, per_track = run_corpus((), tiny_config(), threads=1)
        assert per_track == []
        assert report.num_tracks == 0

    def test_rejects_bad_thread_count(self):
        with pytest.raises(ValueError, match="at least 1"):
            run_corpus((), tiny_config(), threads=0)


def toy_report() -> ComparisonReport:
    rewards = np.array(
        [
            [10.0, 12.0, 15.0],
            [0.0, 3.0, 2.0],
            [4.0, 4.0, 8.0],
        ]
    )
    return ComparisonReport(
        track_names=("T1", "T2", "T3"),
        model_names=("B", "A", "P1"),
        rewards=rewards,
        proven=np.ones((3, 3), dtype=bool),
    )


class TestComparisonReport:
    def test_percent_increase_values(self):
        pct = toy_report().percent_increase()
        assert pct[0, 0] == 0.0
        assert pct[0, 1] == pytest.approx(20.0)
        assert pct[0, 2] == pytest.approx(50.0)
        assert np.isnan(pct[1]).all()
        assert pct[2, 2] == pytest.approx(100.0)

    def test_outperformance_counts(self):
        out = toy_report().outperformance()
        # out[r][c] counts tracks where model c strictly beats model r
        assert np.array_equal(np.diag(out), [0, 0, 0])
        assert out[0, 1] == 2  # A beats B on T1 and T2, ties on T3
        assert out[1, 0] == 0  # B never strictly beats A
        assert out[0, 2] == 3
        assert out[2, 0] == 0
        assert out[1, 2] == 2 and out[2, 1] == 1

    def test_column_lookup(self):
        report = toy_report()
        assert report.column("P1") == 2
        with pytest.raises(ValueError, match="not in report"):
            report.column("U2")

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="must be shaped"):
            ComparisonReport(
                track_names=("T1",),
                model_names=("B",),
                rewards=np.zeros((2, 1)),
                proven=np.zeros((1, 1), dtype=bool),
            )

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(2, 4))
    def test_outperformance_antisymmetry(self, seed, n_tracks, n_models):
        rng = np.random.default_rng(seed)
        rewards = rng.integers(0, 4, size=(n_tracks, n_models)).astype(float)
        names = tuple(f"M{i}" for i in range(n_models))
        report = ComparisonReport(
            track_names=tuple(f"T{i}" for i in range(n_tracks)),
            model_names=names,
            rewards=rewards,
            proven=np.ones((n_tracks, n_models), dtype=bool),
        )
        out = report.outperformance()
        assert (np.diag(out) == 0).all()
        # wins both ways can never exceed the number of tracks
        assert ((out + out.T) <= n_tracks).all()
        ties = (rewards[:, None, :] == rewards[:, :, None]).sum(axis=0)
        assert np.array_equal(out + out.T + ties, np.full_like(out, n_tracks))


class TestBuildReport:
    def test_missing_model_rejected(self, tiny_corpus):
        tracks, _, _, per_track = tiny_corpus
        partial = [{k: v for k, v in per_track[0].items() if k != "A"}, per_track[1]]
        with pytest.raises(ValueError, match="no result for model 'A'"):
            build_report(tracks, ("B", "A", "P1"), partial)

    def test_length_mismatch_rejected(self, tiny_corpus):
        tracks, _, _, per_track = tiny_corpus
        with pytest.raises(ValueError, match="one result dict per track"):
            build_report(tracks, ("B",), per_track[:1])


class TestEmitReport:
    def test_csv_layout(self):
        data = emit_report(toy_report(), "csv").decode()
        rows = list(csv.reader(io.StringIO(data)))
        assert rows[0] == [
            "model", "tracks", "proven", "mean_reward", "mean_pct_vs_B",
            "std_pct_vs_B", "min_pct_vs_B", "max_pct_vs_B", "undefined", "wins_vs_B",
        ]
        assert len(rows) == 4
        b_row = rows[1]
        assert b_row[0] == "B"
        assert b_row[1] == "3" and b_row[2] == "3"
        # t2 has baseline zero, so exactly one undefined track per model
        assert [r[8] for r in rows[1:]] == ["1", "1", "1"]
        assert float(rows[3][4]) == pytest.approx(75.0)  # mean of 50 and 100

    def test_undefined_statistics_when_baseline_always_zero(self):
        report = ComparisonReport(
            track_names=("T1",),
            model_names=("B", "A"),
            rewards=np.array([[0.0, 5.0]]),
            proven=np.ones((1, 2), dtype=bool),
        )
        rows = list(csv.reader(io.StringIO(emit_report(report, "csv").decode())))
        assert rows[1][4:8] == ["undefined"] * 4
        assert rows[1][8] == "1"

    def test_empty_corpus_header_only(self):
        report = ComparisonReport(
            track_names=(), model_names=("B",), rewards=np.zeros((0, 1)),
            proven=np.zeros((0, 1), dtype=bool),
        )
        assert emit_report(report, "csv") == (
            b"model,tracks,proven,mean_reward,mean_pct_vs_B,std_pct_vs_B,"
            b"min_pct_vs_B,max_pct_vs_B,undefined,wins_vs_B\n"
        )
        text = emit_report(report, "text-table").decode()
        assert text.split() == emit_report(report, "csv").decode().strip().split(",")

    def test_text_table_shape(self):
        text = emit_report(toy_report(), "text-table").decode()
        lines = text.splitlines()
        assert lines[0].split() == [
            "model", "tracks", "proven", "mean_reward", "mean_pct_vs_B",
            "std_pct_vs_B", "min_pct_vs_B", "max_pct_vs_B", "undefined", "wins_vs_B",
        ]
        assert len(lines) == 4
        assert "75.000" in lines[3]
        cells = lines[3].split()
        assert cells[1:3] == ["3", "3"]
        assert cells[-2:] == ["1", "3"]
        assert text.endswith("\n")

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report(toy_report(), "yaml")

    def test_missing_baseline_column(self):
        report = ComparisonReport(
            track_names=("T1",), model_names=("A",), rewards=np.array([[2.0]]),
            proven=np.ones((1, 1), dtype=bool),
        )
        rows = list(csv.reader(io.StringIO(emit_report(report, "csv").decode())))
        assert rows[1][4:8] == ["undefined"] * 4
        assert rows[1][9] == "undefined"


class TestWriteOutputs:
    def test_file_inventory(self, tiny_corpus, tmp_path):
        tracks, config, report, per_track = tiny_corpus
        out = tmp_path / "run"
        write_outputs(out, tracks, per_track, report)
        for name in ("rewards.csv", "pct_increase.csv", "outperform.csv", "summary.csv"):
            assert (out / name).is_file(), name
        for track in tracks:
            assert (out / "tracks" / f"{track.name}.csv").is_file()
            assert (out / "plans" / f"{track.name}__B.csv").is_file()
            assert (out / "plans" / f"{track.name}__P1.csv").is_file()
            assert (out / "schedules" / f"{track.name}__A__sat0.csv").is_file()
            assert (out / "schedules" / f"{track.name}__A__sat1.csv").is_file()

    def test_rewards_csv_round_trips(self, tiny_corpus, tmp_path):
        tracks, config, report, per_track = tiny_corpus
        out = tmp_path / "run"
        write_outputs(out, tracks, per_track, report)
        with open(out / "rewards.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["track", "model", "reward", "proven"]
        assert len(rows) == 1 + 2 * 3
        for row in rows[1:]:
            r = report.track_names.index(row[0])
            c = report.model_names.index(row[1])
            assert float(row[2]) == report.rewards[r, c]
            assert row[3] == str(int(report.proven[r, c]))

    def test_outperform_csv_is_square(self, tiny_corpus, tmp_path):
        tracks, config, report, per_track = tiny_corpus
        out = tmp_path / "run"
        write_outputs(out, tracks, per_track, report)
        with open(out / "outperform.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["model", "B", "A", "P1"]
        counts = report.outperformance()
        for i, row in enumerate(rows[1:]):
            assert row[0] == report.model_names[i]
            assert [int(v) for v in row[1:]] == list(counts[i])

    def test_repeat_writes_are_byte_identical(self, tiny_corpus, tmp_path):
        tracks, config, report, per_track = tiny_corpus
        first, second = tmp_path / "a", tmp_path / "b"
        write_outputs(first, tracks, per_track, report)
        write_outputs(second, tracks, per_track, report)
        for name in ("rewards.csv", "pct_increase.csv", "outperform.csv", "summary.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_satellite_names_reach_schedule_files(self, tiny_corpus, tmp_path):
        tracks, config, report, per_track = tiny_corpus
        out = tmp_path / "named"
        write_outputs(out, tracks, per_track, report, satellite_names=["Alpha Sat", "B/2"])
        assert (out / "schedules" / "ONE__A__Alpha_Sat.csv").is_file()
        assert (out / "schedules" / "ONE__A__B_2.csv").is_file()

    def test_schedule_rows(self, tiny_corpus, tmp_path):
        tracks, config, report, per_track = tiny_corpus
        out = tmp_path / "run"
        write_outputs(out, tracks, per_track, report)
        with open(out / "schedules" / "ONE__A__sat0.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["opportunity", "alpha_rad", "beta_rad", "gamma_rad"]
        schedule = per_track[0]["A"].schedules[0]
        assert len(rows) == 1 + len(schedule.angles)
        assert float(rows[1][1]) == schedule.angles[0, 0]

    def test_safe_name(self):
        assert _safe_name("synth-01") == "synth-01"
        assert _safe_name("a b/c:d") == "a_b_c_d"
