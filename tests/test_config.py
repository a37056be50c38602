"""Config parsing, validation diagnostics, and round-trip identity."""

import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from jamflow.config import (
    RunConfig,
    SweepPlan,
    parse_config,
    parse_config_file,
    serialize_config,
    config_to_dict,
)
from jamflow.errors import IoError, ParseError, ValidationError

from test_runner import KAPPA_DELTA_BAD

CUSTOM_TEXT = textwrap.dedent(
    """
    [scenario]
    name = custom
    initial_kind = gaussian_bump
    initial_base = 0.3
    initial_amp = 0.4
    initial_center = 0.3
    initial_width = 0.1
    velocity = 0.5

    [grid]
    extent = 1.0
    cells = 128

    [barrier]
    kind = constant
    value = 1.0

    [pressure]
    kind = singular
    eps = 0.001
    alpha = 3.0
    beta = 3.0

    [fluid]
    mu = 0.005
    gamma = 8.0

    [solver]
    t_end = 0.25
    """
)


TRUNCATED = "[pressure]\nkind = truncated\nkappa = 1.0\ncap_k = 6.0\ndelta = 0.1\n"


def issues_of(excinfo):
    return {key: reason for key, _, reason in excinfo.value.issues}


class TestScenarioDefaults:
    def test_minimal_config_resolves_defaults(self):
        cfg = parse_config("[scenario]\nname = traffic_1d\n")
        assert cfg.scenario_name == "traffic_1d"
        assert cfg.grid.cells == (200,)
        assert cfg.law.kind == "singular"
        assert cfg.fluid.gamma == 60.0
        assert cfg.solver.t_end == 1.0
        assert cfg.solver.snapshot_every == 0.002
        assert cfg.out_dir == "runs/traffic_1d"
        assert cfg.initial.velocity == (0.5,)
        assert cfg.sweep is None

    def test_explicit_keys_beat_defaults(self):
        cfg = parse_config(
            "[scenario]\nname = traffic_1d\n[grid]\ncells = 64\n[solver]\nt_end = 0.1\n"
        )
        assert cfg.grid.cells == (64,)
        assert cfg.solver.t_end == 0.1
        # untouched defaults survive
        assert cfg.law.eps == 1e-3

    def test_2d_scenario_defaults(self):
        cfg = parse_config("[scenario]\nname = crowd_blob_2d\n")
        assert cfg.grid.dim == 2
        assert cfg.initial.velocity == (1.0, 0.0)
        assert cfg.barrier.kind == "gaussian_bump"

    def test_manufactured_has_no_initial(self):
        cfg = parse_config("[scenario]\nname = manufactured_1d\n")
        assert cfg.initial is None
        assert cfg.law.eps == 0.05

    def test_overrides_win_over_everything(self):
        cfg = parse_config(
            "[scenario]\nname = traffic_1d\n[solver]\nt_end = 0.5\n",
            overrides=("solver.t_end=0.125", "pressure.eps=0.01"),
        )
        assert cfg.solver.t_end == 0.125
        assert cfg.law.eps == 0.01

    def test_velocity_broadcasts_across_axes(self):
        cfg = parse_config(
            "[scenario]\nname = crowd_blob_2d\nvelocity = 0.3\n"
        )
        assert cfg.initial.velocity == (0.3, 0.3)

    def test_switching_initial_kind_drops_stale_shape_keys(self):
        # the traffic default is a gaussian bump; switching to a constant
        # profile must not leave base/amp/center/width behind as unknown keys
        cfg = parse_config(
            "[scenario]\nname = traffic_1d\ninitial_kind = constant\ninitial_value = 0.5\n"
        )
        assert cfg.initial.profile.kind == "constant"
        assert cfg.initial.profile.value == 0.5
        assert cfg.initial.velocity == (0.5,)

    def test_switching_law_kind_keeps_shared_parameters(self):
        cfg = parse_config(
            "[scenario]\nname = traffic_1d\n"
            "[pressure]\nkind = truncated\nkappa = 1.0\ncap_k = 6.0\ndelta = 0.1\n"
        )
        assert cfg.law.kind == "truncated"
        assert cfg.law.eps == 1e-3
        assert cfg.law.alpha == 2.0

    def test_switching_barrier_kind_requires_new_shape_keys(self):
        cfg = parse_config(
            "[scenario]\nname = lane_narrowing_1d\n[barrier]\nkind = constant\nvalue = 0.9\n"
        )
        assert cfg.barrier.kind == "constant"
        with pytest.raises(ValidationError) as excinfo:
            parse_config("[scenario]\nname = lane_narrowing_1d\n[barrier]\nkind = constant\n")
        assert "barrier.value" in issues_of(excinfo)


class TestValidationIssues:
    def test_missing_name_is_fatal(self):
        with pytest.raises(ValidationError) as exc:
            parse_config("[grid]\ncells = 32\n")
        assert "scenario.name" in issues_of(exc)

    def test_unknown_scenario_is_fatal(self):
        with pytest.raises(ValidationError) as exc:
            parse_config("[scenario]\nname = hyperspace\n")
        assert "traffic_1d" in issues_of(exc)["scenario.name"]

    def test_issues_accumulate_with_lines(self):
        text = (
            "[scenario]\n"            # line 1
            "name = traffic_1d\n"     # line 2
            "[fluid]\n"               # line 3
            "mu = banana\n"           # line 4
            "[solver]\n"              # line 5
            "cfl = 7\n"               # line 6
        )
        with pytest.raises(ValidationError) as exc:
            parse_config(text)
        entries = {key: (line, reason) for key, line, reason in exc.value.issues}
        assert entries["fluid.mu"][0] == 4
        assert "number" in entries["fluid.mu"][1]
        assert entries["solver.cfl"][0] == 6
        assert entries["solver.cfl"][1].startswith("cfl")  # constructor message
        assert len(exc.value.issues) >= 2

    @pytest.mark.parametrize(
        "section, entry, issue_key",
        [
            ("[pressure]", "alpha = 0.5", "pressure.alpha"),
            ("[fluid]", "gamma = 0.5", "fluid.gamma"),
            ("[fluid]", "lambda = -1", "fluid.lambda"),
            ("[solver]", "cfl = 2", "solver.cfl"),
        ],
    )
    def test_constructor_errors_land_on_the_key_they_name(self, section, entry, issue_key):
        text = f"[scenario]\nname = traffic_1d\n[grid]\ncells = 40\n{section}\n{entry}\n"
        with pytest.raises(ValidationError) as exc:
            parse_config(text)
        assert [(key, line) for key, line, _ in exc.value.issues] == [(issue_key, 6)]

    def test_unknown_key_and_section_flagged(self):
        with pytest.raises(ValidationError) as exc:
            parse_config(
                "[scenario]\nname = traffic_1d\n[solver]\nwarp = 9\n"
            )
        assert "unknown key" in issues_of(exc)["solver.warp"]
        with pytest.raises(ValidationError) as exc:
            parse_config("[scenario]\nname = traffic_1d\n[warp]\nx = 1\n")
        assert "unknown section" in issues_of(exc)["warp"]

    @pytest.mark.parametrize("form", ["potential", "direct"])
    def test_force_form_is_an_unknown_key(self, form):
        # the pressure force has one form, so there is no key to pick it
        text = f"[scenario]\nname = traffic_1d\n[solver]\ncfl = 0.3\nforce_form = {form}\n"
        with pytest.raises(ValidationError) as exc:
            parse_config(text)
        assert exc.value.issues == [("solver.force_form", 5, "unknown key")]

    def test_custom_requires_all_sections(self):
        with pytest.raises(ValidationError) as exc:
            parse_config("[scenario]\nname = custom\n")
        keys = issues_of(exc)
        assert "grid.cells" in keys
        assert "barrier.kind" in keys
        assert "pressure.kind" in keys
        assert "fluid.mu" in keys
        assert "solver.t_end" in keys
        assert "scenario.initial_kind" in keys

    @pytest.mark.parametrize("cells", ["", "cells = x\n"], ids=["missing", "malformed"])
    def test_extent_is_a_known_key_whatever_cells_holds(self, cells):
        with pytest.raises(ValidationError) as exc:
            parse_config("[scenario]\nname = custom\n[grid]\n" + cells + "extent = 1\n")
        keys = issues_of(exc)
        assert "grid.cells" in keys
        assert "grid.extent" not in keys

    def test_manufactured_rejects_initial_profile(self):
        with pytest.raises(ValidationError) as exc:
            parse_config(
                "[scenario]\nname = manufactured_1d\ninitial_kind = constant\n"
                "initial_value = 0.4\n"
            )
        assert "manufactured" in issues_of(exc)["scenario.initial_kind"]

    def test_nested_initial_issue_uses_prefixed_key(self):
        text = CUSTOM_TEXT.replace("initial_width = 0.1", "initial_width = wide")
        with pytest.raises(ValidationError) as exc:
            parse_config(text)
        assert "scenario.initial_width" in issues_of(exc)

    def test_bad_law_parameters_are_reported(self):
        text = CUSTOM_TEXT.replace("eps = 0.001", "eps = -1.0")
        with pytest.raises(ValidationError) as exc:
            parse_config(text)
        assert "positive" in issues_of(exc)["pressure.eps"]

    def test_negative_fields_every_rejected(self):
        with pytest.raises(ValidationError) as exc:
            parse_config(
                "[scenario]\nname = traffic_1d\n[output]\nfields_every = -1\n"
            )
        assert "output.fields_every" in issues_of(exc)

    def test_syntax_error_raises_parse_error(self):
        with pytest.raises(ParseError):
            parse_config("scenario]\nname = traffic_1d\n")

    def test_malformed_override_flagged(self):
        with pytest.raises(ValidationError) as exc:
            parse_config("[scenario]\nname = traffic_1d\n", overrides=("solver-t_end-1",))
        assert any("override" in key for key in issues_of(exc))

    def test_missing_file_raises_io_error(self, tmp_path):
        with pytest.raises(IoError):
            parse_config_file(tmp_path / "nope.ini")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "entry, issue_key, word",
        [
            # SolverConfig and Grid constructor errors land on the key they name
            ("[solver]\nt_end = {}", "solver.t_end", "t_end"),
            ("[solver]\nsnapshot_every = {}", "solver.snapshot_every", "snapshot_every"),
            ("[output]\nfields_every = {}", "output.fields_every", "finite"),
            ("[grid]\nextent = {}", "grid.extent", "extents"),
            ("[sweep]\nkind = eps\nvalues = 1e-2, {}", "sweep.values", "finite"),
            (TRUNCATED + "[sweep]\nkind = kappa_delta\npairs = 1.0:0.1, 2.0:{}", "sweep.pairs", "finite"),
        ],
        ids=["t_end", "snapshot_every", "fields_every", "extent", "values", "pairs"],
    )
    def test_non_finite_numbers_rejected(self, entry, issue_key, word, value):
        with pytest.raises(ValidationError) as exc:
            parse_config("[scenario]\nname = traffic_1d\n" + entry.format(value) + "\n")
        reason = issues_of(exc)[issue_key]
        assert "finite" in reason and word in reason

    def test_uniform_is_an_alias_of_constant(self):
        cfg = parse_config(
            "[scenario]\nname = traffic_1d\ninitial_kind = uniform\ninitial_value = 0.4\n"
            "[barrier]\nkind = uniform\nvalue = 0.9\n"
        )
        assert cfg.barrier.kind == "constant"
        assert cfg.initial.profile.kind == "constant"
        out = serialize_config(cfg)
        assert "kind = constant" in out and "initial_kind = constant" in out
        assert "uniform" not in out

    def test_switching_preset_barrier_to_uniform_drops_stale_shape_keys(self):
        cfg = parse_config(
            "[scenario]\nname = lane_narrowing_1d\n[barrier]\nkind = uniform\nvalue = 0.9\n"
        )
        assert cfg.barrier.kind == "constant"
        assert cfg.barrier.value == 0.9

    def test_fill_fraction_out_of_range_reported_at_its_key(self):
        with pytest.raises(ValidationError) as exc:
            parse_config(
                "[scenario]\nname = pipe_1d\ninitial_kind = fill_fraction\ninitial_fraction = 1.5\n"
            )
        assert "(0, 1)" in issues_of(exc)["scenario.initial_fraction"]

    def test_every_missing_law_key_is_reported(self):
        with pytest.raises(ValidationError) as exc:
            parse_config("[scenario]\nname = traffic_1d\n[pressure]\nkind = truncated\n")
        assert set(issues_of(exc)) == {"pressure.kappa", "pressure.cap_k", "pressure.delta"}

    def test_bad_law_number_leaves_other_keys_known(self):
        with pytest.raises(ValidationError) as exc:
            parse_config("[scenario]\nname = traffic_1d\n[pressure]\neps = x\n")
        assert exc.value.issues == [("pressure.eps", 4, "expected a number, got 'x'")]

    def test_initial_broadcast_issue_uses_prefixed_key(self):
        text = CUSTOM_TEXT.replace("initial_center = 0.3", "initial_center = 0.3, 0.4")
        with pytest.raises(ValidationError) as exc:
            parse_config(text)
        [(key, line, reason)] = exc.value.issues
        assert (key, line) == ("scenario.initial_center", 7)
        assert "expected 1 or 1 values" in reason

    def test_fill_fraction_is_not_a_barrier_kind(self):
        with pytest.raises(ValidationError) as exc:
            parse_config("[scenario]\nname = traffic_1d\n[barrier]\nkind = fill_fraction\nfraction = 0.5\n")
        reason = issues_of(exc)["barrier.kind"]
        assert "fill_fraction" in reason and "must be one of" in reason


class TestSweepValidation:
    BASE = "[scenario]\nname = traffic_1d\n"

    def test_eps_sweep_parses_and_orders_nothing(self):
        cfg = parse_config(self.BASE + "[sweep]\nkind = eps\nvalues = 0.01, 0.001\n")
        assert cfg.sweep == SweepPlan(kind="eps", values=(0.01, 0.001))

    def test_eps_sweep_needs_positive_values(self):
        with pytest.raises(ValidationError) as exc:
            parse_config(self.BASE + "[sweep]\nkind = eps\nvalues = 0.01, -0.001\n")
        assert "positive" in issues_of(exc)["sweep.values"]

    def test_unbuildable_members_are_named_at_their_pairs(self):
        with pytest.raises(ValidationError) as exc:
            parse_config(KAPPA_DELTA_BAD)
        issues = exc.value.issues
        assert {(key, line) for key, line, _ in issues} == {("sweep.pairs", 14)}
        reasons = sorted(reason for _, _, reason in issues)
        assert reasons[0].startswith("member delta_0.05: truncated law: kappa must be positive")
        assert reasons[1].startswith("member delta_1.5: truncated law: delta must lie in (0, 1)")

    def test_eps_sweep_needs_values(self):
        with pytest.raises(ValidationError) as exc:
            parse_config(self.BASE + "[sweep]\nkind = eps\nvalues =\n")
        assert "sweep.values" in issues_of(exc)

    def test_eps_sweep_rejects_wrong_law(self):
        text = (
            self.BASE
            + "[pressure]\nkind = barotropic\na = 1.0\ngamma_n = 2.0\n"
            + "[sweep]\nkind = eps\nvalues = 0.01\n"
        )
        with pytest.raises(ValidationError) as exc:
            parse_config(text)
        assert "singular or truncated" in issues_of(exc)["sweep.kind"]

    def test_kappa_delta_sweep_parses_pairs(self):
        text = (
            self.BASE
            + "[pressure]\nkind = truncated\neps = 0.001\nalpha = 3.0\nbeta = 3.0\n"
            + "kappa = 1.0\ncap_k = 6.0\ndelta = 0.1\n"
            + "[sweep]\nkind = kappa_delta\npairs = 1.0:0.1, 2.0:0.05\n"
        )
        cfg = parse_config(text)
        assert cfg.sweep == SweepPlan(kind="kappa_delta", values=((1.0, 0.1), (2.0, 0.05)))

    def test_kappa_delta_needs_truncated_law(self):
        with pytest.raises(ValidationError) as exc:
            parse_config(self.BASE + "[sweep]\nkind = kappa_delta\npairs = 1.0:0.1\n")
        assert "truncated" in issues_of(exc)["sweep.kind"]

    def test_eps_values_sharing_a_label_are_rejected(self):
        # both print as eps_0.001, so both runs would land in one directory
        with pytest.raises(ValidationError) as exc:
            parse_config(self.BASE + "[sweep]\nkind = eps\nvalues = 1e-3, 1.0000001e-3\n")
        assert "eps_0.001" in issues_of(exc)["sweep.values"]

    def test_kappa_delta_pairs_sharing_a_label_are_rejected(self):
        text = (
            self.BASE
            + "[pressure]\nkind = truncated\neps = 0.001\nalpha = 3.0\nbeta = 3.0\n"
            + "kappa = 1.0\ncap_k = 6.0\ndelta = 0.1\n"
            + "[sweep]\nkind = kappa_delta\npairs = 1.0:0.1, 2.0:0.1\n"
        )
        with pytest.raises(ValidationError) as exc:
            parse_config(text)
        assert "delta_0.1" in issues_of(exc)["sweep.pairs"]

    def test_kappa_delta_rejects_malformed_pairs(self):
        with pytest.raises(ValidationError) as exc:
            parse_config(self.BASE + "[sweep]\nkind = kappa_delta\npairs = 1.0&0.1\n")
        assert "sweep.pairs" in issues_of(exc)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name",
        ["traffic_1d", "lane_narrowing_1d", "pipe_1d", "crowd_blob_2d", "manufactured_1d"],
    )
    def test_scenario_configs_round_trip(self, name):
        cfg = parse_config(f"[scenario]\nname = {name}\n")
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_custom_config_round_trips(self):
        cfg = parse_config(CUSTOM_TEXT)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    @pytest.mark.parametrize(
        "extra",
        [
            "[sweep]\nkind = eps\nvalues = 0.01, 0.001\n",
            TRUNCATED + "[sweep]\nkind = kappa_delta\npairs = 1.0:0.1, 2.0:0.05\n",
        ],
        ids=["eps", "kappa_delta"],
    )
    def test_sweep_config_round_trips(self, extra):
        cfg = parse_config("[scenario]\nname = traffic_1d\n" + extra)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_double_round_trip_is_stable(self):
        cfg = parse_config(CUSTOM_TEXT)
        text1 = serialize_config(cfg)
        text2 = serialize_config(parse_config(text1))
        assert text1 == text2

    def test_config_to_dict_is_json_friendly(self):
        import json

        cfg = parse_config(
            "[scenario]\nname = traffic_1d\n[sweep]\nkind = eps\nvalues = 0.01\n"
        )
        blob = json.dumps(config_to_dict(cfg))
        assert "traffic_1d" in blob

    def test_config_to_dict_types_spec_values(self):
        cfg = parse_config("[scenario]\nname = crowd_blob_2d\n[sweep]\nkind = eps\nvalues = 0.01, 0.001\n")
        view = config_to_dict(cfg)
        assert view["scenario"] == "crowd_blob_2d"
        assert view["barrier"] == {
            "kind": "gaussian_bump", "base": 1.0, "amp": -0.6, "center": [0.6, 0.5], "width": 0.12,
        }
        assert view["pressure"] == {"kind": "singular", "eps": 0.001, "alpha": 2.0, "beta": 2.0}
        assert view["initial"]["center"] == [0.32, 0.5]
        assert view["initial"]["velocity"] == [1.0, 0.0]
        assert view["fluid"] == {"mu": 0.01, "lambda": 0.0, "gamma": 8.0}
        assert view["solver"]["max_substeps"] == 40
        assert view["sweep"] == {"kind": "eps", "values": [[0.01], [0.001]]}

    @settings(max_examples=40, deadline=None)
    @given(
        eps=st.floats(min_value=1e-5, max_value=0.5, allow_nan=False),
        alpha=st.floats(min_value=2.0, max_value=6.0, allow_nan=False),
        beta=st.floats(min_value=2.0, max_value=6.0, allow_nan=False),
        t_end=st.floats(min_value=1e-3, max_value=2.0, allow_nan=False),
        cfl=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
        cells=st.integers(min_value=3, max_value=512),
        vel=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    )
    def test_round_trip_identity_property(self, eps, alpha, beta, t_end, cfl, cells, vel):
        text = (
            "[scenario]\n"
            "name = custom\n"
            "initial_kind = constant\n"
            "initial_value = 0.4\n"
            f"velocity = {vel!r}\n"
            "[grid]\n"
            f"cells = {cells}\n"
            "[barrier]\n"
            "kind = constant\n"
            "value = 1.0\n"
            "[pressure]\n"
            "kind = singular\n"
            f"eps = {eps!r}\n"
            f"alpha = {alpha!r}\n"
            f"beta = {beta!r}\n"
            "[fluid]\n"
            "mu = 0.005\n"
            "gamma = 2.0\n"
            "[solver]\n"
            f"t_end = {t_end!r}\n"
            f"cfl = {cfl!r}\n"
        )
        cfg = parse_config(text)
        assert isinstance(cfg, RunConfig)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert again.law.eps == eps
        assert again.solver.cfl == cfl


GOLDEN_DIR = Path(__file__).parent / "golden"

# inputs whose canonical text is pinned byte for byte in tests/golden/:
# meta.json's config_text is what reproduces a run, so it must not drift
GOLDEN_INPUTS = {
    **{
        name: f"[scenario]\nname = {name}\n"
        for name in ("traffic_1d", "lane_narrowing_1d", "pipe_1d", "crowd_blob_2d", "manufactured_1d")
    },
    "custom": CUSTOM_TEXT,
    "sweep_eps": "[scenario]\nname = traffic_1d\n[sweep]\nkind = eps\nvalues = 1e-2, 1e-3, 1e-4\n",
    "sweep_kappa_delta": (
        "[scenario]\nname = traffic_1d\n" + TRUNCATED
        + "[sweep]\nkind = kappa_delta\npairs = 1.0:0.1, 2.0:0.05\n"
    ),
    "fill_fraction": (
        "[scenario]\nname = lane_narrowing_1d\ninitial_kind = fill_fraction\n"
        "initial_fraction = 0.7\n"
    ),
    "bump_2d_broadcast_center": (
        "[scenario]\nname = crowd_blob_2d\ninitial_center = 0.25\n"
        "[barrier]\ncenter = 0.5\n[output]\nfields_every = 0.05\n"
    ),
}


class TestGoldenText:
    @pytest.mark.parametrize("label", sorted(GOLDEN_INPUTS))
    def test_serialized_text_is_pinned(self, label):
        expected = (GOLDEN_DIR / f"{label}.ini").read_text(encoding="utf-8")
        assert serialize_config(parse_config(GOLDEN_INPUTS[label])) == expected
