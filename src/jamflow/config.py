"""INI config schema: parsing, validation, canonical serialization.

A config names a scenario and optionally overrides any of its pieces;
``name = custom`` builds everything from explicit sections.  Parsing a
serialized config reproduces the config exactly (round-trip identity),
which is also what makes ``meta.json`` reproducible.
"""

from __future__ import annotations

import configparser
import io
import re
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .domain import (
    ConstantBarrier,
    GaussianBumpBarrier,
    Grid,
    PipeBarrier,
    TanhStepBarrier,
)
from .errors import IoError, ParameterError, ParseError, ValidationError
from .pressure import LAW_KINDS, FluidParams
from .scenarios import FillFraction, InitialSpec, make_scenario, SCENARIO_NAMES
from .solver import FORCE_FORMS, SolverConfig

SECTION_ORDER = ("scenario", "grid", "barrier", "pressure", "fluid", "solver", "output", "sweep")

_PROFILE_KEYS = {
    "constant": ("value",),
    "tanh_step": ("left", "right", "center", "width"),
    "gaussian_bump": ("base", "amp", "center", "width"),
    "pipe_profile": ("base", "throat", "center", "halfwidth"),
    "fill_fraction": ("fraction",),
}
_LAW_KEYS = {kind: tuple(f.name for f in fields(cls)) for kind, cls in LAW_KINDS.items()}


@dataclass(frozen=True)
class SweepPlan:
    kind: str  # "eps" | "kappa_delta"
    values: tuple  # floats for eps, (kappa, delta) pairs otherwise


@dataclass(frozen=True)
class RunConfig:
    scenario_name: str
    grid: Grid
    barrier: object
    initial: InitialSpec | None
    law: object
    fluid: FluidParams
    solver: SolverConfig
    out_dir: str
    fields_every: float
    sweep: SweepPlan | None


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list, np.ndarray)):
        return ", ".join(_fmt(v) for v in value)
    return str(value)


def _line_map(text):
    lines = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        m = re.match(r"\[(.+?)\]", stripped)
        if m:
            section = m.group(1).strip().lower()
            continue
        m = re.match(r"([^=:#;]+?)\s*[=:]", stripped)
        if m and section is not None:
            key = m.group(1).strip().lower()
            lines.setdefault((section, key), lineno)
    return lines


def _read_raw(text):
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ParseError(f"config syntax error: {exc}") from exc
    raw = {s.lower(): {k: v for k, v in cp.items(s)} for s in cp.sections()}
    return raw, _line_map(text)


class _Issues:
    def __init__(self, linemap):
        self.linemap = linemap
        self.items = []

    def add(self, section, key, reason):
        line = self.linemap.get((section, key), 0)
        self.items.append((f"{section}.{key}" if key else section, line, reason))

    def raise_if_any(self):
        if self.items:
            raise ValidationError(self.items)


class _Section:
    def __init__(self, name, data, issues, prefix=""):
        self.name = name
        self.data = dict(data)
        self.issues = issues
        self.prefix = prefix
        self.seen = set()

    def has(self, key):
        return key in self.data

    def _flag(self, key, reason):
        self.issues.add(self.name, self.prefix + key, reason)

    def raw(self, key, default=None, required=False):
        self.seen.add(key)
        if key in self.data:
            return self.data[key].strip()
        if required:
            self._flag(key, "required key is missing")
        return default

    def floatval(self, key, default=None, required=False):
        raw = self.raw(key, None, required)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            self._flag(key, f"expected a number, got {raw!r}")
            return default

    def intval(self, key, default=None, required=False):
        raw = self.raw(key, None, required)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            self._flag(key, f"expected an integer, got {raw!r}")
            return default

    def floats(self, key, default=None, required=False):
        raw = self.raw(key, None, required)
        if raw is None:
            return default
        try:
            return tuple(float(p) for p in raw.split(",") if p.strip())
        except ValueError:
            self._flag(key, f"expected comma-separated numbers, got {raw!r}")
            return default

    def ints(self, key, default=None, required=False):
        raw = self.raw(key, None, required)
        if raw is None:
            return default
        try:
            return tuple(int(p) for p in raw.split(",") if p.strip())
        except ValueError:
            self._flag(key, f"expected comma-separated integers, got {raw!r}")
            return default

    def choice(self, key, allowed, default=None, required=False):
        raw = self.raw(key, None, required)
        if raw is None:
            return default
        if raw not in allowed:
            self._flag(key, f"must be one of {sorted(allowed)}, got {raw!r}")
            return default
        return raw

    def flag_unknown(self):
        for key in self.data:
            if key not in self.seen:
                self._flag(key, "unknown key")


def _broadcast(values, dim, section, key, issues):
    if values is None:
        return None
    if len(values) == 1 and dim > 1:
        return values * dim
    if len(values) != dim:
        issues.add(section, key, f"expected 1 or {dim} values, got {len(values)}")
        return values[:dim] if len(values) > dim else values + values[-1:] * (dim - len(values))
    return values


def _parse_profile(sec, dim, allow_fill):
    kinds = set(_PROFILE_KEYS)
    aliases = {"uniform": "constant"}
    if not allow_fill:
        kinds.discard("fill_fraction")
    raw_kind = sec.raw("kind", required=True)
    kind = aliases.get(raw_kind, raw_kind)
    if kind is None:
        return None
    if kind not in kinds:
        sec._flag("kind", f"must be one of {sorted(kinds)}, got {raw_kind!r}")
        return None
    if kind == "constant":
        value = sec.floatval("value", required=True)
        return ConstantBarrier(value) if value is not None else None
    if kind == "tanh_step":
        vals = [sec.floatval(k, required=True) for k in ("left", "right", "center", "width")]
        return TanhStepBarrier(*vals) if None not in vals else None
    if kind == "gaussian_bump":
        base = sec.floatval("base", required=True)
        amp = sec.floatval("amp", required=True)
        center = _broadcast(sec.floats("center", required=True), dim, sec.name, "center", sec.issues)
        width = sec.floatval("width", required=True)
        if None in (base, amp, center, width):
            return None
        return GaussianBumpBarrier(base=base, amp=amp, center=center, width=width)
    if kind == "pipe_profile":
        vals = [sec.floatval(k, required=True) for k in ("base", "throat", "center", "halfwidth")]
        return PipeBarrier(*vals) if None not in vals else None
    if kind == "fill_fraction":
        frac = sec.floatval("fraction", required=True)
        if frac is None:
            return None
        try:
            return FillFraction(frac)
        except ParameterError as exc:
            sec._flag("fraction", str(exc))
            return None
    return None


def _profile_raw(spec):
    if isinstance(spec, ConstantBarrier):
        return {"kind": "constant", "value": _fmt(spec.value)}
    if isinstance(spec, TanhStepBarrier):
        return {
            "kind": "tanh_step",
            "left": _fmt(spec.left),
            "right": _fmt(spec.right),
            "center": _fmt(spec.center),
            "width": _fmt(spec.width),
        }
    if isinstance(spec, GaussianBumpBarrier):
        return {
            "kind": "gaussian_bump",
            "base": _fmt(spec.base),
            "amp": _fmt(spec.amp),
            "center": _fmt(spec.center),
            "width": _fmt(spec.width),
        }
    if isinstance(spec, PipeBarrier):
        return {
            "kind": "pipe_profile",
            "base": _fmt(spec.base),
            "throat": _fmt(spec.throat),
            "center": _fmt(spec.center),
            "halfwidth": _fmt(spec.halfwidth),
        }
    if isinstance(spec, FillFraction):
        return {"kind": "fill_fraction", "fraction": _fmt(spec.fraction)}
    raise ParameterError(f"cannot serialize profile {spec!r}")


def _parse_law(sec):
    kind = sec.choice("kind", set(_LAW_KEYS), required=True)
    if kind is None:
        return None
    cls = LAW_KINDS[kind]
    vals = {}
    for f in fields(cls):
        required = f.default is MISSING
        v = sec.floatval(f.name, required=required)
        if v is not None:
            vals[f.name] = v
        elif required:
            return None
    try:
        return cls(**vals)
    except ParameterError as exc:
        sec._flag("kind", str(exc))
        return None


def _law_raw(law):
    kind = law.kind
    out = {"kind": kind}
    for key in _LAW_KEYS[kind]:
        out[key] = _fmt(getattr(law, key))
    return out


def _scenario_defaults(name):
    scen = make_scenario(name)
    raw = {
        "scenario": {},
        "grid": {"extent": _fmt(scen.grid.extents), "cells": _fmt(scen.grid.cells)},
        "barrier": _profile_raw(scen.barrier_spec),
        "pressure": _law_raw(scen.law),
        "fluid": {
            "mu": _fmt(scen.fluid.mu),
            "lambda": _fmt(scen.fluid.lam),
            "gamma": _fmt(scen.fluid.gamma),
        },
        "solver": {
            "t_end": _fmt(scen.t_end),
            "snapshot_every": _fmt(scen.snapshot_every),
        },
        "output": {"dir": f"runs/{name}"},
    }
    if scen.initial_spec is not None:
        initial = _profile_raw(scen.initial_spec.profile)
        raw["scenario"].update({f"initial_{k}": v for k, v in initial.items()})
        raw["scenario"]["velocity"] = _fmt(scen.initial_spec.velocity)
    return raw


def apply_overrides(raw, overrides, issues):
    for item in overrides:
        if "=" not in item:
            issues.add("override", item, "expected section.key=value")
            continue
        path, value = item.split("=", 1)
        if "." not in path:
            issues.add("override", item, "expected section.key=value")
            continue
        section, key = path.strip().lower().split(".", 1)
        raw.setdefault(section, {})[key.strip()] = value.strip()
    return raw


def _prune_stale_shape_defaults(defaults, raw):
    """Drop scenario-default shape keys that a user-chosen kind invalidates.

    Scenario defaults carry the shape parameters of their own profile and
    pressure kinds.  When a config switches the kind, parameters that do not
    carry over would otherwise linger and surface as unknown-key errors, so
    only the ones the new kind also accepts are kept.
    """
    aliases = {"uniform": "constant"}
    spots = (
        ("barrier", "kind", "", _PROFILE_KEYS),
        ("pressure", "kind", "", _LAW_KEYS),
        ("scenario", "initial_kind", "initial_", _PROFILE_KEYS),
    )
    for section, kind_key, prefix, table in spots:
        dft = defaults.get(section)
        chosen = raw.get(section, {}).get(kind_key)
        if not dft or chosen is None or kind_key not in dft:
            continue
        chosen = aliases.get(chosen.strip(), chosen.strip())
        if chosen == aliases.get(dft[kind_key].strip(), dft[kind_key].strip()):
            continue
        allowed = {prefix + k for k in table.get(chosen, ())}
        kept = {}
        for key, value in dft.items():
            if key == kind_key:
                continue
            shape_key = key.startswith(prefix) if prefix else True
            if shape_key and key not in allowed:
                continue
            kept[key] = value
        defaults[section] = kept


def parse_config(text, overrides=()):
    """Parse config text into a fully resolved RunConfig."""
    raw, linemap = _read_raw(text)
    issues = _Issues(linemap)
    raw = apply_overrides(raw, overrides, issues)

    scen_data = raw.get("scenario", {})
    name = scen_data.get("name", "").strip()
    if not name:
        issues.add("scenario", "name", "required key is missing")
        issues.raise_if_any()
    if name != "custom" and name not in SCENARIO_NAMES:
        issues.add(
            "scenario", "name", f"unknown scenario {name!r}; known: {', '.join(SCENARIO_NAMES)} or custom"
        )
        issues.raise_if_any()

    defaults = _scenario_defaults(name) if name != "custom" else {"output": {"dir": "runs/custom"}}
    _prune_stale_shape_defaults(defaults, raw)
    merged = {}
    for section in set(defaults) | set(raw):
        merged[section] = {**defaults.get(section, {}), **raw.get(section, {})}
    for section in merged:
        if section not in SECTION_ORDER:
            issues.add(section, "", "unknown section")
    issues.raise_if_any()

    grid_sec = _Section("grid", merged.get("grid", {}), issues)
    cells = grid_sec.ints("cells", required=True)
    grid = None
    if cells:
        dim = len(cells)
        extent = _broadcast(grid_sec.floats("extent", (1.0,)), dim, "grid", "extent", issues)
        try:
            grid = Grid(extents=extent, cells=cells)
        except ParameterError as exc:
            issues.add("grid", "cells", str(exc))
    grid_sec.flag_unknown()
    dim = len(cells) if cells else 1

    bar_sec = _Section("barrier", merged.get("barrier", {}), issues)
    if not bar_sec.data:
        issues.add("barrier", "kind", "required section is missing")
        barrier = None
    else:
        barrier = _parse_profile(bar_sec, dim, allow_fill=False)
        bar_sec.flag_unknown()

    law_sec = _Section("pressure", merged.get("pressure", {}), issues)
    if not law_sec.data:
        issues.add("pressure", "kind", "required section is missing")
        law = None
    else:
        law = _parse_law(law_sec)
        law_sec.flag_unknown()

    fluid_sec = _Section("fluid", merged.get("fluid", {}), issues)
    fluid = None
    mu = fluid_sec.floatval("mu", required=True)
    lam = fluid_sec.floatval("lambda", 0.0)
    gamma = fluid_sec.floatval("gamma", required=True)
    if mu is not None and gamma is not None:
        try:
            fluid = FluidParams(mu=mu, lam=lam, gamma=gamma)
        except ParameterError as exc:
            issues.add("fluid", "mu", str(exc))
    fluid_sec.flag_unknown()

    sol_sec = _Section("solver", merged.get("solver", {}), issues)
    solver = None
    t_end = sol_sec.floatval("t_end", required=True)
    cfl = sol_sec.floatval("cfl", 0.4)
    barrier_tol = sol_sec.floatval("barrier_tol", 1e-6)
    max_substeps = sol_sec.intval("max_substeps", 40)
    snapshot_every = sol_sec.floatval("snapshot_every", 0.01)
    force_form = sol_sec.choice("force_form", set(FORCE_FORMS), "potential")
    if t_end is not None:
        try:
            solver = SolverConfig(
                t_end=t_end,
                cfl=cfl,
                barrier_tol=barrier_tol,
                max_substeps=max_substeps,
                snapshot_every=snapshot_every,
                force_form=force_form or "potential",
            )
        except ParameterError as exc:
            issues.add("solver", "t_end", str(exc))
    sol_sec.flag_unknown()

    out_sec = _Section("output", merged.get("output", {}), issues)
    out_dir = out_sec.raw("dir", f"runs/{name}")
    fields_every = out_sec.floatval("fields_every", 0.0)
    if fields_every is not None and fields_every < 0:
        issues.add("output", "fields_every", "must be nonnegative")
    out_sec.flag_unknown()

    scen_sec = _Section("scenario", merged.get("scenario", {}), issues)
    scen_sec.raw("name")
    initial = None
    has_initial = any(k.startswith("initial_") for k in scen_sec.data)
    is_manufactured = name == "manufactured_1d"
    if is_manufactured:
        if any(k.startswith("initial_") for k in raw.get("scenario", {})):
            issues.add(
                "scenario", "initial_kind",
                "manufactured scenario does not take an initial profile",
            )
        for k in list(scen_sec.data):
            if k.startswith("initial_"):
                scen_sec.seen.add(k)
    elif has_initial:
        inner = {
            k[len("initial_"):]: v for k, v in scen_sec.data.items() if k.startswith("initial_")
        }
        for k in list(scen_sec.data):
            if k.startswith("initial_"):
                scen_sec.seen.add(k)
        prof_sec = _Section("scenario", inner, issues, prefix="initial_")
        profile = _parse_profile(prof_sec, dim, allow_fill=True)
        prof_sec.flag_unknown()
        velocity = _broadcast(
            scen_sec.floats("velocity", (0.0,)), dim, "scenario", "velocity", issues
        )
        if profile is not None and velocity is not None:
            initial = InitialSpec(profile=profile, velocity=velocity)
    else:
        issues.add("scenario", "initial_kind", "required key is missing")
    scen_sec.raw("velocity")
    scen_sec.flag_unknown()

    sweep = None
    if "sweep" in merged and merged["sweep"]:
        sw_sec = _Section("sweep", merged["sweep"], issues)
        kind = sw_sec.choice("kind", {"eps", "kappa_delta"}, required=True)
        if kind == "eps":
            values = sw_sec.floats("values", required=True)
            if values is not None:
                if not values:
                    issues.add("sweep", "values", "needs at least one value")
                elif law is not None and law.kind not in ("singular", "truncated"):
                    issues.add("sweep", "kind", "eps sweep needs a singular or truncated law")
                elif any(v <= 0 for v in values):
                    issues.add("sweep", "values", "stiffness values must be positive")
                else:
                    sweep = SweepPlan(kind="eps", values=tuple(values))
        elif kind == "kappa_delta":
            raw_pairs = sw_sec.raw("pairs", required=True)
            if raw_pairs is not None:
                pairs, bad = [], False
                try:
                    for part in raw_pairs.split(","):
                        if not part.strip():
                            continue
                        k, d = part.split(":")
                        pairs.append((float(k), float(d)))
                except ValueError:
                    issues.add("sweep", "pairs", f"expected kappa:delta pairs, got {raw_pairs!r}")
                    bad = True
                if not bad:
                    if not pairs:
                        issues.add("sweep", "pairs", "needs at least one kappa:delta pair")
                    elif law is not None and law.kind != "truncated":
                        issues.add("sweep", "kind", "kappa_delta sweep needs a truncated law")
                    else:
                        sweep = SweepPlan(kind="kappa_delta", values=tuple(pairs))
        sw_sec.flag_unknown()

    issues.raise_if_any()
    return RunConfig(
        scenario_name=name,
        grid=grid,
        barrier=barrier,
        initial=initial,
        law=law,
        fluid=fluid,
        solver=solver,
        out_dir=out_dir,
        fields_every=fields_every,
        sweep=sweep,
    )


def parse_config_file(path, overrides=()):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, overrides)


def serialize_config(cfg):
    """Canonical INI text; parsing it back yields an equal RunConfig."""
    cp = configparser.ConfigParser(interpolation=None)
    cp["scenario"] = {"name": cfg.scenario_name}
    if cfg.initial is not None:
        for k, v in _profile_raw(cfg.initial.profile).items():
            cp["scenario"][f"initial_{k}"] = v
        cp["scenario"]["velocity"] = _fmt(cfg.initial.velocity)
    cp["grid"] = {"extent": _fmt(cfg.grid.extents), "cells": _fmt(cfg.grid.cells)}
    cp["barrier"] = _profile_raw(cfg.barrier)
    cp["pressure"] = _law_raw(cfg.law)
    cp["fluid"] = {
        "mu": _fmt(cfg.fluid.mu),
        "lambda": _fmt(cfg.fluid.lam),
        "gamma": _fmt(cfg.fluid.gamma),
    }
    cp["solver"] = {
        "t_end": _fmt(cfg.solver.t_end),
        "cfl": _fmt(cfg.solver.cfl),
        "barrier_tol": _fmt(cfg.solver.barrier_tol),
        "max_substeps": str(cfg.solver.max_substeps),
        "snapshot_every": _fmt(cfg.solver.snapshot_every),
        "force_form": cfg.solver.force_form,
    }
    cp["output"] = {
        "dir": cfg.out_dir,
        "fields_every": _fmt(cfg.fields_every),
    }
    if cfg.sweep is not None:
        if cfg.sweep.kind == "eps":
            cp["sweep"] = {"kind": "eps", "values": _fmt(cfg.sweep.values)}
        else:
            cp["sweep"] = {
                "kind": "kappa_delta",
                "pairs": ", ".join(f"{_fmt(k)}:{_fmt(d)}" for k, d in cfg.sweep.values),
            }
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def config_to_dict(cfg):
    """Plain-types view of a config (for meta.json)."""
    out = {
        "scenario": cfg.scenario_name,
        "grid": {"extent": list(cfg.grid.extents), "cells": list(cfg.grid.cells)},
        "barrier": _profile_raw(cfg.barrier),
        "pressure": _law_raw(cfg.law),
        "fluid": {"mu": cfg.fluid.mu, "lambda": cfg.fluid.lam, "gamma": cfg.fluid.gamma},
        "solver": {
            "t_end": cfg.solver.t_end,
            "cfl": cfg.solver.cfl,
            "barrier_tol": cfg.solver.barrier_tol,
            "max_substeps": cfg.solver.max_substeps,
            "snapshot_every": cfg.solver.snapshot_every,
            "force_form": cfg.solver.force_form,
        },
        "output": {"dir": cfg.out_dir, "fields_every": cfg.fields_every},
    }
    if cfg.initial is not None:
        out["initial"] = _profile_raw(cfg.initial.profile)
        out["initial"]["velocity"] = list(cfg.initial.velocity)
    if cfg.sweep is not None:
        out["sweep"] = {"kind": cfg.sweep.kind, "values": [list(np.atleast_1d(v)) for v in cfg.sweep.values]}
    return out
