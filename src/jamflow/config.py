"""INI config schema: parsing, validation, canonical serialization.

A config names a scenario and optionally overrides any of its pieces;
``name = custom`` builds everything from explicit sections.  Parsing a
serialized config reproduces the config exactly (round-trip identity),
which is also what makes ``meta.json`` reproducible.

The spec sections (barrier, initial profile, pressure, fluid, solver) are
read and written from the fields of their dataclasses: a ``kind`` picks the
class from ``PROFILE_KINDS`` or ``LAW_KINDS``, a field without a default is
a required key, and its type picks the reader.  Field metadata carries the
rest: an INI key that differs from the field name and a config default the
dataclass cannot hold.
"""

from __future__ import annotations

import configparser
import io
import math
import re
from dataclasses import MISSING, dataclass, fields, replace
from functools import cached_property, lru_cache

from .domain import Grid
from .errors import IoError, ParameterError, ParseError, ValidationError
from .pressure import LAW_KINDS, FluidParams
from .scenarios import PRESETS, PROFILE_KINDS, FillFraction, InitialSpec, SCENARIO_NAMES
from .solver import SolverConfig

SECTION_ORDER = ("scenario", "grid", "barrier", "pressure", "fluid", "solver", "output", "sweep")

_ALIASES = {"uniform": "constant"}
_BARRIER_KINDS = {k: cls for k, cls in PROFILE_KINDS.items() if cls is not FillFraction}


@dataclass(frozen=True)
class SweepPlan:
    kind: str  # "eps" | "kappa_delta"
    values: tuple  # floats for eps, (kappa, delta) pairs otherwise

    def members(self):
        """``(label, value, law fields)`` per member, stiffest first.

        An eps member is labelled and ordered by its eps, a kappa_delta
        member by its delta; the label names the member's run directory.
        """
        if self.kind == "eps":
            eps = sorted(self.values, reverse=True)
            return [(f"eps_{v:g}", float(v), {"eps": float(v)}) for v in eps]
        pairs = sorted(self.values, key=lambda p: p[1], reverse=True)
        return [(f"delta_{d:g}", float(d), {"kappa": float(k), "delta": float(d)}) for k, d in pairs]


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


def _fmt(value, sep=", "):
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        # sweep pairs are the one nested value: "1.0:0.1, 2.0:0.05"
        return sep.join(_fmt(v, ":") for v in value)
    return str(value)


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


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
    return {s.lower(): {k: v for k, v in cp.items(s)} for s in cp.sections()}


class _Issues:
    def __init__(self, text):
        self.text = text
        self.items = []

    @cached_property
    def linemap(self):
        # only a config with issues needs line numbers
        return _line_map(self.text)

    def add(self, section, key, reason):
        line = self.linemap.get((section, key), 0)
        self.items.append((f"{section}.{key}" if key else section, line, reason))

    def raise_if_any(self):
        if self.items:
            raise ValidationError(self.items)


def _floats(raw):
    return tuple(float(p) for p in raw.split(",") if p.strip())


def _ints(raw):
    return tuple(int(p) for p in raw.split(",") if p.strip())


def _pairs(raw):
    parts = (p.split(":") for p in raw.split(",") if p.strip())
    return tuple((float(k), float(d)) for k, d in parts)


class _Section:
    def __init__(self, name, data, issues, prefix=""):
        self.name = name
        self.data = dict(data)
        self.issues = issues
        self.prefix = prefix
        self.seen = set()

    def _flag(self, key, reason):
        self.issues.add(self.name, self.prefix + key, reason)

    def raw(self, key, default=None, required=False):
        self.seen.add(key)
        if key in self.data:
            return self.data[key].strip()
        if required:
            self._flag(key, "required key is missing")
        return default

    def read(self, key, convert, expected, default=None, required=False):
        raw = self.raw(key, None, required)
        if raw is None:
            return default
        try:
            return convert(raw)
        except ValueError:
            self._flag(key, f"expected {expected}, got {raw!r}")
            return default

    def floatval(self, key, default=None, required=False):
        return self.read(key, float, "a number", default, required)

    def intval(self, key, default=None, required=False):
        return self.read(key, int, "an integer", default, required)

    def floats(self, key, default=None, required=False):
        return self.read(key, _floats, "comma-separated numbers", default, required)

    def ints(self, key, default=None, required=False):
        return self.read(key, _ints, "comma-separated integers", default, required)

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


def _broadcast(values, dim, sec, key):
    if values is None:
        return None
    if len(values) == 1 and dim > 1:
        return values * dim
    if len(values) != dim:
        sec._flag(key, f"expected 1 or {dim} values, got {len(values)}")
        return values[:dim] if len(values) > dim else values + values[-1:] * (dim - len(values))
    return values


# every parse asks for the fields of the same few classes; fields() rebuilds its tuple
_fields = lru_cache(maxsize=None)(fields)


def _key(f):
    return f.metadata.get("key", f.name)


def _read_field(sec, f, dim):
    """Read one field; its type picks the reader, its default whether it is required."""
    default = f.metadata.get("default", f.default)
    required = default is MISSING
    default = None if required else default
    key = _key(f)
    if f.type == "int":
        return sec.intval(key, default, required)
    if f.type.startswith("tuple"):
        return _broadcast(sec.floats(key, default, required), dim, sec, key)
    return sec.floatval(key, default, required)


def _flag_error(sec, cls, exc):
    """Flag a constructor error of ``cls`` at the key of the field it names."""
    sec._flag({f.name: _key(f) for f in _fields(cls)}[exc.key], str(exc))


def _build(sec, cls, dim=1):
    """Construct ``cls`` from its fields; a constructor error lands on its field's key."""
    vals = {f.name: _read_field(sec, f, dim) for f in _fields(cls)}
    if None in vals.values():
        return None
    try:
        return cls(**vals)
    except ParameterError as exc:
        _flag_error(sec, cls, exc)
        return None


def _parse_spec(sec, kinds, dim):
    """A ``kind`` key naming a dataclass in ``kinds``, then that class's fields."""
    if not sec.data:
        sec._flag("kind", "required section is missing")
        return None
    raw_kind = sec.raw("kind", required=True)
    if raw_kind is None:
        return None
    kind = _ALIASES.get(raw_kind, raw_kind)
    if kind not in kinds:
        sec._flag("kind", f"must be one of {sorted(kinds)}, got {raw_kind!r}")
        return None
    return _build(sec, kinds[kind], dim)


def _spec_raw(spec):
    """A spec's keys and typed values, ``kind`` first when it has one."""
    head = {"kind": spec.kind} if hasattr(spec, "kind") else {}
    return {**head, **{_key(f): getattr(spec, f.name) for f in _fields(type(spec))}}


def _sections(cfg):
    """Every INI section of a config as {key: typed value}, in SECTION_ORDER."""
    scenario = {"name": cfg.scenario_name}
    if cfg.initial is not None:
        scenario.update({f"initial_{k}": v for k, v in _spec_raw(cfg.initial.profile).items()})
        scenario["velocity"] = cfg.initial.velocity
    out = {
        "scenario": scenario,
        "grid": {"extent": cfg.grid.extents, "cells": cfg.grid.cells},
        "barrier": _spec_raw(cfg.barrier),
        "pressure": _spec_raw(cfg.law),
        "fluid": _spec_raw(cfg.fluid),
        "solver": _spec_raw(cfg.solver),
        "output": {"dir": cfg.out_dir, "fields_every": cfg.fields_every},
    }
    if cfg.sweep is not None:
        key = "values" if cfg.sweep.kind == "eps" else "pairs"
        out["sweep"] = {"kind": cfg.sweep.kind, key: cfg.sweep.values}
    return out


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
    """Drop preset shape keys that a user-chosen kind invalidates.

    Presets carry the shape parameters of their own profile and
    pressure kinds.  When a config switches the kind, parameters that do not
    carry over would otherwise linger and surface as unknown-key errors, so
    only the ones the new kind also accepts are kept.
    """
    spots = (
        ("barrier", "kind", "", _BARRIER_KINDS),
        ("pressure", "kind", "", LAW_KINDS),
        ("scenario", "initial_kind", "initial_", PROFILE_KINDS),
    )
    for section, kind_key, prefix, kinds in spots:
        dft = defaults.get(section)
        chosen = raw.get(section, {}).get(kind_key)
        if not dft or chosen is None or kind_key not in dft:
            continue
        chosen = _ALIASES.get(chosen.strip(), chosen.strip())
        if chosen == _ALIASES.get(dft[kind_key].strip(), dft[kind_key].strip()):
            continue
        allowed = {prefix + _key(f) for f in _fields(kinds[chosen])} if chosen in kinds else set()
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
    raw = _read_raw(text)
    issues = _Issues(text)
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

    defaults = _read_raw(PRESETS[name][1]) if name != "custom" else {}
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
    extent = grid_sec.floats("extent", (1.0,))
    grid = None
    if cells:
        dim = len(cells)
        extent = _broadcast(extent, dim, grid_sec, "extent")
        try:
            grid = Grid(extents=extent, cells=cells)
        except ParameterError as exc:
            _flag_error(grid_sec, Grid, exc)
    grid_sec.flag_unknown()
    dim = len(cells) if cells else 1

    def parsed(section, parse, *args):
        sec = _Section(section, merged.get(section, {}), issues)
        value = parse(sec, *args)
        sec.flag_unknown()
        return value

    barrier = parsed("barrier", _parse_spec, _BARRIER_KINDS, dim)
    law = parsed("pressure", _parse_spec, LAW_KINDS, dim)
    fluid = parsed("fluid", _build, FluidParams)
    solver = parsed("solver", _build, SolverConfig)

    out_sec = _Section("output", merged.get("output", {}), issues)
    out_dir = out_sec.raw("dir", f"runs/{name}")
    fields_every = out_sec.floatval("fields_every", 0.0)
    if not math.isfinite(fields_every):
        issues.add("output", "fields_every", f"must be finite, got {fields_every}")
    elif fields_every < 0:
        issues.add("output", "fields_every", "must be nonnegative")
    out_sec.flag_unknown()

    scen_sec = _Section("scenario", merged.get("scenario", {}), issues)
    scen_sec.raw("name")
    initial = None
    inner = {k.removeprefix("initial_"): v for k, v in scen_sec.data.items() if k.startswith("initial_")}
    scen_sec.seen.update(f"initial_{k}" for k in inner)
    if name == "manufactured_1d":
        if any(k.startswith("initial_") for k in raw.get("scenario", {})):
            issues.add(
                "scenario", "initial_kind",
                "manufactured scenario does not take an initial profile",
            )
    elif inner:
        prof_sec = _Section("scenario", inner, issues, prefix="initial_")
        profile = _parse_spec(prof_sec, PROFILE_KINDS, dim)
        prof_sec.flag_unknown()
        velocity = _broadcast(scen_sec.floats("velocity", (0.0,)), dim, scen_sec, "velocity")
        if profile is not None and velocity is not None:
            initial = InitialSpec(profile=profile, velocity=velocity)
    else:
        issues.add("scenario", "initial_kind", "required key is missing")
    scen_sec.raw("velocity")
    scen_sec.flag_unknown()

    sweep = None
    if merged.get("sweep"):
        sw_sec = _Section("sweep", merged["sweep"], issues)
        kind = sw_sec.choice("kind", {"eps", "kappa_delta"}, required=True)
        if kind == "eps":
            values = sw_sec.floats("values", required=True)
            if values is not None:
                if not values:
                    issues.add("sweep", "values", "needs at least one value")
                elif law is not None and law.kind not in ("singular", "truncated"):
                    issues.add("sweep", "kind", "eps sweep needs a singular or truncated law")
                elif not all(math.isfinite(v) for v in values):
                    issues.add("sweep", "values", "stiffness values must be finite")
                else:
                    sweep = SweepPlan(kind="eps", values=values)
        elif kind == "kappa_delta":
            pairs = sw_sec.read("pairs", _pairs, "kappa:delta pairs", required=True)
            if pairs is not None:
                if not pairs:
                    issues.add("sweep", "pairs", "needs at least one kappa:delta pair")
                elif law is not None and law.kind != "truncated":
                    issues.add("sweep", "kind", "kappa_delta sweep needs a truncated law")
                elif not all(math.isfinite(v) for pair in pairs for v in pair):
                    issues.add("sweep", "pairs", "kappa:delta pairs must be finite")
                else:
                    sweep = SweepPlan(kind="kappa_delta", values=pairs)
        if sweep is not None:
            key = "values" if sweep.kind == "eps" else "pairs"
            labels = [label for label, _, _ in sweep.members()]
            shared = sorted({label for label in labels if labels.count(label) > 1})
            if shared:
                issues.add("sweep", key, f"members would share a run directory: {', '.join(shared)}")
            # a member law that cannot be built fails the config, not the run
            for label, _, law_fields in sweep.members() if law is not None else ():
                try:
                    replace(law, **law_fields)
                except ParameterError as exc:
                    issues.add("sweep", key, f"member {label}: {exc}")
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
    for section, items in _sections(cfg).items():
        cp[section] = {k: _fmt(v) for k, v in items.items()}
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def config_to_dict(cfg):
    """Plain-types view of a config (for meta.json): numbers, lists for tuples."""
    out = _plain(_sections(cfg))
    scenario, sweep = out.pop("scenario"), out.pop("sweep", None)
    out = {"scenario": scenario.pop("name"), **out}
    if scenario:
        out["initial"] = {k.removeprefix("initial_"): v for k, v in scenario.items()}
    if sweep is not None:
        # eps values as one-element lists, matching the kappa:delta pairs
        members = sweep.get("values", sweep.get("pairs"))
        out["sweep"] = {"kind": sweep["kind"], "values": [m if isinstance(m, list) else [m] for m in members]}
    return out
