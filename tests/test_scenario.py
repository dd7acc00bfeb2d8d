"""The axis table: every accepted axis reaches the run and its key."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError, ProtocolError
from repro.experiments.cache import usecase_key
from repro.experiments.scenario import (
    AXES,
    COMMANDS,
    KINDS,
    canonical,
    options_from_params,
    spec_from_params,
)
from repro.experiments.sweep import SweepSpec, default_grid
from repro.experiments.usecase import UseCase
from repro.service.executor import _point_job
from repro.service.protocol import parse_job

L2_SPEC = "4:16:4096:10"

#: A non-default value per axis (baselines flip per kind below).
NON_DEFAULT = {
    "program": "fdct",
    "config": "k13",
    "tech": "32nm",
    "l2": L2_SPEC,
    "budget": 7,
    "seed": 5,
    "kernel": "python",
    "refine": True,
}

#: Minimal valid params of each kind.
BASE = {
    "optimize": {"program": "bs", "config": "k1"},
    "usecase": {"program": "bs", "config": "k1"},
    "sweep": {"programs": ["bs"], "configs": ["k1"], "techs": ["45nm"]},
}

#: The case-row axes, and the ``UseCase`` attribute each one sets.
ROW_ATTRS = {"program": "program", "config": "config_id", "tech": "tech",
             "l2": "l2"}


def _built(kind, payload):
    """``(use cases, seed, options, keys)`` as the executor and the
    sweep engine build them from a job's params."""
    params = parse_job({"kind": kind, "params": payload}).params_dict()
    if kind == "sweep":
        spec = spec_from_params(params)
        cases, seed, options = (spec.usecases(), spec.seed,
                                spec.optimizer_options())
    else:
        usecase, options, _ = _point_job(params)
        cases, seed = [usecase], params["seed"]
    return cases, seed, options, [usecase_key(c, seed, options)
                                  for c in cases]


def _walk():
    """``(kind, field, axis)`` for every axis a kind accepts."""
    for kind, fields in KINDS.items():
        for field in fields:
            yield kind, field.name, field.axis


def _with(kind, name, axis, base_baseline):
    """``BASE[kind]`` with one axis set to a non-default value."""
    payload = dict(BASE[kind])
    value = NON_DEFAULT.get(axis)
    if axis == "baseline":
        value = "classic" if base_baseline == "persistence" else "persistence"
    field = next(f for f in KINDS[kind] if f.name == name)
    payload[name] = [value] if field.many else value
    return payload, value


@pytest.mark.parametrize("kind,name,axis", list(_walk()))
def test_every_accepted_axis_reaches_the_run_and_the_key(kind, name, axis):
    _, base_seed, _, base_keys = _built(kind, BASE[kind])
    base_params = parse_job({"kind": kind, "params": BASE[kind]}).params_dict()
    payload, value = _with(kind, name, axis, base_params.get("baseline"))
    cases, seed, options, keys = _built(kind, payload)

    if axis in ROW_ATTRS:
        assert getattr(cases[0], ROW_ATTRS[axis]) == value
    elif axis == "seed":
        assert seed == value != base_seed
    elif axis == "baseline":
        assert options.with_persistence is (value == "persistence")
    else:
        assert getattr(options, AXES[axis].option) == value
    assert keys != base_keys


def test_every_axis_is_accepted_somewhere():
    walked = {axis for _, _, axis in _walk()}
    assert walked == set(AXES)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_omit_when_default_axes_stay_out_of_the_canonical_form(kind):
    names = dict(canonical(kind, BASE[kind]))
    for field in KINDS[kind]:
        if AXES[field.axis].omit_default:
            assert field.name not in names
        else:
            assert field.name in names


def test_point_kinds_take_neither_kernel_nor_l2():
    for kind in ("optimize", "usecase"):
        names = {f.name for f in KINDS[kind]}
        assert not names & {"kernel", "l2"}


def test_spec_from_params_fills_the_sweep_defaults():
    spec = spec_from_params({})
    grid = default_grid()
    assert (spec.programs, spec.config_ids, spec.techs) == (
        grid.programs, grid.config_ids, grid.techs)
    assert (spec.seed, spec.max_evaluations, spec.baseline) == (
        1, 120, "classic")
    assert (spec.kernel, spec.l2_specs, spec.refine) == (None, (None,), False)
    assert spec_from_params({"l2": [], "programs": None}) == spec


def test_canonical_params_rebuild_the_same_spec():
    payload = {"programs": ["p2"], "configs": ["k1"], "techs": ["45nm"],
               "kernel": "python", "l2": [None, L2_SPEC], "refine": True,
               "budget": 9, "seed": 3, "baseline": "persistence"}
    params = parse_job({"kind": "sweep", "params": payload}).params_dict()
    assert spec_from_params(params) == SweepSpec(
        programs=("bs",), config_ids=("k1",), techs=("45nm",), seed=3,
        max_evaluations=9, baseline="persistence", kernel="python",
        l2_specs=(None, L2_SPEC), refine=True)


@pytest.mark.parametrize("bad,needle", [
    ({"baseline": "modern"}, "baseline"),
    ({"kernel": "fortran"}, "kernel"),
    ({"l2_specs": ()}, "l2_specs"),
    ({"l2_specs": ("1:2:3",)}, "l2_specs[0]"),
])
def test_sweep_spec_validates_with_the_table(bad, needle):
    with pytest.raises(ExperimentError, match=needle.replace("[", r"\[")):
        SweepSpec(("bs",), ("k1",), ("45nm",), **bad)


def test_sweep_kernel_is_part_of_the_fingerprint():
    plain = parse_job({"kind": "sweep", "params": {}})
    vector = parse_job({"kind": "sweep", "params": {"kernel": "vectorized"}})
    assert plain.fingerprint() != vector.fingerprint()
    with pytest.raises(ProtocolError):
        parse_job({"kind": "sweep", "params": {"kernel": "fortran"}})


def test_options_default_like_optimizer_options():
    from repro.core.optimizer import OptimizerOptions

    assert options_from_params({}) == OptimizerOptions()


def test_cli_commands_use_table_axes():
    for command, fields in COMMANDS.items():
        assert {f.axis for f in fields} <= set(AXES), command


def test_row_round_trip():
    single = UseCase("bs", "k1", "45nm")
    double = UseCase("bs", "k1", "45nm", L2_SPEC)
    assert single.row() == ["bs", "k1", "45nm"]
    assert double.row() == ["bs", "k1", "45nm", L2_SPEC]
    assert UseCase.from_row(double.row()) == double
    assert UseCase.from_row(["bs", "k1", "45nm", None]) == single
