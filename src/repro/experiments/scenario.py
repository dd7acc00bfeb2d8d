"""Use-case identity: the one table from request parameters to a run.

A use-case evaluation is ``(UseCase, seed, OptimizerOptions)``, and
every surface that names one — job requests, sweep specs, CLI flags,
disk-cache keys — derives it from this module.

* :data:`AXES` has one row per result-affecting axis: its validator,
  its CLI help and argparse settings, the :class:`OptimizerOptions`
  field it sets, and its canonical-form rule.  The rule is either
  *always present* or *omit when default*: the axis joins a canonical
  form (job params, the case row, the options fingerprint) only when
  its value is set, so every key minted before the axis existed stays
  byte-identical.  A new axis is always "omit when default".
* :data:`KINDS` lists the fields each job kind accepts, and
  :data:`COMMANDS` the fields each CLI command takes, with defaults.
* :func:`canonical` validates a kind's params into its canonical form;
  :func:`options_from_params` and :func:`spec_from_params` build the
  optimizer options and the sweep spec from params.

Adding an axis means one :data:`AXES` row, the kinds/commands that
accept it, and the consumer that reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.bench.registry import TABLE1, program_names
from repro.cache.config import TABLE2, parse_l2_spec
from repro.core.optimizer import OptimizerOptions
from repro.energy.technology import TECHNOLOGIES
from repro.errors import CacheConfigError, ExperimentError, ProtocolError

#: Hard cap on the optimization budget a single request may ask for.
MAX_BUDGET = 100_000

BASELINES = ("classic", "persistence")


# ----------------------------------------------------------------------
# validators: (field path, raw value) -> canonical value
# ----------------------------------------------------------------------
def _fail(path: str, message: str) -> ProtocolError:
    return ProtocolError(f"{path}: {message}")


def _program(path: str, value: Any) -> str:
    if not isinstance(value, str):
        raise _fail(path, f"expected a program name, got {value!r}")
    if value in TABLE1:  # Table 1 ids ("p1".."p37") are accepted too
        return TABLE1[value]
    if value not in program_names():
        raise _fail(path, f"unknown program {value!r}")
    return value


def _config(path: str, value: Any) -> str:
    if not isinstance(value, str) or value not in TABLE2:
        raise _fail(path, f"unknown cache configuration {value!r} "
                          f"(expected a Table 2 id, e.g. 'k1')")
    return value


def _tech(path: str, value: Any) -> str:
    if not isinstance(value, str) or value not in TECHNOLOGIES:
        raise _fail(path, f"unknown technology {value!r} "
                          f"(expected one of {sorted(TECHNOLOGIES)})")
    return value


def _l2(path: str, value: Any) -> Optional[str]:
    if value is None:
        return None
    if not isinstance(value, str):
        raise _fail(path, f"expected an assoc:block:capacity:latency "
                          f"L2 spec or null, got {value!r}")
    try:
        parse_l2_spec(value)
    except CacheConfigError as exc:
        raise _fail(path, str(exc)) from None
    return value


def _baseline(path: str, value: Any) -> str:
    if value not in BASELINES:
        raise _fail(path, f"expected one of {BASELINES}, got {value!r}")
    return value


def resolve_int(path: str, value: Any, minimum: int,
                maximum: Optional[int] = None) -> int:
    """An integer within ``[minimum, maximum]`` (booleans rejected)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, f"expected an integer, got {value!r}")
    if value < minimum:
        raise _fail(path, f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise _fail(path, f"must be <= {maximum}, got {value}")
    return value


def _budget(path: str, value: Any) -> Optional[int]:
    if value is None:
        return None
    return resolve_int(path, value, minimum=1, maximum=MAX_BUDGET)


def _seed(path: str, value: Any) -> int:
    return resolve_int(path, value, minimum=0)


def _refine(path: str, value: Any) -> bool:
    if value is None:
        return False
    if not isinstance(value, bool):
        raise _fail(path, f"expected a boolean or null, got {value!r}")
    return value


# ----------------------------------------------------------------------
# the axis table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Axis:
    """One result-affecting dimension of a use-case evaluation.

    Attributes:
        name: Field name in job params and CLI flags.
        resolve: Validator; raises :class:`ProtocolError` naming the path.
        help: CLI help text.
        omit_default: The canonical-form rule: ``False`` = always
            present, ``True`` = joins only when set (not None/False).
        option: The :class:`OptimizerOptions` field it sets, if any.
        cli: Extra argparse settings.
        list_of: How a list of this axis is described in errors.
    """

    name: str
    resolve: Callable[[str, Any], Any]
    help: str
    omit_default: bool = False
    option: Optional[str] = None
    cli: Mapping[str, Any] = field(default_factory=dict)
    list_of: str = "a non-empty list"


AXES: Dict[str, Axis] = {axis.name: axis for axis in (
    Axis("program", _program, "program name or Table 1 id"),
    Axis("config", _config, "Table 2 id, e.g. k1"),
    Axis("tech", _tech, "technology node",
         cli={"choices": sorted(TECHNOLOGIES)}),
    # The use case, not the options, carries l2 into keys: the case
    # row gains a fourth element only for a two-level hierarchy.
    Axis("l2", _l2, "second-level cache as assoc:block:capacity:latency "
                    "(e.g. 4:16:4096:6); default: single-level memory system",
         omit_default=True, cli={"metavar": "SPEC"},
         list_of="a non-empty list of L2 specs "
                 "(null entries mean single-level)"),
    Axis("baseline", _baseline, "analysis fidelity (see EXPERIMENTS.md)",
         option="with_persistence", cli={"choices": BASELINES}),
    Axis("budget", _budget, "optimization budget (candidate evaluations)",
         option="max_evaluations", cli={"type": int, "metavar": "N"}),
    Axis("seed", _seed, "executor seed of the ACET simulations",
         cli={"type": int}),
    Axis("refine", _refine, "model-check the NOT_CLASSIFIED references "
                            "(bounded concrete-state exploration) and "
                            "promote the decided ones to always-hit/"
                            "always-miss before placement",
         omit_default=True, option="refine",
         cli={"action": "store_true"}),
)}


# ----------------------------------------------------------------------
# per-kind and per-command field lists
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Field:
    """One parameter of a request kind or CLI command.

    ``axis`` is a key of :data:`AXES`; ``many`` fields take a non-empty
    list of axis values, and a missing or null one means ``default``.
    A callable default is evaluated on use.
    """

    name: str
    axis: str
    default: Any = None
    many: bool = False

    def resolve(self, path: str, value: Any) -> Any:
        axis = AXES[self.axis]
        if not self.many:
            return axis.resolve(path, value)
        if not isinstance(value, (list, tuple)) or not value:
            raise _fail(path, f"expected {axis.list_of}, got {value!r}")
        return tuple(axis.resolve(f"{path}[{i}]", item)
                     for i, item in enumerate(value))

    def default_value(self) -> Any:
        return self.default() if callable(self.default) else self.default


def _grid(attr: str) -> Callable[[], Tuple[str, ...]]:
    def default() -> Tuple[str, ...]:
        from repro.experiments.sweep import default_grid

        return getattr(default_grid(), attr)

    return default


_ROW = (
    Field("program", "program"),
    Field("config", "config"),
    Field("tech", "tech", "45nm"),
)
_GRID = (
    Field("programs", "program", _grid("programs"), many=True),
    Field("configs", "config", _grid("config_ids"), many=True),
    Field("techs", "tech", _grid("techs"), many=True),
)
_RUN = (
    Field("baseline", "baseline", "classic"),
    Field("budget", "budget", 120),
    Field("seed", "seed", 1),
)
_L2_AXIS = Field("l2", "l2", many=True)
_REFINE = Field("refine", "refine", False)
#: The optimize/usecase commands' baseline, which their job kinds keep.
_PERSISTENCE = Field("baseline", "baseline", "persistence")
_SWEEP = _GRID + _RUN + (_L2_AXIS, _REFINE)

#: The optimize/usecase kinds: one use case, no l2.
_POINT = _ROW + (_PERSISTENCE,) + _RUN[1:3] + (_REFINE,)

#: Job kind -> accepted fields, in canonical order.
KINDS: Dict[str, Tuple[Field, ...]] = {
    "optimize": _POINT,
    "usecase": _POINT,
    "sweep": _SWEEP,
}

#: CLI command -> its use-case arguments (``program``/``config``/
#: ``tech`` positional, the rest ``--flags``), with defaults.
COMMANDS: Dict[str, Tuple[Field, ...]] = {
    "optimize": _ROW + (
        _PERSISTENCE,
        Field("budget", "budget"),
        Field("l2", "l2"),
        _REFINE,
    ),
    "usecase": _ROW + (_PERSISTENCE, Field("l2", "l2"), _REFINE),
    "figure": _GRID + _RUN[:2],
    "sweep": _SWEEP,
}


def canonical(kind: str,
              params: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Validate one kind's params into canonical ``(name, value)`` pairs.

    Defaults are filled in and lists become tuples; omit-when-default
    axes appear only when set.

    Raises:
        ProtocolError: Naming the offending ``params.<field>``.
    """
    fields = KINDS[kind]
    unknown = sorted(set(params) - {f.name for f in fields})
    if unknown:
        raise ProtocolError(f"params: unknown field(s) {unknown} for "
                            f"kind {kind!r}")
    pairs = []
    for f in fields:
        if f.many and params.get(f.name) is None:
            value = f.default_value()
        else:
            value = f.resolve(f"params.{f.name}",
                              params.get(f.name, f.default))
        if not (AXES[f.axis].omit_default and not value):
            pairs.append((f.name, value))
    return tuple(pairs)


def check_command(command: str, params: Mapping[str, Any]) -> None:
    """Validate one CLI command's use-case arguments with the resolvers
    :func:`canonical` applies to jobs.  ``None``, or an empty list for a
    list-valued field, keeps the default, as :func:`spec_from_params`
    does.

    Raises:
        ProtocolError: Naming the offending argument.
    """
    for f in COMMANDS[command]:
        value = params.get(f.name)
        if value is not None and not (f.many and not value):
            f.resolve(f.name, value)


# ----------------------------------------------------------------------
# the two constructors
# ----------------------------------------------------------------------
def options_from_params(params: Mapping[str, Any]) -> OptimizerOptions:
    """The optimizer options ``params`` pin down; absent fields keep
    the :class:`OptimizerOptions` defaults."""
    return OptimizerOptions(
        max_evaluations=params.get("budget"),
        with_persistence=params.get("baseline", "persistence")
        == "persistence",
        refine=bool(params.get("refine")),
    )


def spec_from_params(params: Mapping[str, Any]):
    """The :class:`~repro.experiments.sweep.SweepSpec` of sweep params.

    Absent fields take the sweep kind's defaults, and so do null or
    empty grid axes.  Values are not validated here; ``SweepSpec``
    checks its closed-set axes itself.
    """
    from repro.experiments.sweep import SweepSpec

    value = {
        f.name: (params.get(f.name) or f.default_value()) if f.many
        else params.get(f.name, f.default)
        for f in _SWEEP
    }
    return SweepSpec(
        programs=tuple(value["programs"]),
        config_ids=tuple(value["configs"]),
        techs=tuple(value["techs"]),
        seed=value["seed"],
        max_evaluations=value["budget"],
        baseline=value["baseline"],
        l2_specs=tuple(value["l2"] or (None,)),
        refine=bool(value["refine"]),
    )


def check_spec(spec) -> None:
    """Validate a sweep spec's closed-set axes with the table's rules.

    Raises:
        ExperimentError: Naming the offending spec attribute.
    """
    try:
        AXES["baseline"].resolve("baseline", spec.baseline)
        _L2_AXIS.resolve("l2_specs", spec.l2_specs)
    except ProtocolError as exc:
        raise ExperimentError(str(exc)) from None
