"""Every spec field is checked by its annotation and its declared range, at every JSON
entry point.

`NUMERIC_FIELDS` and `BOUNDED_FIELDS` are written out by hand, not read from
the classes: a field whose annotation or range changes, or a new numeric or
bounded field, must change them too, and the property tests then expect the
bad values of the type and range written here.
"""

import contextlib
import dataclasses
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import INNOVATION_DOCS
from eobkit.cli import main
from eobkit.experiments import GridSpec, LossSpec, ModelSpec, TrainConfig
from eobkit.losses import HarmonizedConfig
from eobkit.processes import (_CASTS, ARSpec, Binomial, DeterministicSpec, Gaussian, Geometric,
                              HybridSpec, Poisson, StudentT, Uniform, _json_key)

# class -> {JSON key: annotation} of every int, float, bool and tuple field
NUMERIC_FIELDS = {
    "Binomial": {"n": "int", "p": "float"},
    "Geometric": {"p": "float"},
    "Gaussian": {"mu": "float", "sigma": "float"},
    "Poisson": {"lambda": "float"},
    "StudentT": {"nu": "float", "alpha": "float"},
    "Uniform": {"a": "float", "b": "float"},
    "ARSpec": {"c": "float", "phi": "tuple[float, ...]", "sigma_eps2": "float"},
    "DeterministicSpec": {"base_amplitude": "float", "freqs": "tuple[int, ...]",
                          "phases": "tuple[float, ...]", "period": "int"},
    "HybridSpec": {"length": "int"},
    "HarmonizedConfig": {"gamma": "float", "eps": "float", "levels": "int"},
    "LossSpec": {"gamma": "float", "eps": "float", "levels": "int", "beta": "float"},
    "ModelSpec": {"hidden": "int", "init_seed": "int"},
    "TrainConfig": {"lr": "float", "max_epochs": "int", "patience": "int", "batch_size": "int",
                    "split": "float", "check_gradients": "bool"},
    "GridSpec": {"ssnr_x_values": "tuple[float, ...]", "horizons": "tuple[int, ...]",
                 "history": "int", "series_length": "int", "replications": "int", "seed": "int",
                 "det_harmonics": "int", "det_fmax": "int", "det_period": "int"},
}
# class -> {JSON key: metadata} of every field with a range
BOUNDED_FIELDS = {
    "Binomial": {"n": {"min": 1}, "p": {"above": 0, "max": 1}},
    "Geometric": {"p": {"above": 0, "max": 1}},
    "Gaussian": {"sigma": {"above": 0}},
    "Poisson": {"lambda": {"above": 0}},
    "StudentT": {"nu": {"above": 2}, "alpha": {"above": 0}},
    "Uniform": {},
    "ARSpec": {"sigma_eps2": {"above": 0}},
    "DeterministicSpec": {"base_amplitude": {"min": 0},
                          "phases": {"min": 0, "below": 2 * math.pi}, "period": {"min": 1}},
    "HybridSpec": {"length": {"min": 0}},
    "HarmonizedConfig": {"norm": {"choices": ("l1", "l2")}, "gamma": {"min": 0},
                         "eps": {"above": 0}, "transform": {"choices": ("dft", "dwt", "identity")},
                         "wavelet": {"choices": ("haar", "db2")}, "levels": {"min": 1}},
    "LossSpec": {"norm": {"choices": ("l1", "l2")}, "gamma": {"min": 0}, "eps": {"above": 0},
                 "transform": {"choices": ("dft", "dwt", "identity")},
                 "wavelet": {"choices": ("haar", "db2")}, "levels": {"min": 1},
                 "kind": {"choices": ("temporal", "harmonized")}, "beta": {"min": 0, "below": 1}},
    "ModelSpec": {"kind": {"choices": ("linear", "mlp1")}, "hidden": {"min": 1},
                  "activation": {"choices": ("tanh", "relu")}, "init_seed": {"min": 0}},
    "TrainConfig": {"optimizer": {"choices": ("sgd", "adam")}, "lr": {"min": 0},
                    "max_epochs": {"min": 1}, "patience": {"min": 1}, "batch_size": {"min": 1},
                    "split": {"above": 0, "below": 1}},
    "GridSpec": {"horizons": {"min": 1}, "history": {"min": 1}, "series_length": {"min": 1},
                 "replications": {"min": 1}, "seed": {"min": 0}, "det_period": {"min": 1}},
}
RANGE_KEYS = ("min", "above", "max", "below", "choices")
NON_NUMERIC = {"str", "ARSpec", "InnovationDist", "DeterministicSpec | None", "LossSpec"}
CLASSES = (Binomial, Geometric, Gaussian, Poisson, StudentT, Uniform, ARSpec, DeterministicSpec,
           HybridSpec, HarmonizedConfig, LossSpec, ModelSpec, TrainConfig, GridSpec)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_annotations_are_cast_or_non_numeric(cls):
    for f in dataclasses.fields(cls):
        assert f.type in _CASTS or f.type in NON_NUMERIC, f"{cls.__name__}.{f.name}: {f.type!r}"
    numeric = {_json_key(f): f.type for f in dataclasses.fields(cls) if f.type in _CASTS}
    assert numeric == NUMERIC_FIELDS[cls.__name__]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_ranges_are_declared_in_metadata(cls):
    for f in dataclasses.fields(cls):
        assert set(f.metadata) <= {"json_key", *RANGE_KEYS}, f"{cls.__name__}.{f.name}"
    bounded = {_json_key(f): {k: v for k, v in f.metadata.items() if k in RANGE_KEYS}
               for f in dataclasses.fields(cls)}
    assert {key: limits for key, limits in bounded.items() if limits} == BOUNDED_FIELDS[cls.__name__]


# the subcommands whose document holds each class, and where: `generate --spec` reads a
# process spec, `eob --spec` its "ar" block, and `simulate --grid` a grid config, whose
# grid holds an "ar" block of its own
FAMILIES = {"Binomial": "binomial", "Geometric": "geometric", "Gaussian": "gaussian",
            "Poisson": "poisson", "StudentT": "student_t", "Uniform": "uniform"}
PLACES = {**{cls: {"generate": ("ar", "innovation"), "eob": ("innovation",),
                   "simulate": ("grid", "ar", "innovation")} for cls in FAMILIES},
          "ARSpec": {"generate": ("ar",), "eob": (), "simulate": ("grid", "ar")},
          "DeterministicSpec": {"generate": ("det",)}, "HybridSpec": {"generate": ()},
          "GridSpec": {"simulate": ("grid",)}, "ModelSpec": {"simulate": ("model",)},
          "TrainConfig": {"simulate": ("train",)}, "LossSpec": {"simulate": ("loss",)}}
PROCESS_SPEC = {"ar": {"c": 0.0, "phi": [0.6], "innovation": INNOVATION_DOCS["gaussian"],
                       "sigma_eps2": 0.25},
                "det": {"base_amplitude": 1.5, "freqs": [2, 7], "phases": [0.3, 1.1],
                        "period": 128},
                "length": 64}
GRID_CONFIG = {
    "schema_version": 1,
    "grid": {"ssnr_x_values": [32.0, 96.0], "horizons": [16], "history": 16,
             "series_length": 700, "replications": 1, "seed": 0, "ar": PROCESS_SPEC["ar"],
             "det_harmonics": 3, "det_fmax": 15, "det_period": 32},
    "model": {"kind": "linear", "hidden": 8, "init_seed": 0},
    "train": {"lr": 1e-3, "max_epochs": 2, "patience": 2, "batch_size": 32, "split": 0.7,
              "check_gradients": False},
    "loss": {"kind": "harmonized", "norm": "l2", "gamma": 0.5, "eps": 1e-8, "levels": 1,
             "beta": 0.3},
}
RANGE_CASES = [(command, cls, key, check, bound)
               for cls, bounded in BOUNDED_FIELDS.items() if cls != "HarmonizedConfig"
               for key, limits in bounded.items() for check, bound in limits.items()
               for command in PLACES[cls]]
FIELD_CASES = [(command, cls, key, annotation)
               for cls, numeric in NUMERIC_FIELDS.items() if cls != "HarmonizedConfig"
               for key, annotation in numeric.items() for command in PLACES[cls]]

NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e999", "-1e999")
_text = st.text(max_size=8).map(json.dumps)
_non_finite = st.sampled_from(NON_FINITE)
_overflowing = st.integers(10**309, 10**400).map(str)  # an integer no float holds
_bad = {
    "int": st.one_of(_text, st.sampled_from(["true", "false", "null"]), _non_finite,
                     _overflowing, st.floats(allow_nan=False, allow_infinity=False)
                     .filter(lambda v: v != int(v)).map(json.dumps)),
    "float": st.one_of(_text, st.sampled_from(["true", "false", "null"]), _non_finite,
                       _overflowing),
    "bool": st.one_of(_text, st.just("null"), _non_finite,
                      st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False))
                      .map(json.dumps)),
}
for _item in ("int", "float"):
    # a bad item in the list, or a bad value (a number included) in place of the list
    _bad[f"tuple[{_item}, ...]"] = st.one_of(
        _bad[_item].map(lambda raw: f"[{raw}]"), _bad[_item].map(lambda raw: f"[1, {raw}]"),
        _bad[_item], st.integers(-5, 5).map(str))


def _past(check: str, bound, annotation: str | None):
    """Values on the rejected side of a bound, from the first one past it, or strings
    outside the choices."""
    if check == "choices":
        return st.text(max_size=8).filter(lambda text: text not in bound)
    low = check in ("min", "above")  # values below the bound are the rejected ones
    step = -1 if low else 1
    if annotation is not None and "int" in annotation:
        first = bound if check in ("above", "below") else bound + step
        return st.integers(*sorted((first, first + 3 * step)))
    first = bound if check in ("above", "below") else math.nextafter(bound, step * math.inf)
    return st.one_of(st.just(first), st.floats(*sorted((first, first + step))))


def run_cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fields")


def _document(command: str, cls: str) -> tuple[dict, dict]:
    """The document `command` reads, and its JSON object that holds the fields of `cls`."""
    doc = json.loads(json.dumps(GRID_CONFIG if command == "simulate" else PROCESS_SPEC))
    ar = doc["grid"]["ar"] if command == "simulate" else doc["ar"]
    if cls in FAMILIES:
        ar["innovation"] = dict(INNOVATION_DOCS[FAMILIES[cls]])
    doc = ar if command == "eob" else doc
    section = doc
    for name in PLACES[cls][command]:
        section = section[name]
    return doc, section


def run_with(command: str, doc: dict, section: dict, key: str, raw: str,
             workdir) -> tuple[int, str, str]:
    """Run `command` on `doc` with the raw JSON text `raw` as the value of `section[key]`."""
    section[key] = "@BAD@"
    path = workdir / f"{command}.json"
    path.write_text(json.dumps(doc).replace('"@BAD@"', raw))
    argv = {"generate": ("generate", "--spec", str(path)),
            "eob": ("eob", "--spec", str(path), "--T", "16"),
            "simulate": ("simulate", "--grid", str(path), "--jobs", "1")}[command]
    return run_cli(*argv)


@pytest.mark.parametrize("command,cls,key,annotation", FIELD_CASES,
                         ids=[f"{c[0]}-{c[1]}.{c[2]}" for c in FIELD_CASES])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_bad_value_exits_1_naming_the_field(command, cls, key, annotation, workdir, data):
    raw = data.draw(_bad[annotation], label="raw")
    code, out, err = run_with(command, *_document(command, cls), key, raw, workdir)
    assert (code, out) == (1, ""), err
    value = json.loads(raw)  # NaN, Infinity and 1e999 load as non-finite floats
    non_finite = any(isinstance(v, float) and not math.isfinite(v)
                     for v in (value if isinstance(value, list) else [value]))
    assert ("non-finite number" if non_finite else f"error: {cls}.{key}: ") in err, err


@pytest.mark.parametrize("command,cls,key,check,bound", RANGE_CASES,
                         ids=[f"{c[0]}-{c[1]}.{c[2]}-{c[3]}" for c in RANGE_CASES])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_value_past_a_bound_exits_1_naming_the_field(command, cls, key, check, bound, workdir,
                                                      data):
    annotation = NUMERIC_FIELDS[cls].get(key)
    value = data.draw(_past(check, bound, annotation), label="value")
    doc, section = _document(command, cls)
    if annotation is not None and annotation.startswith("tuple"):  # the last item goes bad
        value = section[key][:-1] + [value]
    code, out, err = run_with(command, doc, section, key, json.dumps(value), workdir)
    assert (code, out) == (1, ""), err
    assert f"error: {cls}.{key}: must be " in err, err


# the fields each class has no default for, with values it accepts
REQUIRED = {"Binomial": {"n": 1, "p": 0.5}, "Geometric": {"p": 0.5},
            "DeterministicSpec": {"base_amplitude": 1.5, "freqs": (2, 7), "phases": (0.3, 1.1),
                                  "period": 128},
            "HybridSpec": {"ar": ARSpec.white_noise(), "length": 64}}
CLOSED_BOUNDS = [(cls, key, bound) for cls, bounded in BOUNDED_FIELDS.items()
                 for key, limits in bounded.items()
                 for check, bound in limits.items() if check in ("min", "max")]


@pytest.mark.parametrize("cls,key,bound", CLOSED_BOUNDS,
                         ids=[f"{c[0]}.{c[1]}={c[2]}" for c in CLOSED_BOUNDS])
def test_closed_bound_is_accepted(cls, key, bound):
    spec_cls = next(c for c in CLASSES if c.__name__ == cls)
    name = next(f.name for f in dataclasses.fields(spec_cls) if _json_key(f) == key)
    kwargs = REQUIRED.get(cls, {})
    default = kwargs.get(name, next(f.default for f in dataclasses.fields(spec_cls)
                                    if f.name == name))
    value = default[:-1] + (bound,) if isinstance(default, tuple) else bound
    if (cls, key) in (("DeterministicSpec", "period"), ("GridSpec", "det_period")):
        # a period of 1 passes its range, but every tone aliases at it
        with pytest.raises(ValueError, match="alias") as exc:
            spec_cls(**{**kwargs, name: value})
        assert f"{cls}.{key}:" not in str(exc.value)
        return
    assert getattr(spec_cls(**{**kwargs, name: value}), name) == value


CHOICE_FIELDS = [(cls, key, choice) for cls, bounded in BOUNDED_FIELDS.items()
                 for key, limits in bounded.items() for choice in limits.get("choices", ())]


@pytest.mark.parametrize("cls,key,choice", CHOICE_FIELDS,
                         ids=[f"{c[0]}.{c[1]}={c[2]}" for c in CHOICE_FIELDS])
def test_one_tuple_of_a_choice_is_rejected(cls, key, choice):
    """A string field takes a choice, not a sequence holding one."""
    spec_cls = next(c for c in CLASSES if c.__name__ == cls)
    name = next(f.name for f in dataclasses.fields(spec_cls) if _json_key(f) == key)
    with pytest.raises(ValueError, match=rf"^{cls}\.{key}: must be one of .*, got \('{choice}',\)$"):
        spec_cls(**{**REQUIRED.get(cls, {}), name: (choice,)})
    assert getattr(spec_cls(**{**REQUIRED.get(cls, {}), name: choice}), name) == choice


@pytest.mark.parametrize("argv", [("diagnose", "--window", "4"), ("transform",),
                                  ("eob", "--estimate")], ids=lambda argv: argv[0])
@settings(max_examples=25, deadline=None)
@given(values=st.lists(st.floats(-10.0, 10.0), min_size=16, max_size=40),
       row=st.integers(0, 15), header=st.booleans(),
       cell=st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "-Infinity",
                             "INF", "1e999", "-1e999", "1E400"]))
def test_non_finite_csv_cell_exits_1(argv, values, row, header, cell, workdir):
    lines = [repr(v) for v in values]
    lines[row] = cell
    path = workdir / "series.csv"
    path.write_text("\n".join((["value"] if header else []) + lines) + "\n")
    code, out, err = run_cli(*argv, "--input", str(path))
    assert (code, out) == (1, ""), err
    assert f"non-finite value {cell!r}" in err, err
