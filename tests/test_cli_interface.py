"""The command line's interface, pinned: every subcommand's arguments as the
parser holds them, and the keys each config section takes, with their casts
and the commands that read them.  A change to how the settings are declared
must leave both records as they are: no option added, none dropped."""

import argparse

import pytest

from densum.cli import build_parser, resolve_settings

# Each subcommand's arguments, in the parser's order: (option strings, dest,
# type, choices, default, required, nargs).  Help text is not pinned.
ARGUMENTS = {
    "simulate": [
        (("--table",), "table", "int", (1, 2, 3), None, True, None),
        (("--n",), "n", "int", None, None, False, None),
        (("--phi", "--phi-star"), "phi", "float", None, None, False, None),
        (("--shape",), "shape", "float", None, None, False, None),
        (("--reps",), "reps", "int", None, None, False, None),
        (("--seed",), "seed", "int", None, None, False, None),
        (("--out",), "out", None, None, None, False, None),
        (("-c", "--config"), "config", None, None, None, False, None),
    ],
    "ci": [
        ((), "file", None, None, None, True, None),
        (("--column",), "column", None, None, None, False, None),
        (("--alpha",), "alpha", "float", None, None, False, None),
        (("--method",), "method", None, ("hoeffding", "u", "bernstein", "ratio"), None, False,
         None),
        (("--range",), "range", None, None, None, False, None),
        (("--out",), "out", None, None, None, False, None),
        (("-c", "--config"), "config", None, None, None, False, None),
    ],
    "fit": [
        ((), "file", None, None, None, True, None),
        (("--response",), "response", None, None, None, False, None),
        (("--covariates",), "covariates", None, None, None, False, None),
        (("--climate",), "climate", None, ("monthly", "yearly"), None, False, None),
        (("--alpha",), "alpha", "float", None, None, False, None),
        (("--range",), "range", None, None, None, False, None),
        (("--partitions",), "partitions", "_cluster_counts", None, None, False, None),
        (("--screen",), "screen", None, None, None, False, None),
        (("--out",), "out", None, None, None, False, None),
        (("-c", "--config"), "config", None, None, None, False, None),
    ],
    "diagnose": [
        ((), "file", None, None, None, True, None),
        (("--response",), "response", None, None, None, False, None),
        (("--covariates",), "covariates", None, None, None, False, None),
        (("--climate",), "climate", None, ("monthly", "yearly"), None, False, None),
        (("--column",), "column", None, None, None, False, None),
        (("--coefficient",), "coefficient", None, None, None, False, None),
        (("--out",), "out", None, None, None, False, None),
        (("-c", "--config"), "config", None, None, None, False, None),
    ],
    "fetch-climate": [
        (("--temp-url",), "temp_url", None, None, None, False, None),
        (("--co2-url",), "co2_url", None, None, None, False, None),
        (("--index-url",), "index_url", None, None, None, False, None),
        (("--start",), "start", None, None, "1979-1", False, None),
        (("--end",), "end", None, None, "2022-12", False, None),
        (("--out",), "out", None, None, "climate.csv", False, None),
    ],
}


def _subparsers():
    parser = build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_the_commands_are_pinned():
    assert list(_subparsers()) == list(ARGUMENTS)


@pytest.mark.parametrize("command", list(ARGUMENTS))
def test_each_commands_arguments_are_pinned(command):
    found = [
        (tuple(a.option_strings), a.dest, getattr(a.type, "__name__", a.type),
         None if a.choices is None else tuple(a.choices), a.default, a.required, a.nargs)
        for a in _subparsers()[command]._actions if not isinstance(a, argparse._HelpAction)
    ]
    assert found == ARGUMENTS[command]


# A value each probed key takes, under every name the parser knows and one it does not.
SAMPLES = {
    "n": "100", "phi": "0.5", "shape": "2", "reps": "10", "seed": "3", "alpha": "0.1",
    "method": "bernstein", "range": "two-mean", "column": "y", "response": "y",
    "covariates": "x1,x2", "climate": "monthly", "partitions": "5,10", "screen": "y",
    "coefficient": "y", "out": "o.csv", "config": "c.ini", "file": "in.csv", "table": "2",
    "temp_url": "t", "co2_url": "c", "index_url": "i", "start": "1980-1", "end": "1990-1",
    "phi_star": "0.5", "bogus": "1",
}
SIMULATE = ("n", "phi", "shape", "reps", "seed")
ANALYSIS = ("alpha", "method", "range", "column", "response", "covariates")
CASTS = {"n": "int", "phi": "float", "shape": "float", "reps": "int", "seed": "int",
         "alpha": "float"}
# Which commands read each key a section takes: simulate under each --table, and ci, fit
# and diagnose; any key not listed is refused under that section.
ANALYSIS_READERS = {"alpha": ("ci", "fit"), "method": ("ci",), "range": ("ci", "fit"),
                    "column": ("ci", "diagnose"), "response": ("fit", "diagnose"),
                    "covariates": ("fit", "diagnose")}
SECTIONS = {
    **{f"table{k}": {key: (f"table{k}",) for key in SIMULATE} for k in (1, 2, 3)},
    "analysis": ANALYSIS_READERS,
    "DEFAULT": {**{key: ("table1", "table2", "table3") for key in SIMULATE},
                **ANALYSIS_READERS},
    "notes": dict.fromkeys(SIMULATE + ANALYSIS, ()),
}
TAKERS = {**dict.fromkeys(("table1", "table2", "table3"), "simulate"),
          "analysis": "ci, fit or diagnose"}


def _read(tmp_path, text):
    """Resolve a config file holding ``text`` for every command that reads one:
    {reader: the resolved namespace}, or the message of the error it raises."""
    config = tmp_path / "probe.ini"
    config.write_text(text)
    parser = build_parser()
    readers = {f"table{k}": (["simulate", "--table", str(k)], f"table{k}") for k in (1, 2, 3)}
    readers.update({command: ([command, "in.csv"], "analysis")
                    for command in ("ci", "fit", "diagnose")})
    resolved = {}
    for reader, (argv, section) in readers.items():
        args = parser.parse_args(argv + ["-c", str(config)])
        try:
            resolve_settings(args, section)
        except ValueError as exc:
            return str(exc)
        resolved[reader] = args
    return resolved


@pytest.mark.parametrize("section", list(SECTIONS))
def test_each_config_sections_keys_and_casts_are_pinned(section, tmp_path, monkeypatch):
    monkeypatch.delenv("DENSUM_SEED", raising=False)
    for key, sample in SAMPLES.items():
        resolved = _read(tmp_path, f"[{section}]\n{key} = {sample}\n")
        if key not in SECTIONS[section]:
            takers = TAKERS.get(section, "any command")
            assert resolved == f"[{section}] {key} is not a setting of {takers}", key
            continue
        assert isinstance(resolved, dict), (key, resolved)
        cast = {"int": int, "float": float}.get(CASTS.get(key), str)
        readers = {reader for reader, args in resolved.items()
                   if getattr(args, key, None) == cast(sample)}
        assert readers == set(SECTIONS[section][key]), key
        for reader in readers:
            assert type(getattr(resolved[reader], key)) is cast, (key, reader)
        # a number's key refuses a word, named under its section; a text key takes it
        refused = _read(tmp_path, f"[{section}]\n{key} = x\n")
        if key in CASTS:
            assert refused == f"[{section}] {key} must be {CASTS[key]}, got 'x'", key
        elif key != "method":  # a method is checked against its choices
            assert isinstance(refused, dict), (key, refused)
