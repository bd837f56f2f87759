"""CLI: the options each command accepts, pinned flag by flag."""

import re

import pytest

from dualfx.cli import COMMANDS, build_parser

_MC = ["--model", "--x0", "--T", "--vol", "--n", "--steps", "--seed",
       "--scheme", "--workers", "--out-dir", "--tag"]
FLAGS = {
    "price": [*_MC, "--claim", "--strike", "--dump-samples"],
    "parity": [*_MC, "--strikes"],
    "intl": [*_MC, "--strikes"],
    "defect": _MC,
    "lattice-verify": ["--tree", "--strikes", "--out-dir", "--tag"],
    "physical": ["--tree", "--out-dir", "--tag"],
    "convergence": [*_MC, "--levels"],
    "catalog": ["--x0", "--T", "--vol", "--out-dir"],
}
# a valid value of every flag (None: the flag takes none) and what it parses to
VALUES = {
    "--model": ("recip_bessel", "model", "recip_bessel"),
    "--x0": ("1.5", "x0", 1.5), "--T": ("2", "horizon", 2.0),
    "--vol": ("0.25", "vol", 0.25), "--n": ("10", "n", 10),
    "--steps": ("4", "steps", 4), "--seed": ("3", "seed", 3),
    "--scheme": ("exact", "scheme", "exact"),
    "--workers": ("2", "workers", 2), "--out-dir": ("d", "out_dir", "d"),
    "--tag": ("t", "tag", "t"), "--claim": ("call", "claim", "call"),
    "--strike": ("1.5", "strike", 1.5),
    "--dump-samples": (None, "dump_samples", True),
    "--strikes": ("0.5,2", "strikes", [0.5, 2.0]),
    "--tree": ("t.json", "tree", "t.json"),
    "--levels": ("8,16", "levels", [8, 16]),
}


def _argv(flags):
    return [tok for flag in flags
            for tok in (flag, VALUES[flag][0]) if tok is not None]


def test_commands_are_pinned():
    assert COMMANDS == tuple(FLAGS)


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_accepts_exactly_its_options(command, capsys):
    parser = build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([command, "--help"])
    assert exc.value.code == 0
    shown = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    assert shown == {"--help", *FLAGS[command]}
    # every flag at once parses to its value, and an option left out is
    # left out of the namespace
    ns = vars(parser.parse_args([command, *_argv(FLAGS[command])]))
    assert ns == {"command": command,
                  **{VALUES[f][1]: VALUES[f][2] for f in FLAGS[command]}}
    required = ["--tree"] if "--tree" in FLAGS[command] else []
    assert vars(parser.parse_args([command, *_argv(required)])).keys() \
        == {"command", *(VALUES[f][1] for f in required)}
    # a flag of another command is a usage error, exit 1, also where it is
    # a prefix of the command's own (--strike, --strikes)
    for flag in VALUES.keys() - set(FLAGS[command]):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([command, *_argv([*required, flag])])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: dualfx")
        assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("command", ["lattice-verify", "physical"])
def test_tree_is_required(command, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command])
    assert exc.value.code == 1
    assert "--tree" in capsys.readouterr().err


def test_run_takes_one_config_path():
    ns = build_parser().parse_args(["run", "cfg.json"])
    assert vars(ns) == {"command": "run", "config_path": "cfg.json"}
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["run", "cfg.json", "--n", "5"])
    assert exc.value.code == 1
