"""Command-line front end.

Subcommands: design, beampattern, gdp, cdf, simulate, linkbudget.
Exit codes: 0 success, 2 validation error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    COMMAND_KEYS,
    COMMANDS,
    _parse_bool,
    load_config_file,
    resolve_config,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 4


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command with one flag per COMMAND_KEYS row.

    Key `k` becomes `--k-with-dashes` (dest `k`), read as a string and
    parsed by `resolve_config` like a config-file value; a boolean key also
    gets `--no-k`.
    """
    parser = argparse.ArgumentParser(
        prog="mmwcodebook",
        description="Hierarchical mmWave codebook design and beam-search "
                    "experiments (CSV outputs).")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, spec in COMMAND_KEYS.items():
        p = subs.add_parser(command,
                            help=COMMANDS[command].__doc__.splitlines()[0])
        p.add_argument("--config", metavar="PATH",
                       help="flat key = value configuration file")
        for key, (parse, default, text) in spec.items():
            flag = "--" + key.replace("_", "-")
            if parse is _parse_bool:
                pair = p.add_mutually_exclusive_group()
                pair.add_argument(flag, dest=key, action="store_const",
                                  const="true", help=text)
                pair.add_argument("--no-" + flag[2:], dest=key,
                                  action="store_const", const="false")
            else:
                p.add_argument(flag, dest=key, help=text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config")}
    try:
        file_values = load_config_file(args.config) if args.config else {}
        cfg = resolve_config(args.command, file_values, overrides)
        COMMANDS[args.command](cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
