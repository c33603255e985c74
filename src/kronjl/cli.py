"""Command-line front end, built from `harness.COMMANDS`: each command
but selftest takes `--config`, `--out` and its builder's parameters, and
forwards the merged config and flags to `harness.run_command`. Each flag's
help is its row of `harness.OPTIONS`; this module holds only the help of
`--config`, and no defaults.

Exit codes: 0 success, 1 configuration error (bad flags or config file,
missing required options, a shape the library rejects), 2 budget error
(an enumeration, scan or materialized matrix over its cap), 3 selftest
failure.
"""

import argparse
import inspect
import sys

from . import harness
from .errors import BudgetError, ConfigError, ShapeError


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are config errors, so exit code 1."""

    def error(self, message):
        raise ConfigError(message)


# every parser: no abbreviated flags, --help added last, and the report
# kinds' lines kept as they are
_STYLE = dict(add_help=False, allow_abbrev=False,
              formatter_class=argparse.RawDescriptionHelpFormatter)

# per command, a block of lines shown after its options
_EPILOG = {
    "report": "Options each kind reads, [optional]:\n"
    + "\n".join(f"  {line}" for line in harness.REPORT_USAGE),
}


def _option(parser, name, default=None):
    """The flag of one harness.OPTIONS row; a boolean default makes it a
    switch, and an unset flag is None, so the builder's default applies."""
    switch = dict(action="store_const", const=True) if isinstance(default, bool) else {}
    parser.add_argument(f"--{name}", help=harness.OPTIONS[name].help, **switch)


_PARSER = _Parser(prog="kronjl", **_STYLE, description=(
    "Kronecker fast Johnson-Lindenstrauss experiments and reports."))
_COMMANDS = _PARSER.add_subparsers(dest="command", required=True,
                                   title="commands", metavar="COMMAND")
for _name, _build in harness.COMMANDS.items():
    _doc = inspect.getdoc(_build)
    _sub = _COMMANDS.add_parser(_name, help=_doc, description=_doc,
                                epilog=_EPILOG.get(_name), **_STYLE)
    _sub.add_argument("--config", help="YAML option file; flags win.")
    for _p in inspect.signature(_build).parameters.values():
        _option(_sub, _p.name, _p.default)
    _option(_sub, "out")
_doc = "Run the oracle suite; nonzero exit on any failure."
_COMMANDS.add_parser("selftest", help=_doc, description=_doc, **_STYLE)
for _sub in (_PARSER, *_COMMANDS.choices.values()):
    _sub.add_argument("--help", action="help", help="Show this message and exit.")


def _selftest():
    """Print one line per oracle check and a summary; 3 on any failure."""
    results = harness.selftest()
    bad = 0
    for name, ok, detail in results:
        print(f"{name}: {'ok' if ok else 'FAIL'} ({detail})")
        bad += 0 if ok else 1
    if bad:
        print(f"{bad} check(s) failed", file=sys.stderr)
        return 3
    print(f"all {len(results)} checks passed")
    return 0


def main(argv=None):
    try:
        flags = vars(_PARSER.parse_args(argv))
        name = flags.pop("command")
        if name == "selftest":
            sys.exit(_selftest())
        config = flags.pop("config")
        loaded = harness.load_config(config) if config else {}
        options = harness.merge_options(loaded, flags)
        out = options.pop("out", None)
        text = harness.run_command(name, **options)
        if out:
            harness.write_text(out, text)
        else:
            sys.stdout.write(text)
    except (ConfigError, ShapeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        sys.exit(1)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(0)


if __name__ == "__main__":
    main()
