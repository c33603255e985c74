"""Command-line front end, built from `harness.COMMANDS`: each command
but selftest takes `--config`, `--out` and its builder's parameters, and
forwards the merged config and flags to `harness.run_command`. Each flag's
help is its row of `harness.OPTIONS`; this module holds only the help of
`--config`, and no defaults.

Exit codes: 0 success, 1 configuration error (bad flags or config file,
missing required options, a shape the library rejects), 2 budget error
(an enumeration, scan or materialized matrix over its cap), 3 selftest
failure.

Every click.echo names its stream, sys.stdout or sys.stderr: without
one, click caches the stream it finds, and keeps a redirected one and
all its text alive for good.
"""

import inspect
import sys

import click

from . import harness
from .errors import BudgetError, ConfigError, ShapeError


class _SelftestFailure(Exception):
    pass


@click.group(name="kronjl")
def cli():
    """Kronecker fast Johnson-Lindenstrauss experiments and reports."""


# per command, a block of lines shown after its options
_EPILOG = {
    "report": "\b\nOptions each kind reads, [optional]:\n"
    + "\n".join(f"  {line}" for line in harness.REPORT_USAGE),
}


def _option(name, default=None):
    """The flag of one harness.OPTIONS row; a boolean default makes it a
    switch, and an unset flag is None, so the builder's default applies."""
    return click.Option([f"--{name}"], is_flag=isinstance(default, bool),
                        default=None, help=harness.OPTIONS[name].help)


def _command(name, build):
    """The click command that runs `build` through harness.run_command."""

    def run(config, **flags):
        loaded = harness.load_config(config) if config else {}
        options = harness.merge_options(loaded, flags)
        out = options.pop("out", None)
        text = harness.run_command(name, **options)
        if out:
            harness.write_text(out, text)
        else:
            click.echo(text, file=sys.stdout, nl=False)

    params = inspect.signature(build).parameters.values()
    return click.Command(
        name, callback=run, help=inspect.getdoc(build), epilog=_EPILOG.get(name),
        params=[click.Option(["--config"], help="YAML option file; flags win.")]
        + [_option(p.name, p.default) for p in params] + [_option("out")],
    )


for _name, _build in harness.COMMANDS.items():
    cli.add_command(_command(_name, _build))


@cli.command("selftest")
def selftest():
    """Run the oracle suite; nonzero exit on any failure."""
    results = harness.selftest()
    bad = 0
    for name, ok, detail in results:
        click.echo(f"{name}: {'ok' if ok else 'FAIL'} ({detail})", file=sys.stdout)
        bad += 0 if ok else 1
    if bad:
        click.echo(f"{bad} check(s) failed", file=sys.stderr)
        raise _SelftestFailure()
    click.echo(f"all {len(results)} checks passed", file=sys.stdout)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.exceptions.Abort:
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except (ConfigError, ShapeError) as exc:
        click.echo(f"config error: {exc}", file=sys.stderr)
        sys.exit(1)
    except BudgetError as exc:
        click.echo(f"budget error: {exc}", file=sys.stderr)
        sys.exit(2)
    except _SelftestFailure:
        sys.exit(3)
    sys.exit(0)


if __name__ == "__main__":
    main()
