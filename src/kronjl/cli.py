"""Command-line front end, built from `harness.COMMANDS`: each command
but selftest takes `--config`, `--out` and its builder's parameters, and
forwards the merged config and flags to `harness.run_command`. This
module holds one help string per option and no defaults.

Exit codes: 0 success, 1 configuration error (bad flags or config file,
missing required options, a shape the library rejects), 2 budget error
(an enumeration, scan or materialized matrix over its cap), 3 selftest
failure.
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


_HELP = {
    "config": "YAML option file; flags win.",
    "out": "Output path (stdout if omitted).",
    "kind": f"Report kind: {'|'.join(harness.REPORT_KINDS)}.",
    "dims": "Axis lengths, e.g. 4,8,2 or 16x16.",
    "points": "Number of points (>= 2).",
    "bits": "Bits per axis of the sign domain.",
    "r": "Subspace dimension (1 <= r <= bits).",
    "d": "Axis counts, e.g. 1,2.",
    "m": "Embedding row counts, e.g. 8,16,32.",
    "s": "Sparsity level.",
    "eps": "Distortion levels, e.g. 0.25,0.5.",
    "nu": "Target failure level for flagging.",
    "trials": "Monte Carlo trials per cell.",
    "seed": "Master seed.",
    "family": f"Test-point families: {'|'.join(harness.FAMILIES)}.",
    "baseline": f"Operator: {'|'.join(harness.BASELINES)}.",
    "timing": "Record wall-clock ms per cell (breaks byte-identity of reruns).",
}


# per command, a block of lines shown after its options
_EPILOG = {
    "report": "\b\nOptions each kind reads, [optional]:\n"
    + "\n".join(f"  {line}" for line in harness.REPORT_USAGE),
}


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
            click.echo(text, nl=False)

    params = inspect.signature(build).parameters.values()
    return click.Command(
        name, callback=run, help=inspect.getdoc(build), epilog=_EPILOG.get(name),
        params=[click.Option(["--config"], help=_HELP["config"])]
        + [click.Option([f"--{p.name}"], is_flag=isinstance(p.default, bool),
                        default=None, help=_HELP[p.name]) for p in params]
        + [click.Option(["--out"], help=_HELP["out"])],
    )


for _name, _build in harness.COMMANDS.items():
    cli.add_command(_command(_name, _build))


@cli.command("selftest")
def selftest():
    """Run the oracle suite; nonzero exit on any failure."""
    results = harness.selftest()
    bad = 0
    for name, ok, detail in results:
        click.echo(f"{name}: {'ok' if ok else 'FAIL'} ({detail})")
        bad += 0 if ok else 1
    if bad:
        click.echo(f"{bad} check(s) failed", err=True)
        raise _SelftestFailure()
    click.echo(f"all {len(results)} checks passed")


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
        click.echo(f"config error: {exc}", err=True)
        sys.exit(1)
    except BudgetError as exc:
        click.echo(f"budget error: {exc}", err=True)
        sys.exit(2)
    except _SelftestFailure:
        sys.exit(3)
    sys.exit(0)


if __name__ == "__main__":
    main()
