"""Command-line front end.

Exit codes: 0 success, 1 configuration error (bad flags or config file,
missing required options, a shape the library rejects), 2 budget error
(an enumeration, scan or dense matrix over its cap), 3 selftest failure.
"""

import sys

import click

from . import harness
from .errors import BudgetError, ConfigError, ShapeError


class _SelftestFailure(Exception):
    pass


@click.group(name="kronjl")
def cli():
    """Kronecker fast Johnson-Lindenstrauss experiments and reports."""


def _options(config_path, flags, *required):
    """This command's options: the YAML config at `config_path` (if any)
    merged with `flags`, which win. A config key must be one of the
    command's flags, and every `required` field must be set."""
    config = harness.load_config(config_path) if config_path else {}
    for key in config:
        if key not in flags:
            raise ConfigError(f"{key!r} is not an option of this command")
    merged = harness.merge_options(config, flags)
    for field in required:
        if field not in merged:
            raise ConfigError(f"missing required option {field!r}")
    return merged


def _emit(text, out):
    if out:
        harness.write_text(out, text)
    else:
        click.echo(text, nl=False)


def _single(merged, field, default=None):
    values = merged.get(field, (default,))
    if len(values) != 1:
        raise ConfigError(f"{field}: this command takes a single value")
    return values[0]


_CONFIG = click.option("--config", default=None, help="YAML option file; flags win.")
_DIMS = click.option("--dims", default=None, help="Axis lengths, e.g. 4,8,2 or 16x16.")
_M = click.option("--m", default=None, help="Embedding row counts, e.g. 8,16,32.")
_EPS = click.option("--eps", default=None, help="Distortion levels, e.g. 0.25,0.5.")
_TRIALS = click.option("--trials", default=None, help="Monte Carlo trials per cell.")
_SEED = click.option("--seed", default=None, help="Master seed.")
_OUT = click.option("--out", default=None, help="Output path (stdout if omitted).")
_TIMING = click.option(
    "--timing", is_flag=True, default=None,
    help="Record wall-clock ms per cell (breaks byte-identity of reruns).",
)


@cli.command("jl-sweep")
@_CONFIG
@_DIMS
@_M
@_EPS
@_TRIALS
@_SEED
@_OUT
@click.option("--family", default=None, help="kron|dense|onehot, comma-separated.")
@click.option("--baseline", default=None, help="kfjlt|gaussian.")
@_TIMING
def jl_sweep(config, **flags):
    """Estimate the squared-norm distortion failure rate per (m, eps)."""
    merged = _options(config, flags, "dims", "m")
    records = harness.jl_failure_sweep(
        merged["dims"],
        merged["m"],
        merged.get("eps", (0.5,)),
        merged.get("trials", 10_000),
        merged.get("seed", 0),
        families=merged.get("family", harness.FAMILIES),
        baseline=_single(merged, "baseline", "kfjlt"),
        timing=merged.get("timing", False),
    )
    _emit(harness.sweep_to_csv(records), merged.get("out"))


@cli.command("pointset")
@_CONFIG
@_DIMS
@click.option("--points", default=None, help="Number of points (>= 2).")
@_M
@_EPS
@_TRIALS
@_SEED
@_OUT
@click.option("--family", default=None, help="Point family: kron|dense|onehot.")
@_TIMING
def pointset(config, **flags):
    """Joint pairwise-distance preservation over a fixed point set."""
    merged = _options(config, flags, "dims", "points", "m")
    fam = _single(merged, "family", "kron")
    reports = []
    for m_idx, m_val in enumerate(merged["m"]):
        for e_idx, eps_val in enumerate(merged.get("eps", (0.5,))):
            reports.append(
                harness.pointset_preservation(
                    merged["dims"], merged["points"], m_val, eps_val,
                    merged.get("trials", 10_000), merged.get("seed", 0),
                    family=fam, timing=merged.get("timing", False),
                    _cell=(m_idx, e_idx),
                )
            )
    _emit(harness.pointset_to_csv(reports), merged.get("out"))


@cli.command("lower-bound")
@_CONFIG
@click.option("--bits", default=None, help="Bits per axis of the sign domain.")
@click.option("--r", default=None, help="Subspace dimension (1 <= r <= bits).")
@click.option("--d", default=None, help="Axis counts, e.g. 1,2.")
@_M
@click.option("--nu", default=None, help="Target failure level for flagging.")
@_TRIALS
@_SEED
@_OUT
@_TIMING
def lower_bound(config, **flags):
    """Adversarial subspace-indicator sweep: exact, bound, empirical."""
    merged = _options(config, flags, "bits", "r", "d", "m")
    records = harness.lower_bound_sweep(
        merged["bits"], merged["r"], merged["d"], merged["m"],
        merged.get("trials", 10_000), merged.get("seed", 0),
        nu=merged.get("nu", 0.1), timing=merged.get("timing", False),
    )
    _emit(harness.lower_bound_to_csv(records), merged.get("out"))


@cli.command("report")
@_CONFIG
@click.option("--kind", default=None, help="rip|chaos|partition.")
@_DIMS
@_M
@click.option("--s", default=None, help="Sparsity level (rip).")
@click.option("--d", default=None, help="Axis count (partition).")
@_TRIALS
@_SEED
@_OUT
def report(config, **flags):
    """Write one JSON report document."""
    merged = _options(config, flags, "kind")
    out = merged.pop("out", None)
    merged.update({f: _single(merged, f) for f in ("m", "d") if f in merged})
    _emit(harness.report_to_json(harness.run_report(**merged)), out)


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
