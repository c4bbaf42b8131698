"""Command-line interface.

Subcommands: gen-data, train, score, audit, attack. Every command is
deterministic given its arguments, seed, and input files: artifacts are
byte-identical across repeated runs. Exit codes are a stable contract:

    0   success, no finding
    2   usage or input error
    3   success, with an out-of-bounds finding (audit)
    1   internal error
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .adversary import (
    construct_linear_ae_adversary,
    construct_pca_adversary,
    latent_decode_adversary,
    pgd_adversary,
    write_pgm,
)
from .anomaly import CONVENTIONS, is_undetected, min_score_in, score, table_summary, write_score_csv
from .audit import (
    render_heatmap,
    scan_input_space,
    scan_latent_space,
    write_audit_report,
    write_grid_csv,
)
from .datagen import (
    FAMILIES,
    SyntheticSpec,
    generate,
    load_csv,
    load_mnist,
    save_csv,
    standardization_stats,
)
from .errors import AeauditError, InputDomainError
from .layers import ACTIVATIONS
from .models import (
    AutoencoderModel,
    PcaModel,
    Preprocessing,
    build_conv_autoencoder,
    build_mlp_autoencoder,
    load_model,
    save_model,
    write_json,
)
from .training import OPTIMIZERS, TrainConfig, train

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_FINDING = 3


def _numbers(kind, count: int | None = None):
    """argparse type: comma-separated ints or floats, exactly `count` if given."""
    noun = "integers" if kind is int else "floats"

    def parse(text: str) -> tuple:
        try:
            vals = tuple(kind(v) for v in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")
        if count is not None and len(vals) != count:
            raise argparse.ArgumentTypeError(f"expected {count} {noun}, got {text!r}")
        return vals

    return parse


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _refuse(args, dests, mode: str) -> None:
    """Exit 2 on the first of these flags (argparse dests) that was given:
    `mode` would ignore it."""
    for dest in dests:
        value = getattr(args, dest)
        if value is not None and value is not False:
            raise InputDomainError(f"--{dest.replace('_', '-')} does not apply to {mode}")


# --- gen-data -----------------------------------------------------------------

# the gen-data flags that only some families read
FAMILY_FLAGS = {
    "mean": ("gaussian", "double_gaussian"),
    "cov": ("gaussian", "double_gaussian"),
    "noise": ("banana",),
    "x_range": ("banana",),
    "alpha_range": ("diagonal",),
}


def cmd_gen_data(args) -> int:
    _refuse(args, [f for f, families in FAMILY_FLAGS.items() if args.family not in families],
            f"family {args.family}")
    spec_kwargs = dict(
        family=args.family,
        samples_per_component=args.n,
        seed=args.seed,
    )
    if args.mean is not None:
        spec_kwargs["means"] = tuple(args.mean)
    if args.cov is not None:
        spec_kwargs["covariances"] = tuple((c[:2], c[2:]) for c in args.cov)
    if args.noise is not None:
        spec_kwargs["noise_scale"] = args.noise
    if args.x_range is not None:
        spec_kwargs["x_range"] = args.x_range
    if args.alpha_range is not None:
        spec_kwargs["alpha_range"] = args.alpha_range

    spec = SyntheticSpec(**spec_kwargs)
    dataset = generate(spec)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_csv(dataset, out)
    sidecar = out.with_name(out.stem + ".spec.json")
    write_json(spec.to_json_dict(), sidecar)
    _say(f"wrote {dataset.num_samples} samples to {out} (spec: {sidecar})")
    return EXIT_OK


# --- train ----------------------------------------------------------------------


def _train_config(args, num_samples: int) -> TrainConfig:
    """Flags, then the --config overrides, then --full-batch, which wins."""
    overrides = {}
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            overrides = json.load(f)
        if not isinstance(overrides, dict):
            raise InputDomainError(f"{args.config}: config must be a JSON object")
    cfg = dict(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        optimizer=args.optimizer,
        seed=args.seed,
        checkpoint_interval=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
    )
    cfg.update(overrides)
    if args.full_batch:
        cfg.update(batch_size=num_samples, shuffle=False)
    return TrainConfig.from_json_dict(cfg)


def cmd_train(args) -> int:
    if (args.arch is None) == (args.preset is None):
        raise InputDomainError("give exactly one of --arch or --preset")

    if args.preset is not None:
        _refuse(args, ("data", "has_header", "act", "standardize"), "--preset")
        if args.preset != "mnist-conv2":
            raise InputDomainError(f"unknown preset {args.preset!r}")
        if not args.mnist_images or not args.mnist_labels:
            raise InputDomainError("--preset mnist-conv2 needs --mnist-images and --mnist-labels")
        keep = set(args.digits) if args.digits is not None else None
        dataset = load_mnist(
            args.mnist_images,
            args.mnist_labels,
            keep_digits=keep,
            max_per_digit=args.max_per_digit,
        )
        model = build_conv_autoencoder(
            image_hw=dataset.image_hw,
            latent_dim=2 if args.latent_dim is None else args.latent_dim,
            seed=args.seed,
        )
    else:
        _refuse(args, ("mnist_images", "mnist_labels", "digits", "max_per_digit", "latent_dim"),
                "--arch")
        dataset = load_csv(args.data, has_header=args.has_header)
        preprocessing = None
        if args.standardize:
            mean, std = standardization_stats(dataset.x)
            preprocessing = Preprocessing(mean=mean, std=std)
        model = build_mlp_autoencoder(
            args.arch, activation=args.act or "relu", seed=args.seed, preprocessing=preprocessing
        )

    cfg = _train_config(args, dataset.num_samples)
    if cfg.checkpoint_interval:
        Path(cfg.checkpoint_dir).mkdir(parents=True, exist_ok=True)
    trained, report = train(model, dataset, cfg)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model(trained, out)
    if args.report:
        write_json(report.to_json_dict(), args.report)
    _say(
        f"trained {cfg.epochs} epochs in {report.wall_time_s:.2f}s, "
        f"final loss {report.final_loss:.6g}; model: {out}"
    )
    return EXIT_OK


# --- score -----------------------------------------------------------------------


def cmd_score(args) -> int:
    model = load_model(args.model)
    dataset = load_csv(args.data, has_header=args.has_header)
    floor = min_score_in(args.baseline) if args.baseline else None
    table = score(model, dataset, convention=args.convention)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_score_csv(table, out)
    summary = table_summary(table)
    if floor is not None:
        flagged = sorted(table.order[table.scores <= floor].tolist())
        summary["baseline_min_score"] = floor
        summary["flagged_indices"] = flagged
        summary["flagged"] = len(flagged)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


# --- audit ------------------------------------------------------------------------


def cmd_audit(args) -> int:
    model = load_model(args.model)
    dataset = load_csv(args.data, has_header=args.has_header)

    space = args.space
    if space == "auto":
        if model.input_dim == 2:
            space = "input"
        elif model.latent_dim == 2:
            space = "latent"
        else:
            raise InputDomainError(
                "model has neither a 2-D input nor a 2-D latent space; "
                "no plane to audit"
            )

    kwargs = dict(
        bounds=args.bounds,
        resolution=args.resolution,
        epsilon=args.epsilon,
        far_threshold=args.far_threshold,
    )
    if space == "input":
        grid = scan_input_space(model, dataset.x, **kwargs)
    else:
        grid = scan_latent_space(model, dataset.x, **kwargs)

    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    write_grid_csv(grid, outdir / "grid.csv")
    write_audit_report(grid, outdir / "report.json", model_ref=str(args.model), seed=args.seed)
    render_heatmap(grid, outdir / "heatmap.svg")

    findings = grid.out_of_bounds_regions()
    _say(
        f"audited {grid.space}: {len(grid.regions)} sub-epsilon regions, "
        f"{len(findings)} out of bounds; artifacts in {outdir}"
    )
    return EXIT_FINDING if findings else EXIT_OK


# --- attack -------------------------------------------------------------------------


# the attack flags that only some methods read; their defaults apply where they are read
METHOD_FLAGS = {
    "z": ("latent",),
    "delta": ("analytic", "pgd"),
    "steps": ("pgd",),
    "step_size": ("pgd",),
    "restarts": ("pgd",),
    "seed": ("pgd",),
}


def cmd_attack(args) -> int:
    _refuse(args, [f for f, methods in METHOD_FLAGS.items() if args.method not in methods],
            f"--method {args.method}")
    model = load_model(args.model)
    if args.pgm:
        # a (C, H, W) model gives the image's (H, W); a flat one, a square side
        hw = model.input_shape[1:] or (math.isqrt(model.input_dim),) * 2
        if math.prod(hw) != model.input_dim:
            raise InputDomainError("--pgm needs an image model or a square number of features")
    dataset = load_csv(args.data, has_header=args.has_header)
    delta = 10.0 if args.delta is None else args.delta

    if args.method == "analytic":
        if isinstance(model, PcaModel):
            result = construct_pca_adversary(model, dataset.x, delta=delta)
        else:
            result = construct_linear_ae_adversary(model, dataset.x, delta=delta)
    elif args.method == "latent":
        if args.z is None:
            raise InputDomainError("--method latent needs --z")
        result = latent_decode_adversary(model, args.z, dataset.x)
    else:
        if not isinstance(model, AutoencoderModel):
            raise InputDomainError("--method pgd needs an autoencoder model")
        result = pgd_adversary(
            model,
            dataset.x,
            delta=delta,
            steps=500 if args.steps is None else args.steps,
            step_size=1e-2 if args.step_size is None else args.step_size,
            restarts=10 if args.restarts is None else args.restarts,
            seed=0 if args.seed is None else args.seed,
        )

    table = score(model, dataset)
    doc = result.to_json_dict()
    doc["verdict"] = is_undetected(result.a, model, table).to_json_dict()
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_json(doc, out)
    if args.pgm:
        write_pgm(result.a, hw, args.pgm)
    print(json.dumps(doc["verdict"], sort_keys=True))
    return EXIT_OK


# --- parser ----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aeaudit",
        description="Train reconstruction-loss anomaly detectors and hunt for their blind spots.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic dataset CSV")
    g.add_argument("--family", required=True, choices=FAMILIES)
    g.add_argument("--n", type=int, default=100, help="samples per component")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--mean", type=_numbers(float), action="append",
                   help="component mean, e.g. 0,0")
    g.add_argument("--cov", type=_numbers(float, 4), action="append",
                   help="row-major 2x2 covariance")
    g.add_argument("--noise", type=float, help="banana noise scale")
    g.add_argument("--x-range", type=_numbers(float, 2), help="banana x1 range lo,hi")
    g.add_argument("--alpha-range", type=_numbers(float, 2), help="diagonal alpha range lo,hi")
    g.add_argument("-o", "--output", required=True)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train an autoencoder and save the model")
    t.add_argument("--data", help="training CSV")
    t.add_argument("--has-header", action="store_true")
    t.add_argument("--arch", type=_numbers(int), help="layer sizes, e.g. 2,5,1,5,2")
    t.add_argument("--act", choices=ACTIVATIONS, help="hidden activation for --arch (default relu)")
    t.add_argument("--preset", help="mnist-conv2")
    t.add_argument("--mnist-images", help="IDX image file for the preset")
    t.add_argument("--mnist-labels", help="IDX label file for the preset")
    t.add_argument("--digits", type=_numbers(int), help="digits kept as normal data")
    t.add_argument("--max-per-digit", type=int)
    t.add_argument("--latent-dim", type=int, help="latent width for --preset (default 2)")
    t.add_argument("--standardize", action="store_true")
    t.add_argument("--epochs", type=int, default=2000)
    t.add_argument("--batch-size", type=int, default=32)
    t.add_argument("--lr", type=float, default=1e-3)
    t.add_argument("--optimizer", default="adam", choices=OPTIMIZERS)
    t.add_argument("--full-batch", action="store_true")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--checkpoint-every", type=int, default=0)
    t.add_argument("--checkpoint-dir")
    t.add_argument("--config", help="JSON TrainConfig overriding the flags above")
    t.add_argument("-o", "--output", required=True, help="model JSON path")
    t.add_argument("--report", help="training report JSON path")
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("score", help="score a dataset with a model")
    s.add_argument("--model", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--has-header", action="store_true")
    s.add_argument("--convention", default="mean", choices=CONVENTIONS)
    s.add_argument("--baseline", help="train-score CSV; flags rows at or below its minimum")
    s.add_argument("-o", "--output", required=True, help="score CSV path")
    s.set_defaults(func=cmd_score)

    a = sub.add_parser("audit", help="scan a loss grid and extract blind spots")
    a.add_argument("--model", required=True)
    a.add_argument("--data", required=True)
    a.add_argument("--has-header", action="store_true")
    a.add_argument("--space", default="auto", choices=["auto", "input", "latent"])
    a.add_argument("--bounds", type=_numbers(float, 4), help="xmin,xmax,ymin,ymax")
    a.add_argument("--resolution", type=_numbers(int, 2), default=(200, 200))
    a.add_argument("--epsilon", type=float, default=0.1)
    a.add_argument("--far-threshold", type=float)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("-o", "--output", required=True, help="output directory")
    a.set_defaults(func=cmd_audit)

    k = sub.add_parser("attack", help="construct or search for an adversarial anomaly")
    k.add_argument("--model", required=True)
    k.add_argument("--data", required=True, help="training CSV (distance + criterion basis)")
    k.add_argument("--has-header", action="store_true")
    k.add_argument("--method", required=True, choices=["analytic", "pgd", "latent"])
    k.add_argument("--delta", type=float, help="analytic and pgd (default 10)")
    k.add_argument("--z", type=_numbers(float), help="latent point for --method latent")
    k.add_argument("--steps", type=int, help="pgd (default 500)")
    k.add_argument("--step-size", type=float, help="pgd (default 0.01)")
    k.add_argument("--restarts", type=int, help="pgd (default 10)")
    k.add_argument("--seed", type=int, help="pgd (default 0)")
    k.add_argument("-o", "--output", required=True, help="result JSON path")
    k.add_argument("--pgm", help="also dump the adversary as a PGM image")
    k.set_defaults(func=cmd_attack)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AeauditError, OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        _say(f"error: {exc}")
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - internal failure path
        _say(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
