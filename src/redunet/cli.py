"""Command-line front end for the full pipeline.

Every subcommand is a thin wrapper over one library operation: generate
data, lift it, construct or evaluate a network, classify, and export
metrics. Outputs are RTF1 tensors, RNM1/RNS1 models, and RFC-4180 CSV;
each command also writes a JSON manifest next to its first output so runs
can be reproduced.

Exit codes: 0 success, 2 usage error, 3 malformed data, file I/O or an input
too large for memory, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .classify import accuracy, cosine_similarity_matrix, fit_nsc, predict_nsc
from .classify import SubspaceClassifier
from .datagen import (
    GaussianMixtureSpec,
    augment_shifts,
    gen_gaussian_sphere,
    polar_resample,
)
from .dense import construct, forward, load_model, save_model
from .errors import DataError, NumericError
from .rate import Membership, check_labels, rate_reduction
from .spectral import (
    construct_inv1d,
    construct_inv2d,
    forward_inv1d,
    forward_inv2d,
    lift_random_filters_1d,
    lift_random_filters_2d,
    load_invariant_model,
    normalize_samples_time,
    save_invariant_model,
)
from .tensorio import Tensor, read_idx, read_tensor, write_tensor

EXIT_OK = 0
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _write_manifest(args: argparse.Namespace, first_output: str) -> None:
    params = {
        key: value
        for key, value in vars(args).items()
        if key not in ("func",) and value is not None
    }
    manifest = {
        "command": args.command,
        "parameters": params,
        "wall_clock_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "version": __version__,
    }
    path = Path(str(first_output) + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, default=str) + "\n")


def _resolve_eps(args: argparse.Namespace) -> float:
    """--eps, or the root of --eps-sq; the library checks the result."""
    if args.eps_sq is not None:
        if not args.eps_sq > 0:
            raise DataError("--eps-sq must be positive")
        return float(np.sqrt(args.eps_sq))
    if args.eps is not None:
        return args.eps
    raise DataError("one of --eps or --eps-sq is required")


def _load_features(path: str) -> np.ndarray:
    return read_tensor(path).to_array()


def _load_samples(path: str) -> np.ndarray:
    """(n, m) features, or an augment or forward-inv* bank as (n, N): one column
    per sample, the transposed view of the flattened (N, n) bank, not a copy."""
    X = _load_features(path)
    return X.reshape(len(X), np.prod(X.shape[1:], dtype=int)).T if X.ndim > 2 else X


def _load_labels(path: str) -> np.ndarray:
    return check_labels(read_tensor(path).to_array())


def _write_csv(path: str | None, rows, header=None) -> None:
    fh = open(path, "w", newline="") if path else sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\n")
        if header:
            writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            fh.close()


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its first output path (None if it writes none)


def _cmd_gen_gaussians(args) -> str:
    spec = GaussianMixtureSpec(
        n=args.dims, k=args.classes, m_per_class=args.per_class,
        sigma=args.sigma, seed=args.seed,
    )
    Z, Pi = gen_gaussian_sphere(spec)
    labels = Pi.labels.astype("<u4")
    write_tensor(args.out_features, Tensor.from_array(Z))
    write_tensor(args.out_labels, Tensor.from_array(labels))
    return args.out_features


def _cmd_rate(args) -> None:
    Z = _load_features(args.features)
    Pi = Membership.from_labels(_load_labels(args.labels))
    R, Rc, dR = rate_reduction(Z, Pi, _resolve_eps(args))
    print(f"{_fmt(R)},{_fmt(Rc)},{_fmt(dR)}")


def _cmd_construct(args, builder, saver, normalize: bool) -> str:
    """construct / construct-inv*: invariant inputs are first scaled to unit
    sample norm."""
    Z = _load_features(args.features)
    if normalize:
        Z = normalize_samples_time(Z)
    Pi = Membership.from_labels(_load_labels(args.labels))
    model, Z_out, curve = builder(
        Z, Pi, L=args.layers, eta=args.eta, eps=_resolve_eps(args), lam=args.lam
    )
    saver(args.model_out, model)
    if args.features_out:
        write_tensor(args.features_out, Tensor.from_array(Z_out))
    if args.loss_out:
        _write_csv(
            args.loss_out,
            [[i, _fmt(R), _fmt(Rc), _fmt(dR)] for i, (R, Rc, dR) in enumerate(curve)],
            header=["layer", "R", "Rc", "dR"],
        )
    return args.model_out


def _cmd_forward(args, runner, loader, normalize: bool) -> str:
    """forward / forward-inv*: the same input scaling as construction."""
    model = loader(args.model)
    Z = _load_features(args.features)
    if normalize:
        Z = normalize_samples_time(Z)
    write_tensor(args.out, Tensor.from_array(runner(model, Z)))
    return args.out


def _cmd_lift1d(args) -> str:
    X = _load_features(args.features)
    out = lift_random_filters_1d(X, C=args.channels, K=args.kernel_size,
                                 seed=args.seed, tau=args.tau)
    write_tensor(args.out, Tensor.from_array(out))
    return args.out


def _cmd_polar(args) -> str:
    """A single H x W image is written as a stack of one."""
    out = polar_resample(_load_features(args.images), args.gamma, args.radii)
    write_tensor(args.out, Tensor.from_array(out.reshape(-1, *out.shape[-2:])))
    return args.out


def _cmd_augment(args) -> str:
    X = _load_features(args.features)
    labels = _load_labels(args.labels)
    out, out_labels = augment_shifts(X, labels, stride=args.stride, kind=args.kind)
    write_tensor(args.out_features, Tensor.from_array(out))
    write_tensor(args.out_labels, Tensor.from_array(out_labels.astype("<u4")))
    return args.out_features


def _cmd_nsc_fit(args) -> str:
    Z = _load_samples(args.features)
    labels = _load_labels(args.labels)
    clf = fit_nsc(Z, labels, r=args.r)
    bundle = Path(args.out)
    bundle.mkdir(parents=True, exist_ok=True)
    write_tensor(bundle / "means.rtf", Tensor.from_array(clf.means))
    for j, U in enumerate(clf.bases):
        write_tensor(bundle / f"basis_{j}.rtf", Tensor.from_array(U))
    dims = ",".join(str(U.shape[1]) for U in clf.bases)
    (bundle / "manifest.txt").write_text(
        f"classes={clf.k}\nr={args.r}\nbasis_dims={dims}\n"
    )
    return str(bundle / "manifest.txt")


def _load_nsc_bundle(path: str) -> SubspaceClassifier:
    """means.rtf (k, n), then basis_j.rtf (n, r_j) for each class; the
    bundle's manifest.txt is informational and not read. SubspaceClassifier
    checks what was read."""
    bundle = Path(path)
    means = read_tensor(bundle / "means.rtf").to_array()
    bases = tuple(read_tensor(bundle / f"basis_{j}.rtf").to_array() for j in range(len(means)))
    return SubspaceClassifier(means=means, bases=bases)


def _cmd_nsc_predict(args) -> str:
    """Every input, --labels included, is read and checked before the
    predictions are written."""
    clf = _load_nsc_bundle(args.bundle)
    Z = _load_samples(args.features)
    pred = predict_nsc(clf, Z)
    acc = accuracy(pred, _load_labels(args.labels)) if args.labels else None
    write_tensor(args.out, Tensor.from_array(np.asarray(pred, dtype="<u4")))
    if acc is not None:
        print(f"accuracy,{_fmt(acc)}")
    return args.out


def _cmd_cossim(args) -> str | None:
    S = cosine_similarity_matrix(_load_features(args.features))
    _write_csv(args.out, [[_fmt(x) for x in row] for row in S])
    return args.out


def _cmd_mnist_import(args) -> str:
    write_tensor(args.out_images, read_idx(args.images))
    write_tensor(args.out_labels, read_idx(args.labels))
    return args.out_images


# ---------------------------------------------------------------------------
# parser


def _add_eps_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, help="distortion (epsilon)")
    p.add_argument("--eps-sq", type=float, help="squared distortion (epsilon^2)")


def _add_construct_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--eta", type=float, required=True)
    _add_eps_flags(p)
    p.add_argument("--lambda", dest="lam", type=float, default=500.0)
    p.add_argument("--model-out", required=True)
    p.add_argument("--features-out")
    p.add_argument("--loss-out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redunet",
        description="White-box rate-reduction networks: data, construction, "
        "evaluation, and classification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-gaussians", help="sample a spherical Gaussian mixture")
    p.add_argument("--dims", type=int, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-features", required=True)
    p.add_argument("--out-labels", required=True)
    p.set_defaults(func=_cmd_gen_gaussians)

    p = sub.add_parser("rate", help="print R,Rc,dR for labeled features")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    _add_eps_flags(p)
    p.set_defaults(func=_cmd_rate)

    for name, help_text, builder, saver, normalize in (
        ("construct", "build a dense network layer by layer",
         construct, save_model, False),
        ("construct-inv1d", "build a shift-invariant network",
         construct_inv1d, save_invariant_model, True),
        ("construct-inv2d", "build a translation-invariant network",
         construct_inv2d, save_invariant_model, True),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_construct_flags(p)
        p.set_defaults(func=partial(_cmd_construct, builder=builder, saver=saver,
                                    normalize=normalize))

    for name, help_text, runner, loader, normalize in (
        ("forward", "run features through a stored dense network",
         forward, load_model, False),
        ("forward-inv1d", "run signals through a stored 1D network",
         forward_inv1d, load_invariant_model, True),
        ("forward-inv2d", "run images through a stored 2D network",
         forward_inv2d, load_invariant_model, True),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", required=True)
        p.add_argument("--features", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=partial(_cmd_forward, runner=runner, loader=loader,
                                    normalize=normalize))

    p = sub.add_parser("lift1d", help="lift signals with random circular filters")
    p.add_argument("--features", required=True)
    p.add_argument("--channels", type=int, required=True)
    p.add_argument("--kernel-size", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_lift1d)

    p = sub.add_parser("polar", help="resample images onto a polar grid")
    p.add_argument("--images", required=True)
    p.add_argument("--gamma", type=int, required=True, help="angle count")
    p.add_argument("--radii", type=int, required=True, help="radius count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_polar)

    p = sub.add_parser("augment", help="enumerate cyclic shifts of every sample")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--stride", type=int, required=True)
    p.add_argument("--kind", choices=["1d", "2d"], required=True)
    p.add_argument("--out-features", required=True)
    p.add_argument("--out-labels", required=True)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("nsc-fit", help="fit the nearest-subspace classifier")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--r", type=int, default=30)
    p.add_argument("--out", required=True, help="bundle directory")
    p.set_defaults(func=_cmd_nsc_fit)

    p = sub.add_parser("nsc-predict", help="classify features with a fitted bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--labels", help="optional true labels; prints an accuracy line")
    p.set_defaults(func=_cmd_nsc_predict)

    p = sub.add_parser("cossim", help="cosine similarity matrix as CSV")
    p.add_argument("--features", required=True)
    p.add_argument("--out", help="CSV path; stdout if omitted")
    p.set_defaults(func=_cmd_cossim)

    p = sub.add_parser("mnist-import", help="convert IDX image/label files to tensors")
    p.add_argument("--images", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out-images", required=True)
    p.add_argument("--out-labels", required=True)
    p.set_defaults(func=_cmd_mnist_import)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        first_output = args.func(args)
        if first_output is not None:
            _write_manifest(args, first_output)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
