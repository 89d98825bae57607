"""The benchmark's seeded workloads.

Each workload makes its inputs from the seed (``setup``), runs one timed
pipeline iteration at a time through the public library or the in-process
CLI (``iterate``), checks the outputs, and for the traced run replays the
construction one layer at a time through public calls (``replay``).

Span names are ``<module>.<call>``; the per-layer metrics are those names
with a unit suffix, so a span and the metric built from it read alike.
"""

from __future__ import annotations

import contextlib
import csv
import io
import statistics
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import redunet as rn
from redunet import cli as rn_cli
from spans import BenchFailure, LinalgCounter, Recorder

ETA, EPS, LAM = 0.5, 0.1, 500.0
NOISE = 0.05            # pixel noise on the translated images
BURN_IN = 0.05          # share of the loss curve skipped before the monotonicity check
DR_SLACK = 1e-6         # slack of the criterion-5 monotonicity check
UNIT_TOL = 1e-9         # unit-norm tolerance of the library itself
SHIFT_TOL = 1e-9        # criterion 7: forward commutes with cyclic shifts
CHAIN_TOL = 1e-9        # chained one-layer curve against the L-layer curve (invariant nets)
SHIFT_SAMPLES = 10      # held-out samples used by the shift check
# The lifting filters are part of the network, not of the data: fixed seeds,
# as in criteria 8 and 9, so that only the inputs change with --seed.
LIFT_SEED_1D, LIFT_SEED_2D = 43, 42

PARAMS = {
    "dense-sphere": {
        "full": dict(n=3, k=3, train_per_class=500, test_per_class=100, sigma=0.1,
                     layers=2000, r=1),
        "toy": dict(n=3, k=3, train_per_class=30, test_per_class=10, sigma=0.1,
                    layers=20, r=1),
    },
    "inv1d-rotation": {
        "full": dict(k=10, train_per_class=10, test_per_class=10, size=28, gamma=200,
                     radii=15, channels=20, kernel=5, layers=2, stride=10, r=30),
        "toy": dict(k=3, train_per_class=4, test_per_class=4, size=16, gamma=40,
                    radii=6, channels=6, kernel=5, layers=2, stride=10, r=8),
    },
    "inv2d-cli": {
        "full": dict(k=10, train_per_class=10, test_per_class=30, size=28, channels=6,
                     kernel=9, layers=2, stride=14, r=30),
        "toy": dict(k=3, train_per_class=4, test_per_class=8, size=12, channels=4,
                    kernel=3, layers=2, stride=6, r=6),
    },
}


# ---------------------------------------------------------------------------
# helpers


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _write(rec: Recorder, path: Path, arr: np.ndarray) -> None:
    with rec.span("tensorio.write"):
        rn.write_tensor(path, rn.Tensor.from_array(arr))


def _labels(count_per_class: int, k: int) -> np.ndarray:
    return np.repeat(np.arange(k), count_per_class)


def _sample_norms(Z: np.ndarray, columns: bool) -> np.ndarray:
    if columns:
        return np.linalg.norm(Z, axis=0)
    return np.sqrt(np.sum(Z**2, axis=tuple(range(1, Z.ndim))))


def _simplex_means() -> np.ndarray:
    """Three unit vectors at equal angles, as in criterion 5."""
    s, c = np.sqrt(1 / 3), np.sqrt(2 / 3)
    ang = np.array([0, 2 * np.pi / 3, 4 * np.pi / 3])
    return np.stack([s * np.cos(ang), s * np.sin(ang), np.full(3, c)], axis=1)


def _harmonic_image(size: int, freq: int, phase: float) -> np.ndarray:
    """Radially decaying angular harmonic, as in the rotation pipeline test;
    a rotation of the image is a change of ``phase``."""
    c = (size - 1) / 2
    yy, xx = np.mgrid[0:size, 0:size]
    return np.exp(-np.hypot(yy - c, xx - c) / 8) * np.cos(freq * np.arctan2(yy - c, xx - c) + phase)


def _cli(rec: Recorder, argv: list[str]) -> str:
    """Run one CLI subcommand in-process; returns what it printed."""
    out = io.StringIO()
    with rec.span(f"cli.{argv[0]}"):
        with contextlib.redirect_stdout(out):
            try:
                code = rn_cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        if code != 0:
            raise BenchFailure(f"redunet {argv[0]} exited with {code}")
    return out.getvalue()


def _to_spectral(Z: np.ndarray) -> np.ndarray:
    """(m, C, *dims) samples -> (P, C, m) unitary spectra, the layout the
    library's spectral objective takes."""
    V = rn.dft_1d(Z) if Z.ndim == 3 else rn.dft_2d(Z)
    V = V.reshape(Z.shape[0], Z.shape[1], -1)
    return np.ascontiguousarray(np.transpose(V, (2, 1, 0)))


def _ms(values) -> float:
    return 1e3 * statistics.median(values)


def _invariant_inputs(p: dict, workdir: Path, rec: Recorder, lifted: np.ndarray):
    """Split lifted samples into training and held-out sets and write them."""
    m = p["k"] * p["train_per_class"]
    inp = SimpleNamespace(
        workdir=workdir, Z=lifted[:m], Zt=lifted[m:],
        y=_labels(p["train_per_class"], p["k"]),
        yt=_labels(p["test_per_class"], p["k"]),
    )
    inp.Pi = rn.Membership.from_labels(inp.y, k=p["k"])
    _write_inputs(rec, inp)
    return inp


def _write_inputs(rec: Recorder, inp) -> None:
    inp.files = [inp.workdir / f for f in ("train.rtf", "train_labels.rtf",
                                           "test.rtf", "test_labels.rtf")]
    for path, arr in zip(inp.files, (inp.Z, inp.y.astype("<u4"), inp.Zt,
                                     inp.yt.astype("<u4"))):
        _write(rec, path, arr)


# ---------------------------------------------------------------------------
# checks shared by every workload


def check_iteration(rec: Recorder, it: dict, ref: dict | None, floor: float,
                    columns: bool) -> None:
    for name in ("train_out", "test_out"):
        Z = it[name]
        finite = bool(np.all(np.isfinite(Z)))
        err = float(np.max(np.abs(_sample_norms(Z, columns) - 1.0))) if finite else np.inf
        rec.check(f"{name}.finite_unit_norm", finite and err <= UNIT_TOL, f"(norm error {err:.3e})")
    dR = [c[2] for c in it["curve"]]
    burn = len(dR) // round(1 / BURN_IN)
    drops = [a - b for a, b in zip(dR[burn:], dR[burn + 1:]) if b < a - DR_SLACK]
    rec.check("curve.nondecreasing", not drops, f"(largest drop {max(drops, default=0):.3e})")
    rec.check("curve.final_above_first", dR[-1] > dR[0], f"({dR[0]} -> {dR[-1]})")
    rec.check("test_acc.floor", it["test_acc"] >= floor, f"({it['test_acc']} < {floor})")
    if ref is not None:
        same = (
            it["curve"] == ref["curve"]
            and np.array_equal(it["train_out"], ref["train_out"])
            and np.array_equal(it["test_out"], ref["test_out"])
            and np.array_equal(it["pred"], ref["pred"])
        )
        rec.check("iteration.deterministic", same)


def check_shift_commutes(rec: Recorder, forward, model, X: np.ndarray) -> None:
    """forward(shift(x)) == shift(forward(x)) on a few held-out samples."""
    X = X[:: max(1, X.shape[0] // SHIFT_SAMPLES)][:SHIFT_SAMPLES]
    base = forward(model, X)
    shifts = [(3,), (X.shape[-1] // 2 + 1,)] if X.ndim == 3 else [(1, 5), (X.shape[-2] // 2, 2)]
    err = 0.0
    for s in shifts:
        axes = tuple(range(-len(s), 0))
        got = forward(model, np.roll(X, s, axis=axes))
        err = max(err, float(np.max(np.abs(got - np.roll(base, s, axis=axes)))))
    rec.check("forward.shift_commutes", err <= SHIFT_TOL, f"(max error {err:.3e})")


# ---------------------------------------------------------------------------
# per-layer replay through public calls


def replay_dense(rec: Recorder, counter: LinalgCounter, Z, Pi, layers: int,
                 ref_curve) -> dict[str, float]:
    """Chained ``construct(L=1)`` calls, with the rate operators and the
    objective of each layer timed on their own."""
    n, k = Z.shape[0], Pi.k
    exp_ms, comp_ms, obj_ms, layer_ms, upd_ms = [], [], [], [], []
    counts, curve, updates_exact = set(), [], True
    for _ in range(layers):
        params = rn.RateParams.compute(n, Pi, EPS)
        with rec.span("rate.expansion_operator") as s:
            rn.expansion_operator(Z, params)
        exp_ms.append(s.seconds)
        comp = 0.0
        for j in range(k):
            with rec.span("rate.compression_operator") as s:
                rn.compression_operator(Z, Pi, j, params)
            comp += s.seconds
        comp_ms.append(comp)
        with rec.span("rate.rate_reduction") as s:
            rn.rate_reduction(Z, Pi, EPS)
        obj_ms.append(s.seconds)
        counter.reset()
        with rec.span("dense.construct_layer") as s:
            model, Z_next, c = rn.construct(Z, Pi, L=1, eta=ETA, eps=EPS, lam=LAM)
        layer_ms.append(s.seconds)
        counts.add((counter.counts["cholesky"], counter.counts["inv"]))
        with rec.span("dense.update") as s:
            Z_fw = rn.forward(model, Z)
        upd_ms.append(s.seconds)
        updates_exact &= bool(np.array_equal(Z_fw, Z_next))
        curve.append(c[0])
        Z = Z_next
    rec.check("trace.chained_curve_exact", curve == list(ref_curve))
    rec.check("trace.update_matches_layer", updates_exact)
    rec.check("trace.counts_constant", len(counts) == 1, f"({sorted(counts)})")
    chol, inv = counts.pop()
    return {
        "rate.expansion_op_ms": _ms(exp_ms),
        "rate.compression_op_ms": _ms(comp_ms),
        "rate.objective_ms": _ms(obj_ms),
        "rate.cholesky_per_layer": chol,
        "rate.inv_per_layer": inv,
        "dense.layer_ms_p50": _ms(layer_ms),
        "dense.layer_ms_p90": 1e3 * float(np.percentile(layer_ms, 90)),
        "dense.update_ms": _ms(upd_ms),
    }


def replay_spectral(rec: Recorder, counter: LinalgCounter, Z, Pi, layers: int,
                    ref_curve) -> dict[str, float]:
    """Chained ``construct_inv*(L=1)`` calls; the objective and the update of
    each layer are timed on their own, operator build is the remainder."""
    construct = rn.construct_inv1d if Z.ndim == 3 else rn.construct_inv2d
    forward = rn.forward_inv1d if Z.ndim == 3 else rn.forward_inv2d
    layer_s, obj_s, upd_s, build_s, op_mb = [], [], [], [], []
    counts, curve, updates_exact = set(), [], True
    for _ in range(layers):
        counter.reset()
        with rec.span("spectral.construct_layer") as s:
            model, Z_next, c = construct(Z, Pi, L=1, eta=ETA, eps=EPS, lam=LAM)
        layer_s.append(s.seconds)
        counts.add((counter.counts["cholesky"], counter.counts["inv"]))
        V = _to_spectral(Z)
        with rec.span("spectral.spectral_rate_reduction") as s:
            rn.spectral_rate_reduction(V, Pi, EPS)
        obj_s.append(s.seconds)
        with rec.span("spectral.update") as s:
            Z_fw = forward(model, Z)
        upd_s.append(s.seconds)
        build_s.append(layer_s[-1] - obj_s[-1] - upd_s[-1])
        updates_exact &= bool(np.array_equal(Z_fw, Z_next))
        layer = model.layers[0]
        op_mb.append((layer.E_hat.nbytes + layer.C_hat.nbytes) / 1e6)
        curve.append(c[0])
        Z = Z_next
    err = float(np.max(np.abs(np.array(curve) - np.array(ref_curve))))
    rec.check("trace.chained_curve_close", err <= CHAIN_TOL, f"(max error {err:.3e})")
    rec.check("trace.update_matches_layer", updates_exact)
    rec.check("trace.counts_constant", len(counts) == 1, f"({sorted(counts)})")
    chol, inv = counts.pop()
    return {
        "spectral.layer_ms_p50": _ms(layer_s),
        "spectral.objective_ms": _ms(obj_s),
        "spectral.update_ms": _ms(upd_s),
        "spectral.op_build_ms": _ms(build_s),
        "spectral.cholesky_per_layer": chol,
        "spectral.inv_per_layer": inv,
        "spectral.operator_mb_per_layer": op_mb[0],
    }


def replay_tensorio(rec: Recorder, paths: list[Path], passes: int = 3) -> dict[str, float]:
    """Re-read and re-write the workload's own RTF1 input files."""
    read_s, write_s = [], []
    for _ in range(passes):
        i0 = len(rec.spans)
        for path in paths:
            with rec.span("tensorio.read"):
                t = rn.read_tensor(path)
            with rec.span("tensorio.write"):
                rn.write_tensor(path, t)
        d = rec.durations(i0)
        read_s.append(d["tensorio.read"])
        write_s.append(d["tensorio.write"])
    return {"tensorio.read_ms": _ms(read_s), "tensorio.write_ms": _ms(write_s)}


def replay_classify(rec: Recorder, bank: np.ndarray) -> dict[str, float]:
    with rec.span("classify.cossim") as s:
        rn.cosine_similarity_matrix(bank)
    return {"classify.cossim_ms": s.ms}


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    columns = False          # samples are columns (dense) or leading-axis tensors
    construct_spans: tuple[str, ...] = ()
    forward_spans: tuple[str, ...] = ()
    nsc_spans: tuple[str, ...] = ()
    setup_layer_spans: tuple[str, ...] = ()      # per-layer metrics taken from setup
    iteration_layer_spans: tuple[str, ...] = ()  # per-layer metrics taken from an iteration

    def __init__(self, scale: str, floor: float) -> None:
        self.params = PARAMS[self.name][scale]
        self.floor = floor

    def timings(self, d: dict[str, float]) -> dict[str, float]:
        """End-to-end seconds of one iteration from its summed span times."""
        return {
            "construct_s": sum(d[n] for n in self.construct_spans),
            "forward_s": sum(d[n] for n in self.forward_spans),
            "nsc_s": sum(d[n] for n in self.nsc_spans),
            "total_s": d["iteration"],
        }


class DenseSphere(Workload):
    name = "dense-sphere"
    columns = True
    construct_spans = ("dense.construct",)
    forward_spans = ("dense.forward",)
    nsc_spans = ("classify.fit", "classify.predict")
    setup_layer_spans = ("datagen.gen",)
    iteration_layer_spans = ("dense.forward", "dense.save", "dense.load",
                             "classify.fit", "classify.predict")

    def setup(self, seed: int, workdir: Path, rec: Recorder):
        p = self.params
        train_seed, test_seed = _seeds(seed, 2)
        means = _simplex_means()
        with rec.span("datagen.gen"):
            Z, Pi = rn.gen_gaussian_sphere(rn.GaussianMixtureSpec(
                n=p["n"], k=p["k"], m_per_class=p["train_per_class"], sigma=p["sigma"],
                seed=train_seed, means=means))
            Zt, _ = rn.gen_gaussian_sphere(rn.GaussianMixtureSpec(
                n=p["n"], k=p["k"], m_per_class=p["test_per_class"], sigma=p["sigma"],
                seed=test_seed, means=means))
        inp = SimpleNamespace(
            workdir=workdir, Z=Z, Pi=Pi, Zt=Zt,
            y=_labels(p["train_per_class"], p["k"]),
            yt=_labels(p["test_per_class"], p["k"]),
        )
        _write_inputs(rec, inp)
        return inp

    def iterate(self, inp, rec: Recorder, first: bool) -> dict:
        p = self.params
        path = inp.workdir / "model.rnm"
        with rec.span("iteration", op=False):
            with rec.span("dense.construct"):
                model, Z_out, curve = rn.construct(inp.Z, inp.Pi, L=p["layers"],
                                                   eta=ETA, eps=EPS, lam=LAM)
            with rec.span("dense.save"):
                rn.save_model(path, model)
            with rec.span("dense.load"):
                loaded = rn.load_model(path)
            with rec.span("dense.forward"):
                Zt_out = rn.forward(loaded, inp.Zt)
            with rec.span("classify.fit"):
                clf = rn.fit_nsc(Z_out, inp.y, r=p["r"])
            with rec.span("classify.predict"):
                pred = rn.predict_nsc(clf, Zt_out)
        if first:
            err = float(np.max(np.abs(rn.forward(loaded, inp.Z) - Z_out)))
            rec.check("forward.train_matches_construct", err == 0.0, f"(max difference {err:.3e})")
        return dict(train_out=Z_out, test_out=Zt_out, pred=pred, curve=curve,
                    nsc_train=Z_out, test_acc=rn.accuracy(pred, inp.yt),
                    model_mb=path.stat().st_size / 1e6)

    def replay(self, inp, rec, counter, ref: dict) -> dict[str, float]:
        out = replay_dense(rec, counter, inp.Z, inp.Pi, self.params["layers"],
                           ref["curve"])
        out.update(replay_classify(rec, ref["nsc_train"]))
        out.update(replay_tensorio(rec, inp.files))
        return out


class Inv1dRotation(Workload):
    name = "inv1d-rotation"
    construct_spans = ("spectral.construct",)
    forward_spans = ("spectral.forward",)
    nsc_spans = ("datagen.augment", "classify.fit", "classify.predict")
    setup_layer_spans = ("datagen.polar", "spectral.lift")
    iteration_layer_spans = ("spectral.forward", "spectral.save", "spectral.load",
                             "classify.fit", "classify.predict", "datagen.augment")

    def setup(self, seed: int, workdir: Path, rec: Recorder):
        p = self.params
        rng = np.random.default_rng(seed)
        images = [
            _harmonic_image(p["size"], j + 1, rng.uniform(0, 2 * np.pi))
            for count in (p["train_per_class"], p["test_per_class"])
            for j in range(p["k"])
            for _ in range(count)
        ]
        with rec.span("datagen.polar"):
            polar = np.stack([rn.polar_resample(img, p["gamma"], p["radii"]) for img in images])
        with rec.span("spectral.lift"):
            lifted = rn.normalize_samples_time(rn.lift_random_filters_1d(
                polar, C=p["channels"], K=p["kernel"], seed=LIFT_SEED_1D))
        return _invariant_inputs(p, workdir, rec, lifted)

    def _bank(self, rec: Recorder, Z_out: np.ndarray, labels: np.ndarray):
        with rec.span("datagen.augment"):
            bank, bank_labels = rn.augment_shifts(Z_out, labels, stride=self.params["stride"],
                                                  kind="1d")
        return bank.reshape(bank.shape[0], -1).T, bank_labels

    def iterate(self, inp, rec: Recorder, first: bool) -> dict:
        p = self.params
        path = inp.workdir / "model.rns"
        with rec.span("iteration", op=False):
            with rec.span("spectral.construct"):
                model, Z_out, curve = rn.construct_inv1d(inp.Z, inp.Pi, L=p["layers"],
                                                         eta=ETA, eps=EPS, lam=LAM)
            with rec.span("spectral.save"):
                rn.save_invariant_model(path, model)
            with rec.span("spectral.load"):
                loaded = rn.load_invariant_model(path)
            with rec.span("spectral.forward"):
                Zt_out = rn.forward_inv1d(loaded, inp.Zt)
            bank, bank_labels = self._bank(rec, Z_out, inp.y)
            with rec.span("classify.fit"):
                clf = rn.fit_nsc(bank, bank_labels, r=p["r"])
            test_bank, test_labels = self._bank(rec, Zt_out, inp.yt)
            with rec.span("classify.predict"):
                pred = rn.predict_nsc(clf, test_bank)
        if first:
            err = float(np.max(np.abs(rn.forward_inv1d(loaded, inp.Z) - Z_out)))
            rec.check("forward.train_matches_construct", err == 0.0, f"(max difference {err:.3e})")
            check_shift_commutes(rec, rn.forward_inv1d, loaded, inp.Zt)
        return dict(train_out=Z_out, test_out=Zt_out, pred=pred, curve=curve,
                    nsc_train=bank, test_acc=rn.accuracy(pred, test_labels),
                    model_mb=path.stat().st_size / 1e6)

    def replay(self, inp, rec, counter, ref: dict) -> dict[str, float]:
        out = replay_spectral(rec, counter, inp.Z, inp.Pi, self.params["layers"],
                              ref["curve"])
        out.update(replay_classify(rec, ref["nsc_train"]))
        out.update(replay_tensorio(rec, inp.files))
        return out


class Inv2dCli(Workload):
    name = "inv2d-cli"
    construct_spans = ("cli.construct-inv2d",)
    forward_spans = ("cli.forward-inv2d",)
    nsc_spans = ("cli.augment", "cli.nsc-fit", "cli.nsc-predict")
    setup_layer_spans = ("datagen.gen", "spectral.lift")
    iteration_layer_spans = nsc_spans + construct_spans + forward_spans

    def setup(self, seed: int, workdir: Path, rec: Recorder):
        p = self.params
        rng = np.random.default_rng(seed)
        k, size, stride = p["k"], p["size"], p["stride"]
        templates = rng.standard_normal((k, size, size))
        # translations on the shift bank's grid, so held-out samples have a
        # counterpart among the banked translations of the training set
        noisy, offsets = [], []
        for count in (p["train_per_class"], p["test_per_class"]):
            for j in range(k):
                for _ in range(count):
                    noisy.append(templates[j] + NOISE * rng.standard_normal((size, size)))
                    offsets.append(stride * rng.integers(-(-size // stride), size=2))
        with rec.span("datagen.gen"):
            images = np.stack([rn.translate2d(img, int(pq[0]), int(pq[1]))
                               for img, pq in zip(noisy, offsets)])
        with rec.span("spectral.lift"):
            lifted = rn.normalize_samples_time(rn.lift_random_filters_2d(
                images, C=p["channels"], K=p["kernel"], seed=LIFT_SEED_2D))
        return _invariant_inputs(p, workdir, rec, lifted)

    def _flat_bank(self, rec: Recorder, name: str, features: Path, labels: Path):
        """augment through the CLI, then flatten the bank to an n x N matrix
        for nsc (the reshape is outside the timed subcommands)."""
        w = features.parent
        _cli(rec, ["augment", "--features", str(features), "--labels", str(labels),
                   "--stride", str(self.params["stride"]), "--kind", "2d",
                   "--out-features", str(w / f"{name}_bank.rtf"),
                   "--out-labels", str(w / f"{name}_bank_labels.rtf")])
        bank = rn.read_tensor(w / f"{name}_bank.rtf").to_array()
        flat = w / f"{name}_flat.rtf"
        rn.write_tensor(flat, rn.Tensor.from_array(bank.reshape(bank.shape[0], -1).T))
        return flat, w / f"{name}_bank_labels.rtf"

    def iterate(self, inp, rec: Recorder, first: bool) -> dict:
        p = self.params
        w = inp.workdir
        train, train_labels, test, test_labels = (str(f) for f in inp.files)
        with rec.span("iteration", op=False):
            _cli(rec, ["construct-inv2d", "--features", train, "--labels", train_labels,
                       "--layers", str(p["layers"]), "--eta", str(ETA), "--eps", str(EPS),
                       "--lambda", str(LAM), "--model-out", str(w / "model.rns"),
                       "--features-out", str(w / "train_out.rtf"),
                       "--loss-out", str(w / "loss.csv")])
            _cli(rec, ["forward-inv2d", "--model", str(w / "model.rns"), "--features", test,
                       "--out", str(w / "test_out.rtf")])
            bank, bank_labels = self._flat_bank(rec, "train", w / "train_out.rtf",
                                                Path(train_labels))
            _cli(rec, ["nsc-fit", "--features", str(bank), "--labels", str(bank_labels),
                       "--r", str(p["r"]), "--out", str(w / "bundle")])
            tbank, tbank_labels = self._flat_bank(rec, "test", w / "test_out.rtf",
                                                  Path(test_labels))
            printed = _cli(rec, ["nsc-predict", "--bundle", str(w / "bundle"),
                                 "--features", str(tbank), "--out", str(w / "pred.rtf"),
                                 "--labels", str(tbank_labels)])
        Z_out = rn.read_tensor(w / "train_out.rtf").to_array()
        Zt_out = rn.read_tensor(w / "test_out.rtf").to_array()
        pred = rn.read_tensor(w / "pred.rtf").to_array()
        acc = rn.accuracy(pred, rn.read_tensor(tbank_labels).to_array())
        with open(w / "loss.csv", newline="") as fh:
            curve = [(float(r["R"]), float(r["Rc"]), float(r["dR"])) for r in csv.DictReader(fh)]
        rec.check("cli.accuracy_line", printed.strip() == f"accuracy,{acc:.12g}",
                  f"({printed.strip()!r})")
        if first:
            model = rn.load_invariant_model(w / "model.rns")
            Z = rn.normalize_samples_time(inp.Z)
            err = float(np.max(np.abs(rn.forward_inv2d(model, Z) - Z_out)))
            rec.check("forward.train_matches_construct", err == 0.0, f"(max difference {err:.3e})")
            check_shift_commutes(rec, rn.forward_inv2d, model,
                                 rn.normalize_samples_time(inp.Zt))
        return dict(train_out=Z_out, test_out=Zt_out, pred=pred, curve=curve,
                    test_acc=acc, model_mb=(w / "model.rns").stat().st_size / 1e6)

    def replay(self, inp, rec, counter, ref: dict) -> dict[str, float]:
        """The CLI hides the library calls, so they are timed here on the
        same files the traced iteration wrote."""
        p, w = self.params, inp.workdir
        Z = rn.normalize_samples_time(inp.Z)
        out = replay_spectral(rec, counter, Z, inp.Pi, p["layers"], ref["curve"])
        with rec.span("spectral.load") as s_load:
            model = rn.load_invariant_model(w / "model.rns")
        with rec.span("spectral.save") as s_save:
            rn.save_invariant_model(w / "model_copy.rns", model)
        with rec.span("spectral.forward") as s_fwd:
            rn.forward_inv2d(model, rn.normalize_samples_time(inp.Zt))
        Z_out = rn.read_tensor(w / "train_out.rtf").to_array()
        Zt_out = rn.read_tensor(w / "test_out.rtf").to_array()
        with rec.span("datagen.augment") as s_aug:
            rn.augment_shifts(Z_out, inp.y, stride=p["stride"], kind="2d")
            rn.augment_shifts(Zt_out, inp.yt, stride=p["stride"], kind="2d")
        bank = rn.read_tensor(w / "train_flat.rtf").to_array()
        bank_labels = rn.read_tensor(w / "train_bank_labels.rtf").to_array()
        tbank = rn.read_tensor(w / "test_flat.rtf").to_array()
        with rec.span("classify.fit") as s_fit:
            clf = rn.fit_nsc(bank, bank_labels, r=p["r"])
        with rec.span("classify.predict") as s_pred:
            rn.predict_nsc(clf, tbank)
        out.update({
            "spectral.load_ms": s_load.ms,
            "spectral.save_ms": s_save.ms,
            "spectral.forward_ms": s_fwd.ms,
            "datagen.augment_ms": s_aug.ms,
            "classify.fit_ms": s_fit.ms,
            "classify.predict_ms": s_pred.ms,
        })
        out.update(replay_classify(rec, bank))
        out.update(replay_tensorio(rec, inp.files))
        return out


WORKLOADS = {w.name: w for w in (DenseSphere, Inv1dRotation, Inv2dCli)}
