"""The four benchmark workloads: set-up, one timed repetition, checks.

Every input comes from the workload seed.  Dataset, pretrain and sweep
seeds are those of ``scripts/run_pipeline.sh`` shifted by 1000 per
workload seed, so seed 0 uses the script's own seeds.

* ``sweep``     default DatasetConfig, arch (16,64,64,8), a 16-config
                random-search sweep at workers=1 (6848 AdamW steps).
* ``sweep-par`` the same sweep at workers=max(2, nproc), through
                run_sweep's thread pool; its outputs must equal the
                serial ones.
* ``analysis``  set-up builds that sweep; the timed study runs the soups,
                ensembles, calibration and landscape analyses on it.
* ``cli``       the 18 commands of scripts/run_pipeline.sh, each as a
                ``python -m soupkit.cli`` subprocess, with the sweep's
                configs listed explicitly (see sweep_configs).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from soupkit import analysis, datagen, ensembles, soups, tensorstore, trainer
from soupkit.tinynet import ArchSpec, evaluate, loss_ce, predictions

from tracing import Tracer, adopt

HERE = Path(__file__).resolve().parent

ARCH = ArchSpec((16, 64, 64, 8))
SWEEP_COUNT = 16
# The low-learning-rate search space of scripts/run_pipeline.sh: every
# draw stays near the shared base, so no config diverges.
SPACE = trainer.SearchSpace(
    lr_exponent_range=(1.9, 2.9),
    wd_exponent_range=(2.0, 4.0),
    smoothing_max=0.2,
    epochs_range=(4, 10),
    mixup_max=0.4,
    mixup_off_probability=0.0,
)
ALPHAS = [i / 10 for i in range(11)]
PLANE_AXIS = [float(v) for v in np.linspace(-0.25, 1.25, 13)]


def workload_seeds(seed: int) -> dict[str, int]:
    return {"dataset": 7 + 1000 * seed, "pretrain": 11 + 1000 * seed, "sweep": 500 + 1000 * seed}


def pretrain_config(seed: int) -> trainer.HyperConfig:
    return trainer.HyperConfig(
        learning_rate=0.01, weight_decay=1e-4, epochs=3, batch_size=64,
        seed=workload_seeds(seed)["pretrain"],
    )


def sweep_configs(count: int, seed: int) -> list[trainer.HyperConfig]:
    """Random-search configs whose cost does not depend on the seed.

    Learning rate, decay, smoothing, mixup strength and training seed are
    drawn by the program's random search; epochs (4..10, cycled) and
    which configs use mixup (every odd one) are fixed, so every seed
    takes the same number of optimizer steps and mixup draws.  Otherwise
    run-to-run spread across seeds would measure the draw, not the code.
    """
    drawn = trainer.random_search_configs(count, workload_seeds(seed)["sweep"], SPACE)
    return [
        dataclasses.replace(h, epochs=4 + i % 7, mixup_alpha=h.mixup_alpha if i % 2 else 0.0)
        for i, h in enumerate(drawn)
    ]


@contextlib.contextmanager
def pinned_env(name: str, value: str):
    """Set an environment variable of this process for the block.

    (unittest.mock.patch.dict would do, but importing it adds some
    megabytes to the peak_rss_mb of every workload.)
    """
    old = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ[name]
        else:
            os.environ[name] = old


def train_steps(configs, num_train: int) -> int:
    return sum(h.epochs * -(-num_train // h.batch_size) for h in configs)


def sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def tree_digests(directory: Path, skip: tuple[str, ...] = ()) -> dict[str, str]:
    """SHA-256 of every file, plus content_digest of every checkpoint."""
    out = {}
    for path in sorted(directory.rglob("*")):
        rel = path.relative_to(directory).as_posix()
        if not path.is_file() or rel in skip:
            continue
        out[rel] = sha16(path.read_bytes())
        if path.suffix == ".ckpt":
            out[rel + "#content"] = tensorstore.content_digest(tensorstore.load(path))
    return out


def dataset_digest(ds: datagen.Dataset) -> str:
    h = hashlib.sha256()
    for name in datagen.SPLIT_NAMES:
        h.update(ds.splits[name].x.tobytes())
        h.update(ds.splits[name].y.tobytes())
    return h.hexdigest()[:16]


class Checker:
    """Counts checked artifacts and commands; never looks at a timing."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def same(self, what: str, got: dict, want: dict) -> None:
        for key in sorted(set(got) | set(want)):
            self.check(f"{what}: {key}", got.get(key) == want.get(key))


@dataclasses.dataclass
class Rep:
    """One timed repetition of a workload's study."""

    wall_s: float
    # Each soupkit command a CLI user would wait for; a library workload
    # runs its whole study in one process, which counts as one.
    op_s: list[float]
    steps: int = 0  # fine-tune optimizer steps taken
    checks: list[tuple[str, bool]] = dataclasses.field(default_factory=list)


class Workload:
    #: reference_digests.json section holding this workload's digests
    reference = ""

    def __init__(self, seed: int, work: Path, child_env: dict[str, str]) -> None:
        self.seed = seed
        self.work = work
        self.child_env = child_env
        # (optimizer steps, seconds) of training done in set-up, not timed
        self.setup_training: list[tuple[int, float]] = []

    def setup(self) -> None:
        """Build the inputs of the timed study."""

    def setup_digests(self) -> dict[str, str]:
        """Digests of what set-up built, taken outside its timing."""
        return {}

    def rep(self, out: Path, tracer: Tracer | None) -> Rep:
        raise NotImplementedError

    def digests(self, out: Path) -> dict[str, str]:
        """Digests of every artifact a repetition wrote under ``out``."""
        return tree_digests(out)

    def check(self, checker: Checker, out: Path, has_reference: bool) -> None:
        """Checks of the first repetition's outputs beyond digest equality.

        ``has_reference``: stored digests exist for this seed and the
        caller compares against them.
        """


class _Trained(Workload):
    """Set-up shared by the library workloads: data, base model, configs."""

    def setup(self) -> None:
        seeds = workload_seeds(self.seed)
        self.ds = datagen.generate(datagen.DatasetConfig(seed=seeds["dataset"]))
        self.theta0 = trainer.pretrain(ARCH, self.ds, pretrain_config(self.seed))
        self.configs = sweep_configs(SWEEP_COUNT, self.seed)
        self.steps = train_steps(self.configs, len(self.ds.train))
        # Warm-up: one epoch of the first config pays lazy one-time costs
        # (allocator arenas, BLAS thread start, first-call caches) here
        # rather than in the first timed sweep.
        trainer.finetune(self.theta0, dataclasses.replace(self.configs[0], epochs=1), self.ds)

    def setup_digests(self) -> dict[str, str]:
        return {
            "setup/dataset": dataset_digest(self.ds),
            "setup/theta0#content": tensorstore.content_digest(self.theta0),
        }

    def check_sweep(self, checker: Checker, out: Path) -> None:
        """Manifest entries succeeded, name the base, and re-evaluate exactly."""
        manifest = trainer.load_manifest(out / "manifest.json")
        base = tensorstore.content_digest(self.theta0)
        checker.check("manifest entry count", len(manifest.entries) == SWEEP_COUNT)
        for entry in manifest.entries:
            checker.check(f"entry {entry.index} succeeded", entry.error is None)
            if entry.error is not None:
                continue
            ckpt = tensorstore.load(manifest.checkpoint_path(entry))
            checker.check(f"entry {entry.index} base digest", ckpt.meta.get("base_digest") == base)
            accuracy = evaluate(ckpt, self.ds.val.x, self.ds.val.y).accuracy
            checker.check(f"entry {entry.index} val accuracy", accuracy == entry.val_accuracy)


class Sweep(_Trained):
    reference = "sweep"

    def __init__(self, seed: int, work: Path, child_env: dict[str, str], workers: int) -> None:
        super().__init__(seed, work, child_env)
        self.workers = workers

    def rep(self, out: Path, tracer: Tracer | None) -> Rep:
        # run_sweep caps its workers at SOUPKIT_THREADS; pinning the cap
        # keeps a caller's setting from making sweep-par run serially.
        with pinned_env("SOUPKIT_THREADS", str(self.workers)):
            workers = trainer.effective_workers(self.workers)
            t0 = time.perf_counter()
            manifest = trainer.run_sweep(
                self.theta0, self.configs, self.ds, out, max_workers=self.workers
            )
            wall = time.perf_counter() - t0
        checks = [(f"sweep on {self.workers} workers", workers == self.workers)]
        checks += [(f"entry {e.index} error-free", e.error is None) for e in manifest.entries]
        return Rep(wall_s=wall, op_s=[wall], steps=self.steps, checks=checks)

    def check(self, checker: Checker, out: Path, has_reference: bool) -> None:
        self.check_sweep(checker, out)
        # The stored digests are those of the serial sweep, so with them
        # at hand a serial run adds no check.
        if self.workers != 1 and not has_reference:
            serial = self.work / "serial"
            trainer.run_sweep(self.theta0, self.configs, self.ds, serial, max_workers=1)
            checker.same("parallel vs serial sweep", tree_digests(out), tree_digests(serial))


class Analysis(_Trained):
    reference = "analysis"

    def setup(self) -> None:
        super().setup()
        self.sweep_dir = self.work / "setup-sweep"
        t0 = time.perf_counter()
        manifest = trainer.run_sweep(self.theta0, self.configs, self.ds, self.sweep_dir, max_workers=1)
        self.setup_training.append((self.steps, time.perf_counter() - t0))
        self.configs_by_model = [e.config for e in manifest.successful()]
        self.models = manifest.load_checkpoints()

    def setup_digests(self) -> dict[str, str]:
        sweep = tree_digests(self.sweep_dir)
        return {**super().setup_digests(), **{f"setup/sweep/{k}": v for k, v in sweep.items()}}

    def _ops(self, out: Path) -> list:
        """The timed study: the analysis commands of the CLI pipeline run
        in-process on the 16-model sweep, plus approx and integral_oracle."""
        models, theta0 = self.models, self.theta0
        val, test = self.ds.val, self.ds.test
        splits = {"val": (val.x, val.y), "test": (test.x, test.y)}

        def ensemble_json(name: str, members: list[int]) -> None:
            logits = ensembles.logit_ensemble([models[i] for i in members], test.x)
            err = float(np.mean(predictions(logits) != test.y))
            payload = {"kind": name, "members": members, "loss": loss_ce(logits, test.y),
                       "top1_error": err}
            (out / f"ensemble_{name}.json").write_text(json.dumps(payload, sort_keys=True) + "\n")

        def greedy_ensemble() -> None:
            scorer = ensembles.ensemble_accuracy_fn(val.x, val.y)
            ensemble_json("greedy", ensembles.greedy_ensemble(models, scorer))

        def calibration() -> None:
            report = ensembles.calibration_report(
                ensembles.logit_ensemble(models, val.x), val.y,
                ensembles.logit_ensemble(models, test.x), test.y,
            )
            ensembles.write_calibration_csv(report, out / "calibration_ensemble.csv")

        def plane() -> None:
            matrix, basis = analysis.plane_landscape(
                theta0, models[0], models[1], PLANE_AXIS, PLANE_AXIS, test.x, test.y
            )
            analysis.write_plane_csv(matrix, PLANE_AXIS, PLANE_AXIS, basis, "loss", out / "plane.csv")

        def approx() -> None:
            pairs = [
                analysis.PairSpec(f"theta0-model{i}", theta0, models[i],
                                  self.configs_by_model[i].learning_rate)
                for i in range(4)
            ]
            report = analysis.approx_validation_report(pairs, ALPHAS, splits)
            analysis.write_approx_csv(report, out / "approx.csv")

        def oracle() -> None:
            gap = analysis.integral_oracle(theta0, models[0], 0.5, val.x)
            (out / "integral_oracle.npy").write_bytes(np.ascontiguousarray(gap).tobytes())

        return [
            lambda: soups.save_soup(soups.uniform_soup(models), out / "soup_uniform.ckpt"),
            lambda: soups.save_soup(
                soups.greedy_soup(models, soups.accuracy_fn(val.x, val.y)), out / "soup_greedy.ckpt"),
            lambda: soups.save_soup(
                soups.learned_soup(models, val.x, val.y, by_layer=True), out / "soup_learned.ckpt"),
            lambda: ensemble_json("uniform", list(range(len(models)))),
            greedy_ensemble,
            calibration,
            lambda: analysis.write_curve_csv(
                analysis.interpolation_curve(models[0], models[1], ALPHAS, splits), out / "interp.csv"),
            plane,
            lambda: analysis.write_grid_study_csv(
                analysis.grid_endpoint_study(models, test.x, test.y), out / "grid_study.csv"),
            approx,
            oracle,
        ]

    def rep(self, out: Path, tracer: Tracer | None) -> Rep:
        out.mkdir(parents=True)
        t0 = time.perf_counter()
        for op in self._ops(out):
            op()
        wall = time.perf_counter() - t0
        return Rep(wall_s=wall, op_s=[wall])

    def check(self, checker: Checker, out: Path, has_reference: bool) -> None:
        self.check_sweep(checker, self.sweep_dir)
        val = self.ds.val
        best = max(evaluate(m, val.x, val.y).accuracy for m in self.models)
        greedy = tensorstore.load(out / "soup_greedy.ckpt")
        checker.check("greedy soup >= best single model on val",
                      evaluate(greedy, val.x, val.y).accuracy >= best)
        ends = {0.0: self.models[0], 1.0: self.models[1]}
        rows = (out / "interp.csv").read_text().splitlines()[1:]
        for row in rows:
            alpha, split, loss, _ = row.split(",")
            if float(alpha) in ends and split == "val":
                want = evaluate(ends[float(alpha)], val.x, val.y).loss
                checker.check(f"interp endpoint alpha={alpha} equals its model", float(loss) == want)
        diagonal = [r.split(",") for r in (out / "grid_study.csv").read_text().splitlines()
                    if r and r[0].isdigit()]
        checker.check("grid-study diagonal advantage is 0",
                      all(float(c[-1]) == 0.0 for c in diagonal if c[0] == c[1]))


class Cli(Workload):
    reference = "cli"

    def config(self) -> dict:
        seeds = workload_seeds(self.seed)
        return {
            "dataset": {
                "input_dim": 10, "num_classes": 5, "num_train": 320, "num_val": 192,
                "num_test": 160, "num_shift": 160, "class_center_scale": 0.7,
                "within_class_std": 1.0, "seed": seeds["dataset"],
            },
            "arch": {"layer_widths": [10, 16, 5]},
            "pretrain": dataclasses.asdict(pretrain_config(self.seed)),
            "sweep": {"configs": [dataclasses.asdict(h) for h in sweep_configs(8, self.seed)]},
        }

    def setup(self) -> None:
        self.doc = self.config()
        trained = [pretrain_config(self.seed), *sweep_configs(8, self.seed)]
        self.steps = train_steps(trained, self.doc["dataset"]["num_train"])

    @staticmethod
    def commands() -> list[list[str]]:
        """scripts/run_pipeline.sh with OUT=pipeline, in its order."""
        out, data, sweep = "pipeline", "pipeline/data", "pipeline/sweep"
        manifest, config = f"{sweep}/manifest.json", f"{out}/config.json"
        cmds = [
            ["datagen", "--config", config, "--out", data],
            ["pretrain", "--config", config, "--data", data, "--out", f"{out}/theta0.ckpt"],
            ["sweep", "--config", config, "--data", data, "--base", f"{out}/theta0.ckpt", "--out", sweep],
            ["soup", "uniform", "--manifest", manifest, "--out", f"{out}/soup_uniform.ckpt"],
            ["soup", "greedy", "--manifest", manifest, "--data", data, "--out", f"{out}/soup_greedy.ckpt"],
            ["soup", "learned", "--manifest", manifest, "--data", data, "--by-layer",
             "--out", f"{out}/soup_learned.ckpt"],
            ["ensemble", "uniform", "--manifest", manifest, "--data", data,
             "--out", f"{out}/ensemble_uniform.json"],
            ["ensemble", "greedy", "--manifest", manifest, "--data", data,
             "--out", f"{out}/ensemble_greedy.json"],
        ]
        for ckpt in ("soup_uniform", "soup_greedy", "soup_learned"):
            cmds.append(["eval", "--ckpt", f"{out}/{ckpt}.ckpt", "--data", data, "--split", "test",
                         "--out", f"{out}/eval_{ckpt}.json"])
        cmds += [
            ["eval", "--ckpt", f"{sweep}/model_000.ckpt", "--data", data, "--split", "test",
             "--out", f"{out}/eval_model_000.json"],
            ["interp", "--ckpt-a", f"{sweep}/model_000.ckpt", "--ckpt-b", f"{sweep}/model_001.ckpt",
             "--data", data, "--splits", "val,test", "--out", f"{out}/interp_model0_model1.csv"],
            ["plane", "--ckpt-a", f"{out}/theta0.ckpt", "--ckpt-b", f"{sweep}/model_000.ckpt",
             "--ckpt-c", f"{sweep}/model_001.ckpt", "--data", data, "--split", "test",
             "--x-range=-0.25:1.25:13", "--y-range=-0.25:1.25:13", "--out", f"{out}/plane.csv"],
            ["grid-study", "--manifest", manifest, "--data", data, "--split", "test",
             "--out", f"{out}/grid_study.csv"],
            ["calibrate", "--manifest", manifest, "--data", data,
             "--out", f"{out}/calibration_ensemble.csv"],
            ["calibrate", "--ckpt", f"{out}/soup_greedy.ckpt", "--data", data,
             "--out", f"{out}/calibration_soup.csv"],
            ["report", "--manifest", manifest,
             "--soup", f"{out}/soup_uniform.ckpt.soup.json",
             "--soup", f"{out}/soup_greedy.ckpt.soup.json",
             "--soup", f"{out}/soup_learned.ckpt.soup.json",
             "--eval-report", f"{out}/eval_soup_greedy.json",
             "--eval-report", f"{out}/eval_model_000.json",
             "--out", f"{out}/report.json"],
        ]
        return cmds

    def rep(self, out: Path, tracer: Tracer | None) -> Rep:
        (out / "pipeline").mkdir(parents=True)
        (out / "pipeline" / "config.json").write_text(json.dumps(self.doc, indent=2) + "\n")
        spans_dir = self.work / "child-spans"
        spans_dir.mkdir(exist_ok=True)
        op_s, checks = [], []
        t0 = time.perf_counter()
        for i, argv in enumerate(self.commands()):
            if tracer is None:
                cmd = [sys.executable, "-m", "soupkit.cli", *argv]
            else:
                spans_path = spans_dir / f"{i:02d}.json"
                cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *argv]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=out, env=self.child_env, capture_output=True)
            end = time.perf_counter()
            op_s.append(end - start)
            checks.append((f"command {i} ({' '.join(argv[:2])}) exit code {proc.returncode}",
                           proc.returncode == 0))
            if tracer is not None:
                child = json.loads(spans_path.read_text())
                sid = tracer.record(f"cli.{argv[0]}", start, end, {"main_s": child["main_s"]})
                adopt(tracer, child["spans"], sid, offset=(i + 1) * 10**8)
        return Rep(wall_s=time.perf_counter() - t0, op_s=op_s, steps=self.steps, checks=checks)

    def digests(self, out: Path) -> dict[str, str]:
        return tree_digests(out / "pipeline", skip=("config.json",))

    def check(self, checker: Checker, out: Path, has_reference: bool) -> None:
        report = json.loads((out / "pipeline" / "report.json").read_text())
        checker.check("report: all 8 sweep entries succeeded",
                      report["sweep"]["successful"] == 8 and report["sweep"]["failed"] == 0)
        for name in ("uniform", "greedy", "learned"):
            sidecar = json.loads((out / "pipeline" / f"soup_{name}.ckpt.soup.json").read_text())
            ckpt = tensorstore.load(out / "pipeline" / f"soup_{name}.ckpt")
            checker.check(f"soup {name} sidecar digest", sidecar["digest"] == tensorstore.content_digest(ckpt))


def make(name: str, seed: int, work: Path, child_env: dict[str, str]) -> Workload:
    nproc = len(os.sched_getaffinity(0))
    if name == "sweep":
        return Sweep(seed, work, child_env, workers=1)
    if name == "sweep-par":
        # at least two, so that the thread pool is used on one CPU too
        return Sweep(seed, work, child_env, workers=max(2, nproc))
    if name == "analysis":
        return Analysis(seed, work, child_env)
    if name == "cli":
        return Cli(seed, work, child_env)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("sweep", "sweep-par", "analysis", "cli")
