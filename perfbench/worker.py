"""Run one benchmark workload in this (fresh) process and print a JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|run|trace|record --tmp DIR [--spans FILE]

`run.py` starts one of these per measurement, so every workload pays its
own imports and caches and `ru_maxrss` is the workload's alone. Modes:

- setup:  set up, report the set-up time, exit;
- run:    set up, then run ops untraced for at least `--seconds`;
- trace:  as run, with every layer wrapped in spans (spans.py);
- record: set up at the given seed, run one op and store its outputs as
          the references in perfbench/refs/ (only meaningful at seed 42,
          on a commit whose outputs are known good).

Set-up time counts from the first statement of this file: imports, config
parse, scenario build and warm-up (`_transfer` and the first frame), and
for replay-gsim writing the input file. Every op's outputs are checked
after its timer stops; an op that raises or fails its check is counted
as failed and its time is not used.

The ghostsim code under test is only reached through its public entry
points: `ghostsim.cli.main`, `simulate_stream`, `IgiAccumulator`,
`load_series`/`save_series` and `gi_reconstruct`/`igi_reconstruct`.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import filecmp  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import ghostsim  # noqa: E402
from ghostsim import cli, config, measurement, presets, reconstruct  # noqa: E402

_IMPORTED = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
REFS = Path(__file__).resolve().parent / "refs"
REF_SEED = 42
RTOL = 1e-9  # the relative tolerance of tests/test_acceptance.py
PEARSON_FLOOR = 0.8  # preset IGI floor in calibration/calibration.md


class CheckFailed(Exception):
    pass


def noise_seed(seed: int) -> int:
    return 101 * seed  # 42 -> 4242, the presets' pair


def seeded_preset(name: str, seed: int) -> dict:
    cfg = presets.preset_config(name)
    cfg["speckle"]["seed"] = seed
    cfg["noise"]["seed"] = noise_seed(seed)
    return cfg


def _finite(name: str, image: np.ndarray) -> None:
    if not np.all(np.isfinite(image)):
        raise CheckFailed(f"{name} has non-finite pixels")


def _rel_dev(actual: np.ndarray, expected: np.ndarray) -> float:
    return float(np.max(np.abs(actual - expected))) / float(np.max(np.abs(expected)))


def _scenario(cfg: dict, mask: np.ndarray) -> ghostsim.Scenario:
    sp, nz = cfg["speckle"], cfg["noise"]
    params = ghostsim.SpeckleParams(
        width=sp["width"], height=sp["height"], grain_radius=sp["grain_radius"],
        mean_intensity=sp["mean_intensity"], seed=sp["seed"],
    )
    waveform = ghostsim.NoiseWaveform(
        kind=nz["kind"], amplitude=nz.get("amplitude", 0.0), frequency=nz["frequency"],
        phase=nz["phase"], sample_rate=nz["sample_rate"], seed=nz["seed"],
    )
    return ghostsim.Scenario(
        speckle=params, object_mask=mask, count=cfg["count"],
        noise=ghostsim.NoiseSpec(waveform=waveform, position=nz["position"]),
    )


class Workload:
    """Set-up, one op and its check. Facts describe one op, for spans.py."""

    name = ""
    records = 0       # ordinals carried through to a finished reconstruction
    max_n = 0         # largest N one op runs
    cube_frames = 0   # frames in the largest frame cube one op materializes
    recon_reads = 0   # frame reads by GI/IGI: 2 per frame each for GI and IGI
    grid = 64

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def config(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        text = json.dumps(self.config())
        self.cfg = config.parse_config_text(text, path=f"<{self.name}>")
        self.mask = ghostsim.builtin_mask(self.cfg["object"]["builtin"], self.grid, self.grid)
        self.scenario = _scenario(self.cfg, self.mask)
        self.warm_up(text)

    def warm_up(self, text: str) -> None:
        ghostsim.generate_frame(self.scenario.speckle, 1)

    def facts(self) -> dict:
        pixels = self.grid * self.grid
        return {
            "records": self.records, "max_n": self.max_n, "frame_pixels": pixels,
            "cube_mb": self.cube_frames * pixels * 8 / 1e6,
            "recon_bytes": self.recon_reads * pixels * 8, "gsim_bytes": self.gsim_bytes(),
        }

    def gsim_bytes(self) -> int:
        return 0

    def op(self):
        raise NotImplementedError

    def check(self, result) -> dict:
        """Raise CheckFailed on a wrong output; return the outputs to compare."""
        raise NotImplementedError

    def after_op(self) -> None:
        """Remove what one op wrote; runs after its check, untimed."""

    def cleanup(self) -> None:
        pass

    def compare(self, outputs: dict) -> None:
        if self.seed != REF_SEED:
            return
        with np.load(REFS / f"{self.name}.npz") as refs:
            for key, actual in outputs.items():
                expected = refs[key]
                if actual.shape != expected.shape:
                    raise CheckFailed(f"{key}: shape {actual.shape} != reference {expected.shape}")
                if key == "sweep":
                    bad = ~np.isclose(actual, expected, rtol=RTOL, atol=0.0)
                    if bad.any():
                        raise CheckFailed(f"sweep.csv differs from the reference at {np.argwhere(bad).tolist()}")
                elif _rel_dev(actual, expected) > RTOL:
                    raise CheckFailed(f"{key}: relative deviation {_rel_dev(actual, expected):.3e} > {RTOL}")


class CliWorkload(Workload):
    """An op is one `ghostsim.cli.main` call writing into a fresh directory."""

    def warm_up(self, text: str) -> None:
        super().warm_up(text)
        self.cfg_path = self.tmp / "config.json"
        self.cfg_path.write_text(text)
        self.out = self.tmp / "out"

    def argv(self) -> list[str]:
        raise NotImplementedError

    def op(self):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = cli.main(self.argv())
        return code

    def check(self, code) -> dict:
        if code != 0:
            raise CheckFailed(f"ghostsim exited with {code}")
        return self.check_outputs()

    def after_op(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


class PresetB(CliWorkload):
    """The position-B preset with the workload's seeds, through `ghostsim run`."""

    name = "preset-B"
    records = max_n = cube_frames = 20000
    recon_reads = 4 * 20000

    def config(self) -> dict:
        return seeded_preset("position-B", self.seed)

    def argv(self) -> list[str]:
        return ["run", str(self.cfg_path), "--out", str(self.out)]

    def check_outputs(self) -> dict:
        gi = reconstruct.load_f64(self.out / "gi.f64")
        igi = reconstruct.load_f64(self.out / "igi.f64")
        _finite("gi", gi)
        _finite("igi", igi)
        r = json.loads((self.out / "metrics_igi.json").read_text())["pearson_r"]
        if not r >= PEARSON_FLOOR:
            raise CheckFailed(f"IGI pearson_r {r} < {PEARSON_FLOOR}")
        return {"gi": gi, "igi": igi}


class SweepN(CliWorkload):
    """`ghostsim sweep --axis N` over a position-A config with amplitude_rel_std."""

    name = "sweep-N"
    values = (1000, 2000, 4000, 8000)
    records = sum(values)
    max_n = cube_frames = max(values)
    recon_reads = 4 * sum(values)

    def config(self) -> dict:
        return seeded_preset("position-A", self.seed)

    def argv(self) -> list[str]:
        values = ",".join(str(v) for v in self.values)
        return ["sweep", str(self.cfg_path), "--axis", "N", "--values", values, "--out", str(self.out)]

    def check_outputs(self) -> dict:
        with open(self.out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if [row["status"] for row in rows] != ["ok"] * len(self.values):
            raise CheckFailed(f"sweep rows not all ok: {[row['status'] for row in rows]}")
        table = np.array([[float(row[k]) for k in ("value", "gi_pearson_r", "igi_pearson_r", "validity_ratio")]
                          for row in rows])
        _finite("sweep.csv", table)
        return {"sweep": table}


class Stream256(Workload):
    """simulate_stream into IgiAccumulator at 256x256: O(w*h) memory, speckle-bound."""

    name = "stream-256"
    grid = 256
    records = max_n = 1000
    recon_reads = 2 * 1000  # each push reads the new frame and the previous one

    def config(self) -> dict:
        return {
            "speckle": {"width": self.grid, "height": self.grid, "grain_radius": 2.0, "seed": self.seed},
            "object": {"builtin": "TH"},
            "count": self.records,
            # ~200 clean-bucket standard deviations (about 500 here), 4 periods over the run
            "noise": {"position": "B", "kind": "sinusoid", "amplitude": 1.0e5, "frequency": 0.1,
                      "sample_rate": 25.0, "seed": noise_seed(self.seed)},
        }

    def op(self):
        acc = reconstruct.IgiAccumulator(self.grid, self.grid)
        for record in measurement.simulate_stream(self.scenario):
            acc.push(record)
        return acc.finalize()

    def check(self, igi) -> dict:
        _finite("igi", igi)
        return {"igi": igi}


class ReplayGsim(Workload):
    """Read a .gsim container, reconstruct GI and IGI, write the series back.

    The input holds i.i.d. negative-exponential frames (the per-pixel law of
    developed speckle, without its spatial correlation) drawn from the seed,
    and a position-B bucket built from them. No op cost depends on pixel
    values, and drawing them takes well under a second where simulating
    20 000 speckle frames would take about 6 s of every set-up.
    """

    name = "replay-gsim"
    records = max_n = cube_frames = 20000
    recon_reads = 4 * 20000

    def config(self) -> dict:
        return seeded_preset("position-B", self.seed)

    def warm_up(self, text: str) -> None:
        n, grid = self.records, self.grid
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        frames = rng.standard_exponential((n, grid, grid), dtype=np.float32)
        flat_mask = self.mask.ravel()
        clean = np.concatenate([f.reshape(len(f), -1).astype(np.float64) @ flat_mask
                                for f in np.array_split(frames, 10)])
        nz = self.cfg["noise"]
        waveform = ghostsim.NoiseWaveform(
            kind=nz["kind"], amplitude=nz["amplitude_rel_std"] * float(clean.std()), frequency=nz["frequency"],
            phase=nz["phase"], sample_rate=nz["sample_rate"], seed=nz["seed"],
        )
        s = clean + np.array([ghostsim.noise_value(waveform, k) for k in range(1, n + 1)])
        self.input = self.tmp / "input.gsim"
        self.output = self.tmp / "output.gsim"
        measurement.save_series(ghostsim.MeasurementSeries(s=s, frames=frames), self.input)

    def gsim_bytes(self) -> int:
        return 2 * self.input.stat().st_size

    def op(self):
        series = measurement.load_series(self.input)
        gi = reconstruct.gi_reconstruct(series)
        igi = reconstruct.igi_reconstruct(series)
        measurement.save_series(series, self.output)
        return gi, igi

    def check(self, result) -> dict:
        gi, igi = result
        _finite("gi", gi)
        _finite("igi", igi)
        if not filecmp.cmp(self.input, self.output, shallow=False):
            raise CheckFailed("rewritten .gsim differs from the file it was read from")
        return {"gi": gi, "igi": igi}

    def after_op(self) -> None:
        self.output.unlink(missing_ok=True)

    def cleanup(self) -> None:
        self.input.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (PresetB, Stream256, SweepN, ReplayGsim)}


def run_ops(wl: Workload, seconds: float, tracer) -> dict:
    op_s, ok_ops, errors = [], [], []
    attempted = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.op = attempted
        attempted += 1
        try:
            t0 = time.perf_counter()
            result = wl.op()
            elapsed = time.perf_counter() - t0
            wl.compare(wl.check(result))
        except Exception as exc:  # a failed op is counted and reported, not fatal
            errors.append(f"op {attempted}: {type(exc).__name__}: {exc}")
            continue
        finally:
            if tracer is not None:
                tracer.op = None
            wl.after_op()
        op_s.append(elapsed)
        ok_ops.append(attempted - 1)
    return {"attempted": attempted, "failed": len(errors), "errors": errors, "op_s": op_s, "ok_ops": ok_ops}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace", "record"))
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spans", default=None, help="where trace mode writes its spans")
    args = parser.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(ghostsim.__file__).resolve().parents:
        print(f"error: ghostsim imported from {ghostsim.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.mode == "trace":
        from spans import OP, Tracer, op_layer_metrics

        tracer = Tracer()
        tracer.install()
    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, tmp)
    wl.setup()
    result = {"setup_s": time.perf_counter() - _T0, "import_s": _IMPORTED - _T0}
    try:
        if args.mode == "record":
            outputs = wl.check(wl.op())
            wl.after_op()
            REFS.mkdir(exist_ok=True)
            np.savez_compressed(REFS / f"{wl.name}.npz", **outputs)
            result["recorded"] = sorted(outputs)
        elif args.mode in ("run", "trace"):
            if tracer is not None:
                wl.op = tracer.wrap(OP, wl.op)
            result.update(run_ops(wl, args.seconds, tracer))
            result["records"] = wl.records
            result["facts"] = wl.facts()
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer is not None:
                rows = tracer.self_times()
                per_op = [op_layer_metrics(rows[k], wl.facts()) for k in result["ok_ops"]]
                result["layers"] = {k: float(np.mean([m[k] for m in per_op])) for k in per_op[0]} if per_op else {}
                result["layers"]["config.parse_s"] = rows[None]["config.parse"][2]
                if args.spans:
                    tracer.dump(args.spans)
    finally:
        wl.cleanup()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
