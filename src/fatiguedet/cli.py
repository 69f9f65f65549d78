"""Command-line interface.

Subcommands: synth (generate labeled frames), train (fit PCA+SVM pipeline),
eval (cross-validated metrics), simulate (stream frames into the alert
unit), detect-train (train the synthetic face cascade).

Exit codes: 0 success, 1 usage error, 2 data error, 3 model error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from .detector import save_cascade
from .errors import ConfigError, DataError, ModelError, ParseError
from .pipeline import (
    CONFIG_KEYS,
    PipelineConfig,
    configure,
    evaluate,
    fit_and_score,
    infer_stream,
    ingest,
    load_pipeline,
    parse_config,
    read_text,
    render_config,
    save_pipeline,
)
from .synth import SyntheticSpec, train_face_cascade, write_dataset
from .textmodel import integer, real

logger = logging.getLogger(__name__)

USAGE_ERROR = 1
DATA_ERROR = 2
MODEL_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _load_config(args) -> PipelineConfig:
    """The config file, if any, then each override flag whose dest is a
    config key and which was given."""
    cfg = PipelineConfig()
    if getattr(args, "config", None):
        cfg = parse_config(read_text(args.config, ConfigError), cfg)
    cfg = configure({key: str(value) for key, value in vars(args).items()
                     if key in CONFIG_KEYS and value is not None}, cfg)
    if cfg.cascade_path in ("off", "none"):
        cfg = replace(cfg, cascade_path=None)
    return cfg


def cmd_synth(args) -> int:
    try:
        spec = SyntheticSpec(frame_w=args.frame_w, frame_h=args.frame_h,
                             n_frames=args.n_frames,
                             fraction_fatigued=args.fraction_fatigued,
                             jitter=args.jitter, noise_sigma=args.noise_sigma,
                             light_level=args.light, seed=args.seed)
    except ValueError as exc:  # the spec's range checks are the flags'
        print(f"fatiguedet synth: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    manifest = write_dataset(spec, args.out)
    print(f"wrote {spec.n_frames} frames and {manifest}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    records = ingest(args.manifest)
    model, acc, n_used = fit_and_score(records, cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    from .classifier import save_svm
    from .features import save_pca
    (out / "model.pca1").write_text(save_pca(model.pca))
    (out / "model.svm1").write_text(save_svm(model.svm))
    (out / "model.pipe1").write_text(save_pipeline(model))
    print(f"trained on {n_used} frames "
          f"(pca k={model.pca.k}, {len(model.svm.dual_coef)} support "
          f"vectors); training accuracy {acc:.4f}")
    print(f"wrote {out / 'model.pca1'}, {out / 'model.svm1'}, "
          f"{out / 'model.pipe1'}")
    return 0


def _load_model(path: str):
    return load_pipeline(read_text(path, ParseError))


def cmd_eval(args) -> int:
    model = _load_model(args.model)
    records = ingest(args.manifest)
    report = evaluate(model, records, folds=args.folds, seed=args.seed)
    sys.stdout.write(report.to_text())
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(report.to_dict(),
                                                  indent=2) + "\n")
        print(f"wrote {args.json_out}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    model = _load_model(args.model)
    records = ingest(args.manifest)
    frames = (r.load_image() for r in records)
    stream = infer_stream(model, frames, cfg.alert,
                          no_face_policy=cfg.no_face_policy,
                          boxes=[r.box for r in records])
    text = stream.render()
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({len(stream.trace.events)} events, "
              f"{stream.skipped} skipped frames)")
    else:
        sys.stdout.write(text)
    return 0


def _stage_rounds(text: str) -> tuple[int, ...]:
    try:
        rounds = tuple(integer(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if min(rounds) < 1:
        raise argparse.ArgumentTypeError(
            f"every stage needs at least 1 round, got {text!r}")
    return rounds


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = integer(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, "
                                             f"got {text!r}")
        return value

    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _rate(text: str) -> float:
    value = real(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"expected a rate in (0, 1], "
                                         f"got {text!r}")
    return value


def cmd_detect_train(args) -> int:
    cascade = train_face_cascade(n_frames=args.n_frames, seed=args.seed,
                                 stage_rounds=args.stage_rounds,
                                 target_detection_rate=args.target_rate,
                                 feature_step=args.feature_step)
    Path(args.out).write_text(save_cascade(cascade))
    sizes = ", ".join(str(len(s.weak)) for s in cascade.stages)
    print(f"wrote {args.out} ({len(cascade.stages)} stages with "
          f"[{sizes}] weak classifiers)")
    return 0


def cmd_default_config(args) -> int:
    sys.stdout.write(render_config(PipelineConfig()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fatiguedet",
                     description="Driver fatigue detection pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate synthetic frames")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-frames", type=integer, default=100)
    p.add_argument("--fraction-fatigued", type=real, default=0.5)
    p.add_argument("--frame-w", type=integer, default=160)
    p.add_argument("--frame-h", type=integer, default=160)
    p.add_argument("--jitter", type=integer, default=6)
    p.add_argument("--noise-sigma", type=real, default=8.0)
    p.add_argument("--light", choices=["normal", "dim"], default="normal")
    p.add_argument("--seed", type=integer, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit the PCA+SVM pipeline")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--detector", dest="cascade_path",
                   help="cascade file, or 'off'")
    p.add_argument("--pca-k", dest="pca_k", type=integer)
    p.add_argument("--pca-variance", dest="pca_variance", type=real)
    p.add_argument("--svm-c", dest="svm_c", type=real)
    p.add_argument("--svm-kernel", dest="svm_kernel",
                   choices=["linear", "rbf"])
    p.add_argument("--svm-gamma", dest="svm_gamma", type=real)
    p.add_argument("--seed", type=integer)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="cross-validated metrics")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True, help="PIPE1 model file")
    p.add_argument("--folds", type=_int_at_least(2), default=5)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--json-out", help="machine-readable report path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate",
                       help="stream frames through the alert unit")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--config")
    p.add_argument("--t-low", dest="t_low", type=integer)
    p.add_argument("--t-high", dest="t_high", type=integer)
    p.add_argument("--alarm-duration", dest="alarm_duration", type=real)
    p.add_argument("--high-persist", dest="high_persist", type=real)
    p.add_argument("--water-spray", dest="water_spray",
                   action="store_const", const="on")
    p.add_argument("--sample-period", dest="sample_period", type=real)
    p.add_argument("--no-face-policy", dest="no_face_policy",
                   choices=["skip", "fatigued"])
    p.add_argument("--out", help="trace output path (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("detect-train",
                       help="train the synthetic face cascade")
    p.add_argument("--out", required=True, help="CASCADE1 output path")
    p.add_argument("--n-frames", type=_int_at_least(1), default=120)
    p.add_argument("--stage-rounds", type=_stage_rounds, default="4,10",
                   help="comma-separated boosting rounds per stage")
    p.add_argument("--target-rate", type=_rate, default=0.99)
    p.add_argument("--feature-step", type=_int_at_least(1), default=2)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=cmd_detect_train)

    p = sub.add_parser("default-config",
                       help="print the default config file")
    p.set_defaults(func=cmd_default_config)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    parser = build_parser()
    try:
        if any("\0" in arg for arg in argv or ()):  # sys.argv never has one
            parser.error("an argument holds a NUL byte")
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return MODEL_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
