"""Reference probabilities on a fixed set of frames, recorded once and
checked on every benchmark run.

The frames and the network come from fixed seeds, independent of the
workload seed. Four vectors are recorded per frame size: the freshly
built network's probabilities in inference mode and in training mode; its
inference-mode probabilities after set_inference_state has given every
conv bias, gamma, beta, moving mean and moving variance a non-trivial
value, so that each of those terms moves the numbers (a fresh network's
BN inference is x / sqrt(1 + eps), which reads none of them); and its
training-mode probabilities after TRAIN_STEPS Adam steps on those frames,
which pass through every backward function. A fast path that changes the
numbers beyond TOLERANCE then fails the run instead of winning.

Inference mode after training is not recorded: the conv bias gradients are
zero up to float32 rounding, Adam scales that rounding up to updates near
its learning rate, and the moving BN statistics let those updates through,
so such probabilities differ from a float64 run by up to 0.06.

Record the file again only when a change is meant to alter the numbers:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("reference.json")
DATA_SEED = 20200515
NET_SEED = 5
VIDEOS = 2
FRAMES_PER_VIDEO = 4
SIZES = (16, 32, 128)  # smoke size, desk shape, paper shape
TRAIN_STEPS = 3
TRAIN_LR_AT_16PX = 0.01  # scaled by (16 / size)**2, as the dense fan-in grows with size**2
TOLERANCE = 1e-4  # absolute, on probabilities; float32 vs float64 differ by < 1e-5
STATE_SEED = 11


def set_inference_state(net) -> None:
    """Overwrite the conv biases and all BN tensors, in place, with values
    drawn from STATE_SEED. Tensors are found by their weights-file schema names."""
    rng = np.random.default_rng(STATE_SEED)
    draws = {
        "bias": lambda n: rng.normal(0.0, 0.1, n),
        "gamma": lambda n: rng.uniform(0.5, 1.5, n),
        "beta": lambda n: rng.normal(0.0, 0.2, n),
        "moving_mean": lambda n: rng.normal(0.0, 0.2, n),
        "moving_var": lambda n: rng.uniform(0.5, 2.0, n),
    }
    for name, tensor in net.state_tensors().items():
        layer, kind = name.split(".", 1)
        if layer.startswith(("conv", "bn")) and kind in draws:
            tensor[...] = draws[kind](tensor.size).reshape(tensor.shape)


def train_lr(size: int) -> float:
    """Keeps the trained probabilities away from the clamp at every size."""
    return TRAIN_LR_AT_16PX * (16 / size) ** 2


def compute(fg, size: int, workdir: Path) -> dict[str, list[float]]:
    """The recorded probability vectors on the fixed frames (see the module docstring)."""
    manifest = fg.data.generate_synthetic(
        VIDEOS, FRAMES_PER_VIDEO, size, DATA_SEED, workdir / f"reference{size}", split="test"
    )
    batch = fg.data.assemble_batch(manifest, list(range(len(manifest.rows))))
    net = fg.model.build(fg.model.NetworkConfig(height=size, width=size, seed=NET_SEED))
    initial, _ = fg.model.forward(net, batch.x, training=False)
    adam = fg.optim.AdamState(lr=train_lr(size))
    for step in range(TRAIN_STEPS):
        probs, cache = fg.model.forward(net, batch.x, training=True)
        if step == 0:
            training = probs
        grads = fg.model.backward(net, cache, batch.y)
        fg.optim.adam_step(net.parameters(), grads, adam)
    trained, _ = fg.model.forward(net, batch.x, training=True)
    net = fg.model.build(fg.model.NetworkConfig(height=size, width=size, seed=NET_SEED))
    set_inference_state(net)
    inference, _ = fg.model.forward(net, batch.x, training=False)
    return {
        "initial": [float(p) for p in initial],
        "training": [float(p) for p in training],
        "trained": [float(p) for p in trained],
        "inference_state": [float(p) for p in inference],
    }


def check(fg, size: int, workdir: Path) -> tuple[bool, str]:
    """Compare fresh probabilities with the recorded ones at `size`."""
    recorded = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))["sizes"]
    if str(size) not in recorded:
        return False, f"no reference recorded at {size}px"
    expected = recorded[str(size)]
    actual = compute(fg, size, workdir)
    worst = 0.0
    for key, values in expected.items():
        got = actual[key]
        if len(got) != len(values):
            return False, f"{key}: {len(got)} probabilities, expected {len(values)}"
        for want, have in zip(values, got):
            if not math.isfinite(have):
                return False, f"{key}: non-finite probability {have}"
            worst = max(worst, abs(want - have))
    ok = worst <= TOLERANCE
    return ok, f"max |difference| {worst:.3g} over {VIDEOS * FRAMES_PER_VIDEO} frames (tolerance {TOLERANCE:g})"


def main() -> int:
    from program import ROOT, import_program

    fg = import_program()
    workdir = ROOT / ".bench_out" / "reference"
    try:
        sizes = {str(size): compute(fg, size, workdir) for size in SIZES}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "data_seed": DATA_SEED,
        "net_seed": NET_SEED,
        "frames": VIDEOS * FRAMES_PER_VIDEO,
        "train_steps": TRAIN_STEPS,
        "state_seed": STATE_SEED,
        "train_lr": {str(size): train_lr(size) for size in SIZES},
        "tolerance": TOLERANCE,
        "sizes": sizes,
    }
    REFERENCE_FILE.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_FILE.name} for sizes {', '.join(sizes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
