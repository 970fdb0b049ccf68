"""The deterministic "pretrained" base model.

The paper evaluates a MobileNetV2 pretrained on ImageNet — a model whose
training distribution (web photos) differs from its test distribution
(phone photos of a monitor). We reproduce that structure: the base
MicroMobileNet is trained on scenes photographed through a *generic*
camera (not any fleet phone) with photometric augmentation, never on the
evaluation phones themselves. Each fleet phone's photos are then
in-family but individually skewed, which puts a realistic fraction of
them near the decision boundary.

Training is seeded and the resulting weights are cached on disk
(``.cache/repro/`` by default), so every experiment and benchmark shares
one base model, like the paper's single fixed-weight MobileNetV2 (§3.2).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from ..scenes.dataset import SceneDataset, build_dataset
from .model import Model, micro_mobilenet
from .optim import Adam
from .preprocess import to_model_input
from .train import TrainConfig, fit

__all__ = ["PretrainConfig", "render_training_set", "load_pretrained", "train_base_model"]


@dataclass(frozen=True)
class PretrainConfig:
    """Everything that determines the base model's weights."""

    per_class: int = 44
    scenes_per_object: int = 2
    epochs: int = 26
    batch_size: int = 64
    lr: float = 2.5e-3
    seed: int = 7
    augment_copies: int = 3
    extra_embedding_layer: bool = False

    def cache_key(self) -> str:
        text = (
            f"v3|{self.per_class}|{self.scenes_per_object}|{self.epochs}|"
            f"{self.batch_size}|{self.lr}|{self.seed}|{self.augment_copies}|"
            f"{self.extra_embedding_layer}"
        )
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _augment(
    x: np.ndarray, rng: np.random.Generator, copies: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Generic photometric augmentation (brightness / noise / shift).

    Deliberately *not* phone-specific: the base model must not have seen
    the capture pipelines it will be evaluated on, mirroring how ImageNet
    pretraining never saw the paper's five phones.
    """
    from scipy import ndimage

    outs = [x]
    for _ in range(copies):
        aug = x.copy()
        # Global and per-channel gain (exposure / white balance drift).
        gains = rng.uniform(0.85, 1.15, (len(x), 1, 1, 1)).astype(np.float32)
        channel_gains = rng.uniform(0.92, 1.08, (len(x), 3, 1, 1)).astype(np.float32)
        aug = aug * gains * channel_gains
        # Mild defocus (camera-like softness, applied per batch for speed).
        sigma = float(rng.uniform(0.0, 0.8))
        if sigma > 0.1:
            aug = ndimage.gaussian_filter1d(aug, sigma, axis=2, mode="nearest")
            aug = ndimage.gaussian_filter1d(aug, sigma, axis=3, mode="nearest")
        aug = aug + rng.normal(0.0, 0.05, aug.shape).astype(np.float32)
        shift = rng.integers(-2, 3, size=2)
        aug = np.roll(aug, (int(shift[0]), int(shift[1])), axis=(2, 3))
        outs.append(np.clip(aug, -1.0, 1.0).astype(np.float32))
    factor = copies + 1
    return np.concatenate(outs, axis=0), factor


def render_training_set(
    config: PretrainConfig, dataset: Optional[SceneDataset] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Render the base model's training tensors (pre-augmentation).

    Every scene is photographed through a *generic* camera (a sensor and
    neutral ISP that belong to no phone in either fleet) before being
    tensorized. This mirrors ImageNet pretraining: the paper's base
    MobileNetV2 learned from camera photographs in general, so photos
    from any particular phone are in-family but individually skewed —
    which is what confines prediction flips to genuinely borderline
    inputs rather than making every capture out-of-distribution.
    """
    from ..devices.phone import Phone
    from ..devices.profiles import DeviceProfile, _sensor
    from ..codecs.registry import decode_any
    from ..scenes.screen import Screen

    ds = dataset or build_dataset(
        per_class=config.per_class,
        scenes_per_object=config.scenes_per_object,
        include_distractors=True,
        seed=config.seed,
    )
    generic = DeviceProfile(
        name="generic_pretrain_camera",
        model_code="N/A",
        sensor=_sensor(
            sensitivity=(0.57, 1.0, 0.63),
            exposure=0.85,
            full_well=25000,
            read_noise=0.002,
            vignetting=0.08,
            blur=0.6,
            chroma_ab=0.001,
            seed=99,
        ),
        isp="imagemagick",
        save_format="jpeg",
        save_quality=88,
    )
    camera = Phone(generic)
    screen = Screen(seed=config.seed)
    rng = np.random.default_rng(config.seed + 2)
    images = []
    for item in ds:
        radiance = screen.display(item.scene.render(96, 96))
        images.append(decode_any(camera.photograph(radiance, rng)))
    x = to_model_input(images)
    y = ds.labels()
    return x, y


def train_base_model(
    config: PretrainConfig, verbose: bool = False
) -> Model:
    """Train the base model from scratch (no cache)."""
    x, y = render_training_set(config)
    rng = np.random.default_rng(config.seed + 1)
    x_aug, factor = _augment(x, rng, config.augment_copies)
    y_aug = np.tile(y, factor)

    model = micro_mobilenet(
        num_classes=8,
        seed=config.seed,
        extra_embedding_layer=config.extra_embedding_layer,
    )
    optimizer = Adam(model.trainable_layers(), lr=config.lr)

    def report(epoch, loss, _acc):  # pragma: no cover - logging only
        if verbose:
            print(f"  epoch {epoch + 1}/{config.epochs}: loss={loss:.4f}")

    fit(
        model,
        optimizer,
        x_aug,
        y_aug,
        TrainConfig(
            epochs=config.epochs,
            batch_size=config.batch_size,
            seed=config.seed,
            on_epoch_end=report,
        ),
    )
    return model


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / ".cache" / "repro"


def load_pretrained(
    config: Optional[PretrainConfig] = None, verbose: bool = False
) -> Model:
    """Load the cached base model, training and caching it if absent.

    A cache file that cannot be read (truncated by a killed writer,
    bit-flipped, not an npz at all) is treated as a miss: the model is
    retrained and the file rewritten. Writes go to a temporary file in
    the same directory and are moved into place with ``os.replace``, so
    a reader never sees a partial file.
    """
    config = config or PretrainConfig()
    cache_dir = _cache_dir()
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"base_{config.cache_key()}.npz"

    model = micro_mobilenet(
        num_classes=8,
        seed=config.seed,
        extra_embedding_layer=config.extra_embedding_layer,
    )
    if path.exists():
        try:
            with np.load(path) as data:
                model.load_state_dict({k: data[k] for k in data.files})
            return model
        except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile, zlib.error):
            pass  # unreadable or mismatched cache entry: retrain and rewrite

    trained = train_base_model(config, verbose=verbose)
    _write_atomic(path, trained.state_dict())
    return trained


def _write_atomic(path: Path, arrays) -> None:
    """``np.savez_compressed`` to a same-directory temp file, then rename."""
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
