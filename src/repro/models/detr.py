"""DETR (DEtection TRansformer) — the transformer-based detector of Table 2.

ResNet-50 backbone, 1x1 input projection to the transformer width, six encoder and
six decoder layers (d_model 256, 8 heads, FFN 2048), 100 learned object queries and
MLP box / linear class heads — the configuration of Carion et al., which lands at
~41.5 M parameters as quoted in the paper's Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.models.blocks.resnet import resnet18_backbone, resnet50_backbone
from repro.nn import functional as F
from repro.nn.layers.attention import TransformerDecoderLayer, TransformerEncoderLayer
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.linear import Linear
from repro.nn.layers.norm import LayerNorm
from repro.nn.layers.activation import ReLU
from repro.nn.module import Module, ModuleList, Parameter, Sequential
from repro.nn.tensor import Tensor
from repro.utils.rng import spawn_rng


@dataclass
class DetrConfig:
    """Architecture hyper-parameters of DETR."""

    num_classes: int = 3
    hidden_dim: int = 256
    num_heads: int = 8
    ffn_dim: int = 2048
    num_encoder_layers: int = 6
    num_decoder_layers: int = 6
    num_queries: int = 100
    image_size: int = 640
    backbone: str = "resnet50"
    seed: int = 17


class TokenFlatten(Module):
    """Flatten a ``(B, D, H, W)`` feature map into ``(B, H*W, D)`` tokens."""

    def forward(self, x: Tensor) -> Tensor:
        batch, dim, height, width = x.shape
        return x.reshape(batch, dim, height * width).transpose(0, 2, 1)


class QueryEmbedding(Module):
    """The learned object queries, broadcast over the batch of ``memory``."""

    def __init__(self, num_queries: int, hidden_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.weight = Parameter(
            (rng.standard_normal((num_queries, hidden_dim)) * 0.02).astype(np.float32),
            name="query_embed",
        )

    def forward(self, memory: Tensor) -> Tensor:
        return Tensor(np.broadcast_to(
            self.weight.data[None, :, :], (memory.shape[0], *self.weight.shape)).copy())


class Detr(Module):
    """DETR detector returning per-query class logits and normalised boxes."""

    def __init__(self, config: Optional[DetrConfig] = None) -> None:
        super().__init__()
        self.config = config or DetrConfig()
        cfg = self.config
        rng = spawn_rng("detr", cfg.seed)

        if cfg.backbone == "resnet50":
            self.backbone = resnet50_backbone(rng=rng)
        else:
            self.backbone = resnet18_backbone(rng=rng)
        backbone_channels = self.backbone.stage_channels["c5"]
        self.input_proj = Conv2d(backbone_channels, cfg.hidden_dim, 1, 1, 0, rng=rng)
        self.flatten = TokenFlatten()

        self.encoder = ModuleList([
            TransformerEncoderLayer(cfg.hidden_dim, cfg.num_heads, cfg.ffn_dim, rng=rng)
            for _ in range(cfg.num_encoder_layers)
        ])
        self.decoder = ModuleList([
            TransformerDecoderLayer(cfg.hidden_dim, cfg.num_heads, cfg.ffn_dim, rng=rng)
            for _ in range(cfg.num_decoder_layers)
        ])
        self.encoder_norm = LayerNorm(cfg.hidden_dim)
        self.decoder_norm = LayerNorm(cfg.hidden_dim)

        self.query_embed = QueryEmbedding(cfg.num_queries, cfg.hidden_dim, rng)
        # Class head predicts num_classes + 1 ("no object") logits per query.
        self.class_head = Linear(cfg.hidden_dim, cfg.num_classes + 1, rng=rng)
        self.box_head = Sequential(
            Linear(cfg.hidden_dim, cfg.hidden_dim, rng=rng), ReLU(),
            Linear(cfg.hidden_dim, cfg.hidden_dim, rng=rng), ReLU(),
            Linear(cfg.hidden_dim, 4, rng=rng),
        )

    def forward(self, x: Tensor) -> Dict[str, Tensor]:
        features = self.backbone(x)["c5"]
        memory = self.flatten(self.input_proj(features))   # (B, H*W, D)
        for layer in self.encoder:
            memory = layer(memory)
        memory = self.encoder_norm(memory)

        queries = self.query_embed(memory)
        for layer in self.decoder:
            queries = layer(queries, memory)
        queries = self.decoder_norm(queries)

        class_logits = self.class_head(queries)
        boxes = F.sigmoid(self.box_head(queries))       # normalised cxcywh in [0, 1]
        return {"class_logits": class_logits, "boxes": boxes}

    def describe(self) -> Dict[str, float]:
        total = self.num_parameters()
        return {
            "name": "DETR",
            "parameters": total,
            "parameters_millions": total / 1e6,
            "num_classes": self.config.num_classes,
            "image_size": self.config.image_size,
        }


def detr_resnet50(num_classes: int = 3, image_size: int = 640) -> Detr:
    """The DETR configuration quoted in Table 2 (~41.5 M parameters)."""
    return Detr(DetrConfig(num_classes=num_classes, image_size=image_size))


def detr_lite(num_classes: int = 3, image_size: int = 128) -> Detr:
    """A small DETR (ResNet-18, 2+2 layers, 64-dim) for runnable integration tests."""
    config = DetrConfig(
        num_classes=num_classes, hidden_dim=64, num_heads=4, ffn_dim=128,
        num_encoder_layers=2, num_decoder_layers=2, num_queries=16,
        image_size=image_size, backbone="resnet18",
    )
    return Detr(config)
