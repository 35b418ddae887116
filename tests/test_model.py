"""Parameter shape table and initialization tests."""

import hashlib
import math

import pytest

from patchcount.model import ModelConfig, init_params, param_shapes

TOY = dict(image_size=64, patch_size=8, dim=64, heads=4, layers=2, hidden_dim=64)

VARIANTS = {
    "gap": dict(TOY, head_variant="gap"),
    "token": dict(TOY, head_variant="token"),
    "token_final_ln": dict(TOY, head_variant="token", hidden_dim=32, final_ln=True),
}

# sha256 over (name, shape, bytes) of init_params(cfg, 0), in order, taken
# before init_params was rebuilt on param_shapes: the table must not move
# a single draw.
INIT_SHA256 = {
    "gap": "5ce5a9639f4f830f06af56ebafb57c3d90d13d3f0e941cf2612d0f05935e095d",
    "token": "49918e79e9d14aa94284fc4f5876fd8283800578b70619f4c6f32597ae5c86ca",
    "token_final_ln": "d4e07409d2e1e73e36c37b20aa334549f0ffa35dac19f5b33a09d3edfd5ec30b",
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_shape_table_matches_init_params_in_order(variant):
    cfg = ModelConfig(**VARIANTS[variant])
    for seed in (0, 5):
        got = {n: p.shape for n, p in init_params(cfg, seed).items()}
        assert list(param_shapes(cfg).items()) == list(got.items())


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_init_params_bits_pinned(variant):
    h = hashlib.sha256()
    for n, p in init_params(ModelConfig(**VARIANTS[variant]), 0).items():
        h.update(n.encode() + b"\0" + str(p.data.shape).encode() + p.data.tobytes())
    assert h.hexdigest() == INIT_SHA256[variant]


def test_paper_scale_parameter_count():
    shapes = param_shapes(ModelConfig())
    assert shapes["embed.pos"] == (576, 768)
    assert shapes["layer11.mlp.w1"] == (768, 3072)
    assert sum(math.prod(s) for s in shapes.values()) == 86_641_153


@pytest.mark.parametrize("field, value", [
    ("image_size", 0), ("patch_size", 0), ("dim", -8), ("dim", 8.0), ("heads", 0),
    ("layers", -1), ("layers", True), ("layers", "2"), ("hidden_dim", 8.0),
    ("final_ln", 1), ("final_ln", "false")])
def test_config_rejects_bad_type_or_range(field, value):
    with pytest.raises(ValueError, match=field):
        ModelConfig(**dict(TOY, **{field: value}))
