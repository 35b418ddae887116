"""Property tests for the trust boundary: every input to a file reader either
parses or raises the reader's typed error (PPMError, LabelsError,
CheckpointError, ConfigError), never another exception.

The runs are derandomized and capped, so they are repeatable and cheap.
"""

import json
import math
import os
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from patchcount import optim  # noqa: E402
from patchcount.cli import _SCHEMA, ConfigError, parse_config  # noqa: E402
from patchcount.model import ModelConfig, init_params  # noqa: E402
from patchcount.patchio import LabelsError, PPMError, load_pgm, load_ppm, read_labels  # noqa: E402

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# mostly what a valid header holds, with a few bytes that break it
_SEPARATORS = st.sampled_from([b" ", b"\n", b"\t", b"\r", b"  ", b"\n#c\n", b" ", b"\n", b"#c\n",
                               b"", b"x", b"\x00"])
_MAXVALS = st.sampled_from([255, 255, 255, 0, 65535, 10 ** 12])


@st.composite
def _netpbm(draw, magic):
    """Header-shaped bytes: a magic, width, height and maxval, and a payload,
    each separated by whitespace, a comment or a stray byte."""
    parts = [draw(st.sampled_from([magic, magic, magic, b"P3", b"P"]))]
    for value in (draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(_MAXVALS)):
        parts += [draw(_SEPARATORS), str(value).encode()]
    # 12 bytes fill any 2x2 PPM, so most payload lengths decode
    parts += [draw(_SEPARATORS), draw(st.sampled_from([b"", bytes(12)])),
              draw(st.binary(max_size=8))]
    return b"".join(parts)


def _check_netpbm(path, load, data, channels):
    path.write_bytes(data)
    try:
        img = load(path)
    except PPMError as exc:
        assert 0 <= exc.offset <= len(data)
        return
    assert img.dtype == np.float32 and img.size > 0
    assert img.shape[2:] == ((3,) if channels == 3 else ())
    assert ((img >= 0) & (img <= 1)).all()


@FUZZ
@given(data=st.one_of(_netpbm(b"P6"), st.binary(max_size=48)))
def test_ppm_parses_or_raises_ppm_error(tmp_path, data):
    _check_netpbm(tmp_path / "f.ppm", load_ppm, data, 3)


@FUZZ
@given(data=st.one_of(_netpbm(b"P5"), st.binary(max_size=48)))
def test_pgm_parses_or_raises_ppm_error(tmp_path, data):
    _check_netpbm(tmp_path / "f.pgm", load_pgm, data, 1)


_LABEL_WORDS = st.sampled_from([b"a.ppm", b"./a.ppm", b"b/c.ppm", b"b//c.ppm", "é.ppm".encode(),
                                b"..", b".", b"/x", b"3", b"2.5", b"-1", b"nan", b"1e999", b"",
                                b"\xff", b"\xc3"])
_LABEL_PIECES = st.one_of(
    st.tuples(_LABEL_WORDS, _LABEL_WORDS).map(lambda nc: nc[0] + b"\t" + nc[1] + b"\n"),
    st.sampled_from([b"\t", b"\n", b"\r", b"\r\n", b" "]),
    _LABEL_WORDS,
    st.binary(max_size=6))


@FUZZ
@given(data=st.lists(_LABEL_PIECES, max_size=12).map(b"".join))
def test_labels_parse_or_raise_labels_error(tmp_path, data):
    (tmp_path / "labels.tsv").write_bytes(data)
    try:
        labels = read_labels(tmp_path)
    except LabelsError as exc:
        assert "labels.tsv line " in str(exc)
        return
    names = [name for name, _ in labels]
    assert len({os.path.normpath(name) for name in names}) == len(names)
    assert all(os.path.normpath(name) != "." for name in names)
    assert all(math.isfinite(count) and count >= 0 for _, count in labels)


@pytest.fixture(scope="module")
def checkpoint_blob(tmp_path_factory):
    cfg = ModelConfig(image_size=16, patch_size=8, dim=8, heads=2, layers=1, hidden_dim=8)
    params = init_params(cfg, 0)
    path = str(tmp_path_factory.mktemp("ckpt") / "m.tcwd")
    optim.save_checkpoint(params, optim.init_adam(params), cfg, path)
    with open(path, "rb") as fh:
        return fh.read()


_U32S = st.sampled_from([0, 1, 2, 3, 64, 65, 2 ** 31, 2 ** 32 - 1])
_ADAM_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                         st.sampled_from([0.9, 1e-8, 1e-4, -0.0, 1.0, 10 ** 400, 2 ** 63]),
                         st.text(max_size=4))


@FUZZ
@given(data=st.data())
def test_checkpoint_loads_or_raises_checkpoint_error(tmp_path, checkpoint_blob, data):
    blob = bytearray(checkpoint_blob)
    kind = data.draw(st.sampled_from(["cut", "bytes", "u32", "config", "adam"]))
    if kind == "cut":
        del blob[data.draw(st.integers(0, len(blob))):]
    elif kind == "bytes":  # overwrite a few bytes anywhere
        at = data.draw(st.integers(0, len(blob) - 1))
        new = data.draw(st.binary(min_size=1, max_size=4))
        blob[at:at + len(new)] = new
    elif kind == "u32":  # forge a length, count, rank or dim field
        at = data.draw(st.integers(0, (len(blob) - 4) // 4)) * 4
        blob[at:at + 4] = struct.pack("<I", data.draw(_U32S))
    else:  # a new config block: the saved one with one Adam value changed, or any
        end = 12 + struct.unpack("<I", blob[8:12])[0]
        if kind == "adam":
            block = json.loads(blob[12:end])
            block["adam"][data.draw(st.sampled_from(sorted(block["adam"])))] = \
                data.draw(_ADAM_VALUES)
            block = json.dumps(block).encode()
        else:
            block = data.draw(st.one_of(
                st.binary(max_size=24),
                st.recursive(st.none() | st.booleans() | st.integers() | st.floats()
                             | st.text(max_size=4),
                             lambda inner: st.lists(inner, max_size=3)
                             | st.dictionaries(st.sampled_from(["model", "adam", "dim", "t"]),
                                               inner, max_size=3),
                             max_leaves=8).map(lambda v: json.dumps(v).encode())))
        blob[8:end] = struct.pack("<I", len(block)) + block
    path = tmp_path / "m.tcwd"
    path.write_bytes(bytes(blob))
    try:
        params, state, cfg = optim.load_checkpoint(str(path))
        for moments in (state.m, state.v):
            for name in moments:
                assert moments[name].shape == params[name].shape
    except optim.CheckpointError:
        return
    assert isinstance(cfg, ModelConfig)
    for p in params.values():  # whatever loads, the optimizer can step with
        p.grad = np.ones_like(p.data)
    with np.errstate(over="ignore", invalid="ignore"):  # payload bytes may be any float
        optim.adam_step(params, state)


_CONFIG_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                           st.text(max_size=6), st.lists(st.integers(), max_size=2))


@FUZZ
@given(data=st.one_of(
    st.binary(max_size=40),
    st.dictionaries(st.sampled_from(sorted(_SCHEMA) + ["bogus"]), _CONFIG_VALUES,
                    max_size=4).map(lambda d: json.dumps(d).encode())))
def test_config_parses_or_raises_config_error(tmp_path, data):
    path = tmp_path / "c.json"
    path.write_bytes(data)
    try:
        parse_config(str(path))
    except ConfigError:
        pass
