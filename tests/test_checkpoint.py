import struct

import numpy as np
import pytest

from treesent import checkpoint as ck
from treesent import encoder as enc
from treesent.autodiff import Tensor
from treesent.optim import make_rng

CFG = enc.ModelConfig(layers=1, hidden=16, heads=2, intermediate=32,
                      vocab_size=40, max_positions=16)


def fresh_params(seed=0):
    return enc.init_params(CFG, make_rng(seed))


def save_non_finite(path, config, params, name, value, provenance=None):
    """Save ``params`` with ``value`` (NaN or inf) as the first element of
    tensor ``name``. ``save_checkpoint`` refuses to write that, so a finite
    marker is saved and then replaced in the file's bytes."""
    marker = np.array(-1234.5, dtype="<f4")
    params[name].data.flat[0] = marker
    ck.save_checkpoint(path, config, params, provenance or {})
    with open(path, "rb") as fh:
        raw = fh.read()
    assert raw.count(marker.tobytes()) == 1
    with open(path, "wb") as fh:
        fh.write(raw.replace(marker.tobytes(), np.array(value, dtype="<f4").tobytes()))
    return str(path)


class TestRoundTrip:
    def test_values_and_config_survive(self, tmp_path):
        params = fresh_params()
        path = tmp_path / "model.ckpt"
        ck.save_checkpoint(path, CFG, params, {"seed": 3})
        config, loaded, provenance = ck.load_checkpoint(path)
        assert config == CFG
        assert provenance == {"seed": 3}
        assert set(loaded) == set(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name].data, params[name].data)
            assert loaded[name].requires_grad

    def test_save_load_save_is_byte_identical(self, tmp_path):
        params = fresh_params(1)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        ck.save_checkpoint(p1, CFG, params, {"note": "x"})
        _, loaded, prov = ck.load_checkpoint(p1)
        ck.save_checkpoint(p2, CFG, loaded, prov)
        assert p1.read_bytes() == p2.read_bytes()

    def test_extra_tensors_roundtrip_when_declared(self, tmp_path):
        params = fresh_params(2)
        params["head.w"] = Tensor(np.ones((16, 5), dtype=np.float32), requires_grad=True)
        params["head.b"] = Tensor(np.zeros(5, dtype=np.float32), requires_grad=True)
        path = tmp_path / "head.ckpt"
        ck.save_checkpoint(path, CFG, params, {})
        _, loaded, _ = ck.load_checkpoint(path, expect_extra=("head.w", "head.b"))
        np.testing.assert_array_equal(loaded["head.w"].data, params["head.w"].data)

    def test_file_starts_with_magic_and_version(self, tmp_path):
        path = tmp_path / "m.ckpt"
        ck.save_checkpoint(path, CFG, fresh_params(), {})
        raw = path.read_bytes()
        assert raw[:4] == b"SSTB"
        assert struct.unpack("<I", raw[4:8]) == (1,)


class TestRejection:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ck.CheckpointError, match="magic"):
            ck.load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v9.ckpt"
        ck.save_checkpoint(path, CFG, fresh_params(), {})
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(ck.CheckpointError, match="version"):
            ck.load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.ckpt"
        ck.save_checkpoint(path, CFG, fresh_params(), {})
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(ck.CheckpointError):
            ck.load_checkpoint(path)

    def test_truncated_anywhere(self, tmp_path):
        path = tmp_path / "t.ckpt"
        ck.save_checkpoint(path, CFG, fresh_params(), {"seed": 1})
        raw = path.read_bytes()
        cuts = sorted(set(range(0, 256)) | set(range(256, len(raw), 97)) | {len(raw) - 1})
        for cut in cuts:
            path.write_bytes(raw[:cut])
            with pytest.raises(ck.CheckpointError):
                ck.load_checkpoint(path)

    def test_corrupt_tensor_length(self, tmp_path):
        path = tmp_path / "c.ckpt"
        params = {"emb.ln.b": Tensor(np.zeros(16, dtype=np.float32))}
        ck.save_checkpoint(path, CFG, params, {})
        raw = bytearray(path.read_bytes())
        at = len(raw) - 64 - 8  # the byte count before the last (only) tensor
        for nbytes in (60, 2**62):
            raw[at:at + 8] = struct.pack("<Q", nbytes)
            path.write_bytes(bytes(raw))
            with pytest.raises(ck.CheckpointError):
                ck.load_checkpoint(path)

    @pytest.mark.parametrize("config", [b"{not json", b"\xff\xfe", b"[1, 2]", b'{"layers": 1}'],
                             ids=["not_json", "not_utf8", "not_a_dict", "missing_keys"])
    def test_corrupt_config_header(self, tmp_path, config):
        path = tmp_path / "h.ckpt"
        ck.save_checkpoint(path, CFG, fresh_params(), {})
        raw = path.read_bytes()
        (n,) = struct.unpack("<I", raw[8:12])
        path.write_bytes(raw[:8] + struct.pack("<I", len(config)) + config + raw[12 + n:])
        with pytest.raises(ck.CheckpointError, match="corrupt header"):
            ck.load_checkpoint(path)

    def test_non_finite_parameters_not_saved(self, tmp_path):
        path = tmp_path / "n.ckpt"
        ck.save_checkpoint(path, CFG, fresh_params(), {})
        before = path.read_bytes()
        params = fresh_params()
        params["layer.0.ffn.in.w"].data[3, 4] = np.nan
        with pytest.raises(FloatingPointError, match="ffn.in.w"):
            ck.save_checkpoint(path, CFG, params, {})
        params["layer.0.ffn.in.w"].data[3, 4] = np.inf
        with pytest.raises(FloatingPointError):
            ck.save_checkpoint(tmp_path / "new.ckpt", CFG, params, {})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["n.ckpt"]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_not_loaded(self, tmp_path, value):
        path = save_non_finite(tmp_path / "n.ckpt", CFG, fresh_params(),
                               "layer.0.ffn.in.w", value)
        with pytest.raises(ck.CheckpointError, match="layer.0.ffn.in.w is not finite"):
            ck.load_checkpoint(path)

    def test_shape_mismatch_against_config(self, tmp_path):
        params = fresh_params()
        params["pooler.b"] = Tensor(np.zeros(8, dtype=np.float32), requires_grad=True)
        path = tmp_path / "s.ckpt"
        ck.save_checkpoint(path, CFG, params, {})
        with pytest.raises(ck.CheckpointError, match="pooler.b"):
            ck.load_checkpoint(path)

    def test_missing_tensor(self, tmp_path):
        params = fresh_params()
        del params["pooler.w"]
        path = tmp_path / "m.ckpt"
        ck.save_checkpoint(path, CFG, params, {})
        with pytest.raises(ck.CheckpointError, match="missing"):
            ck.load_checkpoint(path)

    def test_undeclared_extra_tensor(self, tmp_path):
        params = fresh_params()
        params["surprise"] = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        path = tmp_path / "x.ckpt"
        ck.save_checkpoint(path, CFG, params, {})
        with pytest.raises(ck.CheckpointError, match="unexpected"):
            ck.load_checkpoint(path)
        ck.load_checkpoint(path, expect_extra=("surprise",))
