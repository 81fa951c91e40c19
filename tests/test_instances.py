import json

import numpy as np
import pytest

from mstoplab.instances import (DatasetError, GenConfig, Instance, PRESETS,
                                SQUARE_SYMMETRIES, apply_symmetry, augment,
                                check_instance, euclidean, generate,
                                generate_many, load_dataset, save_dataset)


def test_presets_table():
    assert PRESETS["mstop10"] == (10, 2, 1.5)
    assert PRESETS["mstop20"] == (20, 2, 2.0)
    assert PRESETS["mstop50"] == (50, 3, 3.0)
    assert PRESETS["mstop70"] == (70, 3, 3.0)


def test_generate_constant_prizes():
    inst = generate(GenConfig.preset("mstop10", seed=11))
    assert inst.n == 10 and inst.k == 2 and inst.t_max == 1.5
    assert np.array_equal(inst.prizes(), np.ones(10))


def test_generate_uniform_prizes():
    inst = generate(GenConfig.preset("mstop20", prize_mode="uniform", seed=11))
    p = inst.prizes()
    assert inst.n == 20 and np.all((p >= 0) & (p <= 1))


def test_generate_coordinates_inside_unit_square():
    for seed in range(20):
        inst = generate(GenConfig(n=8, k=3, t_max=2.0, seed=seed))
        check_instance(inst)


def test_fuel_bounds_many_draws():
    # every generated vehicle can reach the depot immediately
    draws = 0
    for seed in range(2500):
        inst = generate(GenConfig(n=1, k=4, t_max=2.0, seed=seed))
        for k in range(inst.k):
            lo = euclidean(inst.vehicles[k][:2], inst.depot)
            assert lo <= inst.vehicles[k][2] <= inst.t_max
            draws += 1
    assert draws == 10000


def test_generation_deterministic_bytes(tmp_path):
    cfg = GenConfig(n=7, k=2, t_max=1.5, prize_mode="uniform", seed=99)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_dataset([generate(cfg)], p1)
    save_dataset([generate(cfg)], p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        GenConfig(n=0, k=1, t_max=1.0).validate()
    with pytest.raises(ValueError):
        GenConfig(n=1, k=1, t_max=-1.0).validate()
    with pytest.raises(ValueError):
        GenConfig(n=1, k=1, t_max=1.0, prize_mode="exotic").validate()
    with pytest.raises(ValueError):
        GenConfig.preset("mstop11")


# --- eight-fold augmentation -------------------------------------------------

def test_augmentation_point_maps():
    assert SQUARE_SYMMETRIES[6](0.2, 0.7) == pytest.approx((0.8, 0.3), abs=1e-15)  # (1-x, 1-y)
    assert SQUARE_SYMMETRIES[1](0.2, 0.7) == (0.7, 0.2)                            # (y, x)
    assert SQUARE_SYMMETRIES[0](0.2, 0.7) == (0.2, 0.7)                            # identity


def test_augment_returns_eight_with_identity_first():
    inst = generate(GenConfig(n=5, k=2, t_max=1.5, seed=4))
    copies = augment(inst)
    assert len(copies) == 8
    assert copies[0] == inst
    for c in copies:
        assert c.t_max == inst.t_max and c.prize_mode == inst.prize_mode and c.seed == inst.seed
        assert np.array_equal(c.prizes(), inst.prizes())
        assert np.array_equal(c.fuels(), inst.fuels())


def test_augmentation_isometry(rng):
    for seed in range(10):
        inst = generate(GenConfig(n=6, k=2, t_max=1.5, seed=seed))
        refs = list(range(inst.n + inst.k + 1))
        for s in range(8):
            aug = apply_symmetry(inst, s)
            for _ in range(40):
                i, j = rng.choice(refs, size=2, replace=False)
                moved = euclidean(aug.point(i), aug.point(j))
                assert abs(moved - euclidean(inst.point(i), inst.point(j))) <= 1e-12


def test_augmentation_group_closure(rng):
    pts = rng.random((50, 2))

    def apply(f, p):
        return np.array([f(x, y) for x, y in p])

    for a in range(8):
        for b in range(8):
            composed = apply(SQUARE_SYMMETRIES[a], apply(SQUARE_SYMMETRIES[b], pts))
            matches = [c for c in range(8)
                       if np.allclose(composed, apply(SQUARE_SYMMETRIES[c], pts), atol=1e-12)]
            assert len(matches) == 1


# --- distances -----------------------------------------------------------------

def test_distance_three_four_five():
    inst = Instance(depot=(0.0, 0.0), customers=(((0.3), 0.4, 1.0),),
                    vehicles=((0.0, 0.0, 1.0),), t_max=1.0)
    assert abs(euclidean(inst.point(0), inst.point(1)) - 0.5) <= 1e-15


def test_distance_zero_iff_same_point_and_symmetry(rng):
    inst = generate(GenConfig(n=10, k=3, t_max=2.0, seed=5))
    refs = inst.n + inst.k + 1
    for i in range(refs):
        assert euclidean(inst.point(i), inst.point(i)) == 0.0
    for _ in range(1000):
        i, j = rng.integers(0, refs, size=2)
        assert euclidean(inst.point(i), inst.point(j)) == euclidean(inst.point(j), inst.point(i))
        assert euclidean(inst.point(i), inst.point(j)) >= 0.0
    with pytest.raises(IndexError):
        inst.point(refs)


# --- dataset persistence ---------------------------------------------------------

def test_dataset_roundtrip_exact(tmp_path):
    instances = generate_many(GenConfig(n=9, k=2, t_max=1.5, prize_mode="uniform", seed=17), 100)
    path = tmp_path / "data.jsonl"
    save_dataset(instances, path)
    loaded = load_dataset(path)
    assert loaded == instances  # field-for-field, including seeds


def test_dataset_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    from mstoplab import instances as inst_mod
    path = tmp_path / "dataset.jsonl"
    save_dataset(generate_many(GenConfig(n=4, k=2, t_max=1.5, seed=3), 3), path)
    before = path.read_bytes()
    real_record, written = inst_mod._record, []

    def fail_on_third(inst):
        if len(written) == 2:
            raise OSError("disk full")
        written.append(inst)
        return real_record(inst)

    monkeypatch.setattr(inst_mod, "_record", fail_on_third)
    with pytest.raises(OSError, match="disk full"):
        save_dataset(generate_many(GenConfig(n=4, k=2, t_max=1.5, seed=4), 3), path)
    assert len(written) == 2
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["dataset.jsonl"]


def test_dataset_truncated_line_reports_line_number(tmp_path):
    instances = generate_many(GenConfig(n=4, k=2, t_max=1.5, seed=3), 3)
    path = tmp_path / "data.jsonl"
    save_dataset(instances, path)
    text = path.read_text()
    path.write_text(text[: text.rindex("}") - 5])
    with pytest.raises(DatasetError, match="line 3"):
        load_dataset(path)


@pytest.mark.parametrize("field, value, message", [
    ("customers", [[1.7, 0.2, 1.0]], "outside the unit square"),
    ("vehicles", [[0.9, 0.9, 0.0]], "fuel 0.0 outside"),
])
def test_dataset_rejects_invalid_instance(tmp_path, field, value, message):
    """A well-formed record whose instance breaks an invariant (a point off
    the unit square, a vehicle that cannot reach the depot) names its line."""
    instances = generate_many(GenConfig(n=4, k=2, t_max=1.5, seed=3), 3)
    path = tmp_path / "data.jsonl"
    save_dataset(instances, path)
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec[field] = value + rec[field][1:]
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError, match=f"line 2: .*{message}"):
        load_dataset(path)


def test_dataset_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_dataset(path) == []


def test_dataset_version_mismatch(tmp_path):
    inst = generate(GenConfig(n=3, k=1, t_max=1.0, seed=1))
    path = tmp_path / "d.jsonl"
    save_dataset([inst], path)
    rec = json.loads(path.read_text())
    rec["version"] = 42
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(DatasetError, match="version"):
        load_dataset(path)
