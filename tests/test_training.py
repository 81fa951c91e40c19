import dataclasses
import tracemalloc

import numpy as np
import pytest

from mstoplab import autodiff as ad
from mstoplab import model as mdl
from mstoplab import training
from mstoplab.inference import STRATEGIES, InferConfig, infer
from mstoplab.instances import GenConfig, Instance, augment, generate
from mstoplab.model import DdtmConfig, DdtmParameters
from mstoplab.optim import AdamState
from mstoplab.training import (TrainConfig, TrainingError, baseline_batch_mean,
                               baseline_greedy_rollout, baseline_instance_aug,
                               metrics_rows, reinforce_step, surrogate_loss, train)
from mstoplab.autodiff import Tape

from conftest import fd_gradient, forced_rollout, rel_err

CFG = DdtmConfig(d=16, heads=2, ff_dim=32, encoder_layers=1, decoder_layers=1)
GEN = GenConfig(n=4, k=2, t_max=1.5, seed=0)


def zero_prize_instance(seed):
    inst = generate(dataclasses.replace(GEN, prize_mode="uniform", seed=seed))
    customers = tuple((c[0], c[1], 0.0) for c in inst.customers)
    return dataclasses.replace(inst, customers=customers)


def fresh_setup(baseline="instance-aug", alpha=0.01, seed=0, clip=1.0):
    cfg = TrainConfig(baseline=baseline, alpha=alpha, batch=16, clip_norm=clip, seed_model=seed)
    params = DdtmParameters.init(CFG, seed=seed)
    return cfg, params, AdamState(lr=cfg.lr)


def run_step(cfg, params, adam, instances=None, seed=0, frozen=None):
    rng = np.random.default_rng(seed)
    if instances is None:
        instances = [generate(dataclasses.replace(GEN, seed=1000 + seed * 100 + i))
                     for i in range(cfg.raw_per_step)]
    orders = [(0, 1)] * len(instances)
    return reinforce_step(instances, orders, params, adam, CFG, cfg,
                          rollout_rng=rng, frozen_params=frozen)


# --- baselines ----------------------------------------------------------------

def test_instance_aug_baseline_two_sample_mean():
    b = baseline_instance_aug(np.array([[4.0, 6.0]]))
    assert b[0] == 5.0
    adv = np.array([4.0, 6.0]) - b[0]
    assert np.array_equal(adv, [-1.0, 1.0])


def test_instance_aug_baseline_equal_rewards_zero_advantage():
    rewards = np.full((3, 8), 2.5)
    b = baseline_instance_aug(rewards)
    assert np.array_equal(rewards - b[:, None], np.zeros((3, 8)))


def test_instance_aug_baseline_centering(rng):
    rewards = rng.random((5, 8)) * 4
    b = baseline_instance_aug(rewards)
    adv = rewards - b[:, None]
    assert np.all(np.abs(adv.sum(axis=1)) <= 1e-12)


def test_instance_aug_baseline_shape_check():
    with pytest.raises(ValueError):
        baseline_instance_aug(np.ones(8))


def test_batch_mean_baseline():
    assert baseline_batch_mean(np.array([1.0, 3.0])) == 2.0


def test_greedy_baseline_matches_greedy_rollout_of_same_params():
    _, params, _ = fresh_setup()
    instances = [generate(dataclasses.replace(GEN, seed=5 + i)) for i in range(4)]
    orders = [(0, 1), (1, 0), (0, 1), (1, 0)]
    b = baseline_greedy_rollout(instances, orders, params, CFG)
    greedy = mdl.rollout_states(instances, orders, params, CFG).rewards
    assert np.array_equal(b, greedy)  # advantage would be exactly zero


def test_greedy_baseline_frozen_bytes_unchanged():
    cfg, params, adam = fresh_setup(baseline="greedy-rollout")
    frozen = params.copy()
    before = {k: frozen[k].tobytes() for k in frozen.keys()}
    run_step(cfg, params, adam, frozen=frozen)
    after = {k: frozen[k].tobytes() for k in frozen.keys()}
    assert before == after


def test_greedy_baseline_requires_frozen_params():
    cfg, params, adam = fresh_setup(baseline="greedy-rollout")
    with pytest.raises(TrainingError):
        run_step(cfg, params, adam, frozen=None)


# --- config ---------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(baseline="critic").validate()
    with pytest.raises(ValueError):
        TrainConfig(alpha=-0.1).validate()
    with pytest.raises(ValueError):
        TrainConfig(baseline="instance-aug", batch=12).validate()
    with pytest.raises(ValueError, match="epochs must be at least 1, got 0"):
        TrainConfig(epochs=0).validate()
    TrainConfig(baseline="greedy-rollout", batch=12).validate()
    # values that would train silently wrong
    for bad in (dict(lr=0.0), dict(lr=-1e-4), dict(lr=float("nan")), dict(clip_norm=-0.5),
                dict(clip_norm=float("nan")), dict(validation_size=0)):
        with pytest.raises(ValueError):
            TrainConfig(**bad).validate()
    TrainConfig(clip_norm=0.0, validation_size=1).validate()   # 0 disables clipping


def test_augmentation_factor_follows_baseline():
    assert TrainConfig(baseline="instance-aug").k_aug == 8
    assert TrainConfig(baseline="batch-mean").k_aug == TrainConfig(baseline="greedy-rollout").k_aug == 1
    with pytest.raises(TypeError):
        TrainConfig(k_aug=8)


def test_raw_per_step_accounting():
    aug = TrainConfig(baseline="instance-aug", batch=64)
    plain = TrainConfig(baseline="greedy-rollout", batch=64)
    assert aug.raw_per_step * 8 == plain.raw_per_step == 64


# --- REINFORCE step ----------------------------------------------------------------

def test_zero_signal_null_parameters_frozen():
    """Zero prizes and alpha=0: rewards, baselines, and advantages are all zero,
    so ten updates must leave every trainable array bit-identical."""
    cfg, params, adam = fresh_setup(alpha=0.0)
    before = {k: params[k].tobytes() for k in params.trainable()}
    for step_i in range(10):
        instances = [zero_prize_instance(3000 + step_i * 10 + i) for i in range(cfg.raw_per_step)]
        diag = run_step(cfg, params, adam, instances=instances, seed=step_i)
        assert diag.grad_norm == 0.0
    after = {k: params[k].tobytes() for k in params.trainable()}
    assert before == after
    assert all(np.all(m == 0) for m in adam.m.values())


def test_batch_with_no_choice_takes_a_zero_step(monkeypatch):
    """No vehicle of GEN's seed-0 instance reaches a customer, so no row of
    its instance-aug batch ever has a choice: nothing is decoded and the
    loss is a constant. The step gives what decoding the point masses gave:
    all-zero gradients, norm 0.0, zero Adam moments after one Adam step,
    unchanged weights and the batch statistics folded in."""
    decoded = []
    monkeypatch.setattr(mdl.RouteDecoder, "step", lambda *args: decoded.append(1))
    seen, real_adam = [], training.adam_step
    monkeypatch.setattr(training, "adam_step", lambda p, g, s: seen.append(g) or real_adam(p, g, s))
    cfg, params, adam = fresh_setup()
    before = params.copy()
    diag = run_step(cfg, params, adam, instances=[generate(GEN)] * cfg.raw_per_step)
    assert decoded == [] and diag.grad_norm == 0.0 and diag.mean_reward == 0.0
    (grads,) = seen
    assert set(grads) == set(params.trainable())
    assert all(g.shape == params[name].shape and not g.any() for name, g in grads.items())
    assert adam.step == 1 and set(adam.m) == set(params.trainable())
    assert all(not m.any() and not v.any() for m, v in zip(adam.m.values(), adam.v.values()))
    for name in params.keys():
        unchanged = params[name].tobytes() == before[name].tobytes()
        assert unchanged == (name not in params.stats), name


def test_zero_advantage_gradient_is_alpha_times_entropy_gradient():
    """Zero prizes under the instance-aug baseline: every advantage is zero,
    so the surrogate's gradient is alpha times the entropy gradient."""
    instances = [x for i in range(2) for x in augment(zero_prize_instance(77 + i))]
    orders = [(0, 1)] * len(instances)
    params = DdtmParameters.init(CFG, seed=0)
    grads = {}
    for alpha in (0.5, 1.0):
        tape = Tape()
        roll = mdl.rollout_states(instances, orders, params, CFG,
                                  rng=np.random.default_rng(4), tape=tape, bn_training=True)
        advantages = roll.rewards - np.repeat(baseline_instance_aug(roll.rewards.reshape(2, 8)), 8)
        assert not advantages.any()
        loss = surrogate_loss(roll, advantages, alpha)
        grads[alpha] = roll.binding.gradients(tape.backward(loss))
    assert any(np.any(g != 0.0) for g in grads[1.0].values())
    for name in grads[1.0]:
        assert np.allclose(grads[0.5][name], 0.5 * grads[1.0][name], atol=1e-12)


def test_entropy_term_gradient_matches_finite_differences():
    """Teacher-forced replay of the entropy objective against central differences."""
    cfg, params, _ = fresh_setup(alpha=1.0)
    instances = [generate(dataclasses.replace(GEN, seed=600 + i)) for i in range(2)]
    orders = [(0, 1), (1, 0)]
    seed_roll = mdl.rollout_states(instances, orders, params, CFG, rng=np.random.default_rng(0))
    actions = seed_roll.actions
    advantages = np.zeros(len(instances))

    def loss_value():
        tape = Tape()
        roll = forced_rollout(instances, orders, params, CFG, actions, tape=tape, bn_training=True)
        return tape, roll, surrogate_loss(roll, advantages, alpha=1.0)

    tape, roll, loss = loss_value()
    grads = roll.binding.gradients(tape.backward(loss))

    rng = np.random.default_rng(5)
    names = sorted(params.trainable())
    worst = 0.0
    for _ in range(30):
        name = names[rng.integers(len(names))]
        arr = params[name]
        idx = int(rng.integers(arr.size))
        fd = fd_gradient(lambda: float(loss_value()[2].values), arr, idx)
        worst = max(worst, rel_err(fd, grads[name].reshape(-1)[idx]))
    assert worst <= 1e-4, f"entropy gradient mismatch {worst:.2e}"


def test_non_finite_loss_aborts_with_diagnostics():
    cfg, params, adam = fresh_setup()
    params.arrays["final_wq"][0, 0] = np.nan
    with pytest.raises(TrainingError, match="non-finite") as err:
        run_step(cfg, params, adam)
    assert "vehicle slot 0, decode step 0, state row 0" in str(err.value)
    assert "(raw instance 0)" in str(err.value)


def test_non_finite_rollout_row_maps_to_its_raw_instance(monkeypatch):
    """Under instance-aug the batch holds the symmetric copies of each raw
    instance in turn, so state row 17 belongs to raw instance 17 // 8."""
    def failing(*args, **kwargs):
        raise ad.NonFiniteError("non-finite action probabilities", row=17)

    monkeypatch.setattr(mdl, "rollout_states", failing)
    cfg, params, adam = fresh_setup()
    with pytest.raises(TrainingError, match=r"\(raw instance 2\)"):
        run_step(cfg, params, adam)


def test_non_finite_gradient_stops_before_adam():
    """An infinite weight that the rollout's tanh clamp absorbs leaves the
    loss finite but the gradient norm NaN. The step must fail naming the
    gradients and the poisoned weight, leaving parameters and Adam untouched."""
    cfg, params, adam = fresh_setup()
    params.arrays["final_wk"][0, 0] = np.inf
    before = {name: arr.tobytes() for name, arr in params.trainable().items()}
    with np.errstate(all="ignore"), pytest.raises(TrainingError, match="non-finite gradient norm") as err:
        run_step(cfg, params, adam)
    message = str(err.value)
    assert "(first ['ctx_proj_w'])" in message and "non-finite parameters ['final_wk']" in message
    assert {name: arr.tobytes() for name, arr in params.trainable().items()} == before
    assert adam.step == 0 and adam.m == {} and adam.v == {}


def test_every_op_kind_is_issued_by_the_package(monkeypatch):
    """A taped training step and an untaped inference under every strategy
    issue every op kind of the tape, so no kind exists for tests alone."""
    issued, real = set(), ad.forward

    def recording(kind, inputs, attrs=None):
        issued.add(kind)
        return real(kind, inputs, attrs)

    monkeypatch.setattr(ad, "forward", recording)
    cfg, params, adam = fresh_setup()
    run_step(cfg, params, adam)
    for strategy in STRATEGIES:
        infer(generate(GEN), params, CFG, InferConfig(strategy=strategy, sample_width=8))
    assert issued == set(ad.OP_KINDS)


# --- train loop -----------------------------------------------------------------------

def test_instance_aug_mstop20_step_stays_under_its_memory_peak():
    """Tracemalloc's traced peak of one 64-row instance-aug mstop20 step at
    the default model size, the benchmark's training step, is at most 50 MB.
    Backward drops each intermediate gradient once it is passed on, relu
    masks by its output and add and sum keep only their operands' shapes:
    the peak is about 37 MB, and about 77 MB when every gradient was kept
    to the end."""
    model_cfg, cfg = DdtmConfig(), TrainConfig()
    params = DdtmParameters.init(model_cfg, seed=0)
    raw = [generate(GenConfig.preset("mstop20", seed=500 + i)) for i in range(cfg.raw_per_step)]
    tracemalloc.start()
    try:
        reinforce_step(raw, [(0, 1)] * len(raw), params, AdamState(lr=cfg.lr), model_cfg, cfg,
                       rollout_rng=np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cfg.raw_per_step * cfg.k_aug == 64
    assert peak <= 50e6, f"traced peak {peak / 1e6:.1f} MB"


def test_train_deterministic_reports():
    cfg = TrainConfig(epochs=2, steps_per_epoch=3, batch=16, baseline="instance-aug",
                      alpha=0.01, validation_size=16)

    def run():
        params, reports = train(None, CFG, cfg, gen_cfg=GEN)
        key = [(r.epoch, r.train_reward, r.baseline_value, r.entropy, r.grad_norm,
                r.val_score, r.raw_instances) for r in reports]
        return key, {k: params[k].tobytes() for k in params.keys()}

    (k1, p1), (k2, p2) = run(), run()
    assert k1 == k2 and p1 == p2


def test_train_reports_raw_instance_parity():
    common = dict(epochs=1, steps_per_epoch=4, batch=16, validation_size=8)
    _, rep_aug = train(None, CFG, TrainConfig(baseline="instance-aug", **common), gen_cfg=GEN)
    _, rep_gr = train(None, CFG, TrainConfig(baseline="greedy-rollout", **common), gen_cfg=GEN)
    assert rep_aug[1].raw_instances * 8 == rep_gr[1].raw_instances


def test_train_greedy_rollout_recopies_only_on_validation_improvement(monkeypatch):
    """The frozen baseline policy is re-copied from the trained parameters
    after exactly the epochs whose validation beats the best so far."""
    scores = iter([0.5, 0.7, 0.7, 0.6, 0.9, 0.4])   # epoch 0 (initial), then epochs 1..5
    validated = []                                 # parameters at each validation

    def scripted_validation(params, model_cfg, instances):
        validated.append(params.copy())
        return next(scores)

    frozen_per_epoch = {}
    real_step = training.reinforce_step

    def recording_step(*args, frozen_params, **kwargs):
        frozen_per_epoch[len(validated)] = frozen_params
        return real_step(*args, frozen_params=frozen_params, **kwargs)

    monkeypatch.setattr(training, "validate_greedy", scripted_validation)
    monkeypatch.setattr(training, "reinforce_step", recording_step)
    cfg = TrainConfig(epochs=5, steps_per_epoch=1, batch=4, baseline="greedy-rollout",
                      validation_size=2)
    train(None, CFG, cfg, gen_cfg=GEN)
    assert sorted(frozen_per_epoch) == [1, 2, 3, 4, 5]
    # epochs 2-4 train against the copy made after epoch 1 (0.7 > 0.5): the tie
    # after epoch 2 and the drop after epoch 3 make no copy; 0.9 after epoch 4 does
    assert frozen_per_epoch[2] is frozen_per_epoch[3] is frozen_per_epoch[4]
    assert len({id(f) for f in frozen_per_epoch.values()}) == 3
    for epoch, source in ((1, 0), (2, 1), (5, 4)):
        frozen, snapshot = frozen_per_epoch[epoch], validated[source]
        assert all(np.array_equal(frozen[k], snapshot[k]) for k in snapshot.keys())
    assert not np.array_equal(validated[1]["final_wq"], validated[4]["final_wq"])


def test_train_writes_checkpoints(tmp_path):
    cfg = TrainConfig(epochs=1, steps_per_epoch=2, batch=16, validation_size=8)
    params, _ = train(None, CFG, cfg, gen_cfg=GEN, checkpoint_dir=str(tmp_path))
    for name in ("best.ckpt", "last.ckpt"):
        loaded, model_cfg = DdtmParameters.load(tmp_path / name)
        assert model_cfg == CFG and loaded.keys() == params.keys()
    last, _ = DdtmParameters.load(tmp_path / "last.ckpt")
    assert all(np.array_equal(last[k], params[k]) for k in params.keys())


def test_entropy_pressure_increases_probe_entropy():
    """With rewards forced to zero and alpha > 0, the max-entropy term alone
    pushes the policy toward uniform: probe entropy strictly rises for the
    first ten updates."""
    cfg, params, adam = fresh_setup(alpha=0.0)
    # sharpen the policy first with ordinary reward-driven training
    for step_i in range(25):
        run_step(cfg, params, adam, seed=step_i)

    probe_instances = [generate(dataclasses.replace(GEN, seed=9100 + i)) for i in range(4)]
    probe_orders = [(0, 1)] * 4
    probe_actions = mdl.rollout_states(probe_instances, probe_orders, params, CFG).actions

    def probe_rollout(tape=None):
        return forced_rollout(probe_instances, probe_orders, params, CFG, probe_actions, tape=tape)

    from mstoplab.optim import adam_step
    ent_adam = AdamState(lr=1e-4)
    history = [probe_rollout().mean_step_entropy]
    for _ in range(10):
        tape = Tape()
        roll = probe_rollout(tape)
        loss = surrogate_loss(roll, np.zeros(4), alpha=0.1)  # rewards forced to zero
        grads = roll.binding.gradients(tape.backward(loss))
        adam_step(params.trainable(), grads, ent_adam)
        history.append(probe_rollout().mean_step_entropy)
    assert all(b > a for a, b in zip(history, history[1:])), history


def test_metrics_rows_format():
    _, reports = train(None, CFG,
                       TrainConfig(epochs=1, steps_per_epoch=2, batch=16, validation_size=8),
                       gen_cfg=GEN)
    rows = metrics_rows(reports)
    assert rows[0].startswith("epoch,train_reward")
    assert len(rows) == len(reports) + 1
    assert all("wall" not in row for row in rows)
