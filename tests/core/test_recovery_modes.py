"""Shrink-in-place and non-collective repair: end-to-end behaviour of the
two non-respawning recovery modes, plus the strategy registry."""

import numpy as np
import pytest

from repro.core import AppConfig, run_app
from repro.ft import PLACE_SPARE, STRATEGIES, strategy_by_mode
from repro.ft.failure_injection import Kill
from repro.machine.presets import IDEAL, OPL


def cfg_for(code, **kw):
    defaults = dict(n=6, level=4, technique_code=code, steps=16,
                    diag_procs=2, checkpoint_count=4)
    defaults.update(kw)
    return AppConfig(**defaults)


# With the defaults above the layout groups are
#   grid 0: ranks (0, 1)   grid 1: (2, 3)   grid 2: (4, 5)   grid 3: (6, 7)
#   grid 4: (8,)           grid 5: (9,)     grid 6: (10,)
# so rank 7 loses grid 3, ranks 5+7 lose grids 2+3, and killing both of
# (6, 7) wipes grid 3 entirely.


# ---------------------------------------------------------------------------
# strategy-object contracts
# ---------------------------------------------------------------------------
def test_registry_and_lookup():
    assert set(STRATEGIES) == {"respawn", "shrink", "nc"}
    for mode, s in STRATEGIES.items():
        assert strategy_by_mode(mode) is s
    with pytest.raises(ValueError):
        strategy_by_mode("reboot")


@pytest.mark.parametrize("mode", ["shrink", "nc"])
def test_modes_require_1d_decomposition(mode):
    with pytest.raises(ValueError, match="1d"):
        strategy_by_mode(mode).validate_config(
            cfg_for("CR", decomposition="2d", recovery_mode=mode))


# ---------------------------------------------------------------------------
# shrink-in-place
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("code", ["CR", "RC", "AC"])
def test_shrink_single_failure_recovers(code):
    cfg = cfg_for(code, recovery_mode="shrink")
    base = run_app(cfg_for(code), OPL)
    m = run_app(cfg, OPL, kills=[Kill(7, base.t_solve * 0.6)])
    assert m.recovery_mode == "shrink"
    assert m.failed_ranks == [7]
    assert m.lost_gids == [3]
    assert m.t_spawn == 0.0 and m.t_merge == 0.0  # nobody respawned
    assert np.isfinite(m.error_l1)


def test_shrink_cr_error_equals_baseline():
    """Checkpoint restart stays exact across the re-balanced survivor
    decomposition."""
    base = run_app(cfg_for("CR"), OPL)
    m = run_app(cfg_for("CR", recovery_mode="shrink"), OPL,
                kills=[Kill(7, base.t_solve * 0.6)])
    assert m.error_l1 == pytest.approx(base.error_l1, rel=1e-12)


def test_shrink_survivor_grids_bit_identical():
    """Redistributing a survivor grid over fewer ranks must not perturb a
    single bit of its field — the combined solution matches exactly."""
    base = run_app(cfg_for("CR", collect_arrays=True), OPL)
    m = run_app(cfg_for("CR", collect_arrays=True, recovery_mode="shrink"),
                OPL, kills=[Kill(7, base.t_solve * 0.6)])
    assert np.array_equal(base.combined, m.combined)


def test_shrink_rank_zero_failure():
    base = run_app(cfg_for("CR"), OPL)
    m = run_app(cfg_for("CR", recovery_mode="shrink"), OPL,
                kills=[Kill(0, base.t_solve * 0.6)])
    assert m.failed_ranks == [0]
    assert m.lost_gids == [0]
    assert m.error_l1 == pytest.approx(base.error_l1, rel=1e-12)


def test_shrink_simultaneous_multi_grid_loss():
    base = run_app(cfg_for("CR"), OPL)
    at = base.t_solve * 0.6
    m = run_app(cfg_for("CR", recovery_mode="shrink"), OPL,
                kills=[Kill(5, at), Kill(7, at)])
    assert sorted(m.failed_ranks) == [5, 7]
    assert sorted(m.lost_gids) == [2, 3]
    assert m.error_l1 == pytest.approx(base.error_l1, rel=1e-12)


def test_shrink_needs_no_spares_or_placement():
    """Shrink never places replacements: a spare-requiring placement
    policy with zero spares — fatal in respawn mode — is irrelevant."""
    cfg = cfg_for("CR", recovery_mode="shrink", placement=PLACE_SPARE)
    base = run_app(cfg_for("CR"), OPL)
    m = run_app(cfg, OPL, kills=[Kill(7, base.t_solve * 0.6)], n_spares=0)
    assert m.failed_ranks == [7]
    assert np.isfinite(m.error_l1)


# ---------------------------------------------------------------------------
# non-collective repair
# ---------------------------------------------------------------------------
# Each check runs on 2-rank grids (its default) and again on 8-rank grids
# in test_nc_on_8_rank_grids below, where the grid-local agree overlaps a
# grid member's revoke of the grid communicator.
def last_rank_of(cfg, gid):
    return cfg.layout().group_ranks(gid)[-1]


@pytest.mark.parametrize("code", ["CR", "RC", "AC"])
def test_nc_single_failure_recovers(code, diag_procs=2):
    base = run_app(cfg_for(code, diag_procs=diag_procs), OPL)
    cfg = cfg_for(code, recovery_mode="nc", diag_procs=diag_procs)
    victim = last_rank_of(cfg, 3)
    m = run_app(cfg, OPL, kills=[Kill(victim, base.t_solve * 0.6)])
    assert m.recovery_mode == "nc"
    assert m.failed_ranks == [victim]
    assert m.lost_gids == [3]
    assert m.world_size == base.world_size  # replacement readmitted
    assert np.isfinite(m.error_l1)


def test_nc_cr_error_equals_baseline(diag_procs=2):
    base = run_app(cfg_for("CR", diag_procs=diag_procs), OPL)
    cfg = cfg_for("CR", recovery_mode="nc", diag_procs=diag_procs)
    m = run_app(cfg, OPL, kills=[Kill(last_rank_of(cfg, 3),
                                      base.t_solve * 0.6)])
    assert m.error_l1 == pytest.approx(base.error_l1, rel=1e-12)


def test_nc_repair_off_critical_path(diag_procs=2):
    """Only the failed sub-grid's communicator is rebuilt; the unaffected
    grids never stop, so the repair — which did happen, and was paid for —
    leaves the critical-path total where the baseline put it."""
    base = run_app(cfg_for("CR", diag_procs=diag_procs), OPL)
    at = base.t_solve * 0.5
    cfg = cfg_for("CR", recovery_mode="nc", diag_procs=diag_procs)
    nc = run_app(cfg, OPL, kills=[Kill(last_rank_of(cfg, 3), at)])
    assert nc.t_reconstruct > 0.0
    assert nc.t_total == pytest.approx(base.t_total, rel=1e-3)


def test_nc_rank_zero_failure(diag_procs=2):
    base = run_app(cfg_for("CR", diag_procs=diag_procs), OPL)
    m = run_app(cfg_for("CR", recovery_mode="nc", diag_procs=diag_procs),
                OPL, kills=[Kill(0, base.t_solve * 0.6)])
    assert m.failed_ranks == [0]
    assert m.lost_gids == [0]
    assert m.error_l1 == pytest.approx(base.error_l1, rel=1e-12)


def test_nc_simultaneous_multi_grid_loss(diag_procs=2):
    """Two grids repair concurrently, each inside its own communicator."""
    base = run_app(cfg_for("CR", diag_procs=diag_procs), OPL)
    at = base.t_solve * 0.6
    cfg = cfg_for("CR", recovery_mode="nc", diag_procs=diag_procs)
    victims = sorted([last_rank_of(cfg, 2), last_rank_of(cfg, 3)])
    m = run_app(cfg, OPL, kills=[Kill(v, at) for v in victims])
    assert sorted(m.failed_ranks) == victims
    assert sorted(m.lost_gids) == [2, 3]
    assert m.error_l1 == pytest.approx(base.error_l1, rel=1e-12)


def test_nc_full_grid_loss_is_fatal(diag_procs=2):
    """Non-collective repair is rebuilt *by the survivors of the grid*;
    a grid that lost every member has none, and the failure must say so
    rather than deadlock."""
    base = run_app(cfg_for("CR", diag_procs=diag_procs), OPL)
    at = base.t_solve * 0.6
    cfg = cfg_for("CR", recovery_mode="nc", diag_procs=diag_procs)
    with pytest.raises(Exception, match="lost every member"):
        run_app(cfg, OPL, kills=[Kill(r, at)
                                 for r in cfg.layout().group_ranks(3)])


def _nc_check(check, *args):
    name = check.__name__[len("test_nc_"):]
    return pytest.param(check, args, id="-".join((name,) + args))


@pytest.mark.parametrize("check,args", [
    _nc_check(test_nc_single_failure_recovers, "CR"),
    _nc_check(test_nc_single_failure_recovers, "RC"),
    _nc_check(test_nc_single_failure_recovers, "AC"),
    _nc_check(test_nc_cr_error_equals_baseline),
    _nc_check(test_nc_repair_off_critical_path),
    _nc_check(test_nc_rank_zero_failure),
    _nc_check(test_nc_simultaneous_multi_grid_loss),
    _nc_check(test_nc_full_grid_loss_is_fatal),
])
def test_nc_on_8_rank_grids(check, args):
    check(*args, diag_procs=8)


# ---------------------------------------------------------------------------
# mode bookkeeping
# ---------------------------------------------------------------------------
def test_default_mode_is_respawn():
    m = run_app(cfg_for("CR"), IDEAL)
    assert m.recovery_mode == "respawn"
    assert "recovery_mode" in m.to_dict()


# ---------------------------------------------------------------------------
# shrink-in-place: full-grid loss migrates onto a donor (orphan adoption)
# ---------------------------------------------------------------------------
def small_cfg(code, **kw):
    """n=5/level=3 layout: grids 3 and 4 are single-member (ranks 6, 7),
    so killing rank 7 loses grid 4 entirely."""
    defaults = dict(n=5, level=3, technique_code=code, steps=4,
                    diag_procs=2, checkpoint_count=2)
    defaults.update(kw)
    return AppConfig(**defaults)


def test_shrink_full_grid_loss_adopts_and_stays_exact():
    """A grid that lost every member migrates onto a donor rank, which
    restores it from checkpoint: CR stays exact."""
    base = run_app(small_cfg("CR"), OPL)
    m = run_app(small_cfg("CR", recovery_mode="shrink"), OPL,
                kills=[Kill(7, base.t_solve * 0.6)])
    assert m.failed_ranks == [7]
    assert 4 in m.lost_gids           # the orphan
    assert len(m.lost_gids) == 2      # ...plus the donor's contracted grid
    assert m.error_l1 == pytest.approx(base.error_l1, rel=1e-12)


def test_shrink_full_grid_loss_rc_recovers_via_plan():
    """Under RC the adopted orphan refills through the replica/resample
    plan like any lost grid."""
    base = run_app(small_cfg("RC"), OPL)
    m = run_app(small_cfg("RC", recovery_mode="shrink"), OPL,
                kills=[Kill(7, base.t_solve * 0.6)])
    assert m.failed_ranks == [7]
    assert 4 in m.lost_gids
    assert np.isfinite(m.error_l1) and m.error_l1 < 1e-1


def test_shrink_full_grid_loss_ac_drops_grid():
    """AC excludes lost grids from the combination, so no donor is taken
    (a healthy grid's data would be destroyed for nothing)."""
    cfg = cfg_for("AC", recovery_mode="shrink")
    base = run_app(cfg_for("AC"), OPL)
    at = base.t_solve * 0.6
    m = run_app(cfg, OPL, kills=[Kill(9, at)])  # grid 5: sole member
    assert m.lost_gids == [5]                   # no donor grid joins it
    assert np.isfinite(m.error_l1)


def test_survivor_view_adoption_is_deterministic():
    from repro.core.layout import SurvivorView

    cfg = small_cfg("CR")
    base = cfg.layout()
    members = [r for r in range(base.total_procs) if r != 7]
    v = SurvivorView(base, members, adopt_orphans=True)
    assert v.adoptions == dict(SurvivorView(base, members,
                                            adopt_orphans=True).adoptions)
    orphan_ranks = v.group_ranks(4)
    assert len(orphan_ranks) == 1     # the donor
    donor_gid = v.adoptions[4]
    # donor came from a multi-member group, which shrank by one
    assert len(v.group_ranks(donor_gid)) == \
        len(base.group_ranks(donor_gid)) - 1
    # every rank still belongs to exactly one grid
    seen = [g for a in v.assignments for g in a.ranks]
    assert sorted(seen) == list(range(len(members)))


def test_survivor_view_no_donor_raises():
    from repro.core.layout import SurvivorView

    cfg = small_cfg("CR", diag_procs=1)   # every grid single-member
    base = cfg.layout()
    members = [r for r in range(base.total_procs) if r != 2]
    with pytest.raises(RuntimeError, match="cannot re-balance"):
        SurvivorView(base, members, adopt_orphans=True)
