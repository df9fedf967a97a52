"""Structured results of one application run."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ft.reconstruct import RepairRecord

#: repair timing field -> the obs span phase it totals (Fig. 8 / Table I)
REPAIR_PHASES = {"t_detect": "detect", "t_reconstruct": "reconstruct",
                 "t_shrink": "shrink", "t_spawn": "spawn",
                 "t_merge": "merge", "t_agree": "agree"}


@dataclass
class RunMetrics:
    """Everything the experiment harnesses need from one run.

    All times are virtual seconds measured on world rank 0.  The repair
    timings (see ``REPAIR_PHASES``) are that process's own span totals;
    under the non-collective mode the repairs ran grid-locally, so all but
    ``t_agree`` are the max over every process's totals.
    """

    technique: str = ""
    recovery_mode: str = "respawn"
    machine: str = ""
    n: int = 0
    level: int = 0
    steps: int = 0
    dt: float = 0.0
    world_size: int = 0
    real_failures: bool = False
    n_failures: int = 0
    failed_ranks: List[int] = field(default_factory=list)
    lost_gids: List[int] = field(default_factory=list)

    # phase timings
    t_total: float = 0.0
    t_solve: float = 0.0
    t_detect: float = 0.0        #: ``detect`` spans: failed list (Fig. 8a)
    t_reconstruct: float = 0.0   #: ``reconstruct`` spans: repair (Fig. 8b)
    t_recovery: float = 0.0      #: data recovery window (Fig. 9a)
    t_combine: float = 0.0

    # per-op ULFM timings (Table I), each the total of its phase's spans
    t_shrink: float = 0.0        #: ``shrink``: OMPI_Comm_shrink
    t_spawn: float = 0.0         #: ``spawn``: MPI_Comm_spawn_multiple
    t_merge: float = 0.0         #: ``merge``: Intercomm_merge + re-order
    t_agree: float = 0.0         #: ``agree``: OMPI_Comm_agree
    reconstruct_iterations: int = 0

    # checkpointing (CR)
    checkpoint_writes: int = 0
    checkpoint_write_time: float = 0.0
    checkpoint_read_time: float = 0.0
    recompute_steps: int = 0

    # observability: per-phase virtual seconds (critical path = max over
    # ranks per phase) and the same broken down per grid id, filled in by
    # :func:`repro.core.runner.run_app` from the universe's span recorder
    phase_breakdown: Dict[str, float] = field(default_factory=dict)
    phase_by_grid: Dict[str, Dict[str, float]] = field(default_factory=dict)

    # accuracy
    error_l1: float = float("nan")
    error_l2: float = float("nan")
    error_linf: float = float("nan")

    # combination
    coefficients: Dict[Tuple[int, int], float] = field(default_factory=dict)
    combined: Optional[object] = None  # ndarray when cfg.collect_arrays

    def absorb_spans(self, totals: Dict[str, float]) -> None:
        """Set the repair timings from phase -> seconds span totals."""
        for name, phase in REPAIR_PHASES.items():
            setattr(self, name, totals.get(phase, 0.0))

    def absorb_record(self, r: RepairRecord) -> None:
        self.reconstruct_iterations = r.iterations
        self.failed_ranks = list(r.failed_ranks)
        self.n_failures = r.total_failed

    @property
    def t_app_excl_reconstruct(self) -> float:
        """Application time excluding communicator reconstruction — the
        paper's ``T_app`` in the Fig. 9b normalisation."""
        return self.t_total - self.t_reconstruct

    def to_dict(self) -> dict:
        d = asdict(self)
        d.pop("combined", None)
        d["coefficients"] = {str(k): v for k, v in self.coefficients.items()}
        return d
