"""The full experimental flow of Section 6, one benchmark at a time.

``generate -> script_rugged -> map -> place -> STA -> optimize`` in
each of the three modes, producing one Table 1 row.  The flow mirrors
the paper's setup: netlists are optimized and mapped before placement,
cell locations are frozen, and every optimizer starts from the same
placed design.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..library.cells import Library, default_library
from ..network.netlist import Network
from ..place.placement import Placement, total_hpwl
from ..place.placer import place
from ..rapids.engine import MODES, SUPERGATE_STORE, RapidsResult, run_rapids
from ..rapids.report import Table1Row, build_row, fanout_profile
from ..symmetry.redundancy import find_easy_redundancies, redundancy_counts
from ..synth.mapper import map_network, network_area
from ..synth.strash import script_rugged
from ..timing.sta import TimingEngine
from .redundant import inject_redundant_wires
from .registry import BenchmarkSpec, configured_scale, resolve_benchmark


@dataclass
class FlowConfig:
    """Knobs of the experimental flow."""

    scale: float | None = None        # None = REPRO_SCALE / default
    place_seed: int = 0
    modes: tuple[str, ...] = MODES
    max_rounds: int = 12
    batch_limit: int = 64
    check_equivalence: bool = False
    sim_backend: str = "auto"         # simulation backend for verification
                                      # ("auto" = adaptive per sweep shape)
    workers: int = 1                  # gain-evaluation worker processes
                                      # (trajectory is worker-count-invariant)
    wl_passes: int = 1                # post-optimization wirelength-rewiring
                                      # passes (0 = skip the Section-5 polish;
                                      # on by default: the timing-aware gate
                                      # makes the polish delay-safe)
    wl_batched: bool = True           # vectorized conflict-free wirelength
                                      # path (False = serial greedy reference)
    wl_timing_aware: bool = True      # gate wirelength swaps on projected
                                      # slack (False = HPWL-only objective)
    wl_slack_margin: float = 0.0      # guard band (ns) the slack gate
                                      # enforces; 0.0 = never degrade delay
    wl_class_swaps: bool = False      # coloring-derived cross-supergate
                                      # candidates in the wirelength polish
                                      # (each verified by simulation first;
                                      # off = trajectories unchanged)
    partition: bool = False           # region-bounded wirelength polish:
                                      # FM-carved regions with frozen
                                      # boundary nets (repro.rapids.partition)
    partition_max_gates: int = 2500   # region size cap for the carve
    anneal_moves: int | None = None  # None = auto (40 moves per gate)
    presize: bool = True              # timing-driven sizing before placement
    checkpoint: str | None = None     # checkpoint file path; each mode
                                      # saves to "<path>.<mode>" so a
                                      # multi-mode run resumes per mode
    resume: bool = False              # reload per-mode checkpoints and
                                      # continue interrupted runs
    checkpoint_every: int = 1         # boundary cadence between saves

    def effective_scale(self) -> float:
        return self.scale if self.scale is not None else configured_scale()


@dataclass
class FlowOutcome:
    """Everything produced by one benchmark's flow."""

    name: str
    scale: float
    network: Network                  # the placed, mapped input design
    placement: Placement
    initial_delay: float
    initial_area: float
    hpwl: float
    results: dict[str, RapidsResult] = field(default_factory=dict)
    row: Table1Row | None = None
    build_seconds: float = 0.0
    stats: dict[str, float] = field(default_factory=dict)


def prepare_benchmark(
    name: str,
    config: FlowConfig | None = None,
    library: Library | None = None,
) -> FlowOutcome:
    """Generate, optimize, map and place one benchmark (no rewiring yet)."""
    config = config or FlowConfig()
    library = library or default_library()
    spec = _spec(name)
    scale = config.effective_scale()
    start = time.perf_counter()
    network = spec.build(scale)
    script_rugged(network)
    # plant the benchmark's share of untestable wires (ISCAS circuits
    # are famously redundant; Table 1 column 14 counts what extraction
    # finds) — function-preserving by construction
    target_redundancies = max(1, round(spec.paper.redundancies * scale))
    inject_redundant_wires(network, target_redundancies, seed=config.place_seed)
    map_network(network, library)
    anneal_moves = config.anneal_moves
    if anneal_moves is None:
        anneal_moves = min(40 * len(network), 120_000)
    if config.presize:
        # Timing-driven sizing before placement, like SIS "map -n 1
        # -AFG": gate sizes are optimized against *estimated* wires (a
        # placement the real one will not match), so the post-placement
        # optimizers harvest only the estimation gap — the paper's
        # timing-convergence premise.
        proxy = place(
            network, library, seed=config.place_seed + 7777,
            anneal_moves=anneal_moves // 2,
        )
        run_rapids(network, proxy, library, mode="gs", max_rounds=6,
                   batch_limit=config.batch_limit, workers=config.workers)
    placement = place(
        network, library, seed=config.place_seed,
        anneal_moves=anneal_moves,
    )
    engine = TimingEngine(network, placement, library)
    engine.analyze()
    outcome = FlowOutcome(
        name=name,
        scale=scale,
        network=network,
        placement=placement,
        initial_delay=engine.max_delay,
        initial_area=network_area(network, library),
        hpwl=total_hpwl(network, placement),
        build_seconds=time.perf_counter() - start,
    )
    sgn = SUPERGATE_STORE.get_or_extract(network)
    outcome.stats = {
        "gates": float(len(network)),
        "depth": float(network.depth()),
        "coverage_percent": sgn.coverage() * 100.0,
        "max_supergate_inputs": float(sgn.max_supergate_inputs()),
        "redundancies": float(
            redundancy_counts(find_easy_redundancies(network, sgn))["events"]
        ),
        **fanout_profile(network),
    }
    return outcome


def run_benchmark(
    name: str,
    config: FlowConfig | None = None,
    library: Library | None = None,
) -> FlowOutcome:
    """Full flow: prepare + optimize with every configured mode."""
    config = config or FlowConfig()
    library = library or default_library()
    outcome = prepare_benchmark(name, config, library)
    for mode in config.modes:
        trial_network = outcome.network.copy()
        trial_placement = outcome.placement.copy()
        outcome.results[mode] = run_rapids(
            trial_network,
            trial_placement,
            library,
            mode=mode,
            max_rounds=config.max_rounds,
            batch_limit=config.batch_limit,
            check_equivalence=config.check_equivalence,
            sim_backend=config.sim_backend,
            workers=config.workers,
            wl_passes=config.wl_passes,
            wl_batched=config.wl_batched,
            wl_timing_aware=config.wl_timing_aware,
            wl_slack_margin=config.wl_slack_margin,
            wl_class_swaps=config.wl_class_swaps,
            partition=config.partition,
            partition_max_gates=config.partition_max_gates,
            checkpoint=(
                f"{config.checkpoint}.{mode}"
                if config.checkpoint is not None else None
            ),
            resume=config.resume,
            checkpoint_every=config.checkpoint_every,
        )
    if all(mode in outcome.results for mode in MODES):
        outcome.row = build_row(
            circuit=name,
            gates=len(outcome.network),
            initial_delay=outcome.initial_delay,
            results=outcome.results,
        )
    return outcome


def run_suite(
    names: list[str] | None = None,
    config: FlowConfig | None = None,
    library: Library | None = None,
    progress=None,
) -> list[FlowOutcome]:
    """Run the flow over several benchmarks (default: the whole Table 1)."""
    from .registry import benchmark_names

    outcomes = []
    for name in names or benchmark_names():
        outcome = run_benchmark(name, config, library)
        outcomes.append(outcome)
        if progress is not None:
            progress(outcome)
    return outcomes


def trajectory_fingerprint(
    name: str, config: FlowConfig | None = None
) -> str:
    """Digest of one benchmark's whole flow trajectory.

    Hashes the prepared netlist (gates, types, fanins, cell bindings),
    the placement coordinates, every mode's optimization outcome
    (moves applied, final delay/area) and its wirelength polish
    outcome (leaf, cross and class swaps applied, passes, final HPWL
    to 1e-6 um — a precision the one-region partitioned polish
    reproduces).  Two processes running the same
    flow must produce the same fingerprint regardless of
    ``PYTHONHASHSEED`` — the determinism contract
    ``tests/test_determinism.py`` and the CI hash-seed matrix enforce.
    """
    import hashlib

    outcome = run_benchmark(name, config)
    digest = hashlib.blake2b(digest_size=16)
    network = outcome.network
    for gate_name in sorted(network.gate_names()):
        gate = network.gate(gate_name)
        digest.update(
            f"{gate_name}:{gate.gtype.value}:"
            f"{','.join(gate.fanins)}:{gate.cell}".encode()
        )
    for gate_name, (x, y) in sorted(outcome.placement.locations.items()):
        digest.update(f"{gate_name}@{x:.9f},{y:.9f}".encode())
    digest.update(f"delay={outcome.initial_delay:.12f}".encode())
    for mode in sorted(outcome.results):
        result = outcome.results[mode].optimize
        digest.update(
            f"{mode}:{result.moves_applied}:{result.final_delay:.12f}:"
            f"{result.final_area:.9f}".encode()
        )
        polish = outcome.results[mode].wirelength
        if polish is not None:
            digest.update(
                f"{mode}:wl:{polish.swaps_applied}:"
                f"{polish.cross_swaps_applied}:"
                f"{polish.class_swaps_applied}:{polish.passes}:"
                f"{polish.final_hpwl:.6f}".encode()
            )
    return digest.hexdigest()


def _spec(name: str) -> BenchmarkSpec:
    return resolve_benchmark(name)
