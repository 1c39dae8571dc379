"""Exact response-time analysis for static offsets (paper Sec. 3.1.1).

The exact analysis enumerates every *scenario*: for each transaction with a
non-empty interfering set, one of its interfering tasks starts the busy
period with its maximally-delayed activation (Theorem 1); for the analyzed
task's own transaction the analyzed task itself is an additional candidate.
The number of scenarios is the product of Eq. 12 -- exponential in the
number of transactions, which is why Sec. 3.1.2 (see
:mod:`repro.analysis.reduced`) exists.

The analysis assumes the offsets and jitters stored in the system are final
("static"); the dynamic-offset coupling of Sec. 3.2 is layered on top by
:mod:`repro.analysis.holistic`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.analysis._scenario import solve_scenario
from repro.analysis.busy import (
    HPTask,
    TransactionView,
    build_views,
    compile_w_transaction_k,
    starter_phase_of_analyzed,
)
from repro.analysis.interfaces import AnalysisConfig
from repro.model.system import TransactionSystem

__all__ = ["ExactResult", "response_time_exact"]


@dataclass(frozen=True)
class ExactResult:
    """Outcome of the exact analysis for one task."""

    wcrt: float
    scenarios_evaluated: int
    #: The scenario (starter task index per transaction view, analyzed
    #: transaction encoded with starter index ``-1`` for "the task itself")
    #: attaining the worst case; ``None`` if no scenario constrained the task.
    worst_scenario: tuple[tuple[int, int], ...] | None
    #: Inner fixed-point evaluations spent, divergent solves included.
    evaluations: int = 0


def _busy_bound(system: TransactionSystem, config: AnalysisConfig) -> float:
    longest = max(
        max(tr.period, float(tr.deadline)) for tr in system.transactions
    )
    return config.busy_bound_factor * longest


def response_time_exact(
    system: TransactionSystem,
    a: int,
    b: int,
    *,
    config: AnalysisConfig | None = None,
    views: tuple | None = None,
    bound: float | None = None,
    ceiling: float = float("inf"),
) -> ExactResult:
    """Worst-case response time of task ``(a, b)`` by full scenario enumeration.

    ``views`` optionally supplies a pre-projected ``(analyzed, own,
    others)`` triple (from a cached :class:`~repro.analysis.busy.ViewProjector`)
    so the outer holistic rounds skip re-projection; ``bound`` an already
    computed divergence bound; ``ceiling`` the verdict-mode response
    ceiling (``wcrt`` reported as ``inf`` as soon as any scenario proves
    the response exceeds it).

    Raises
    ------
    ValueError
        If the scenario count exceeds ``config.max_exact_scenarios``.
    """
    config = config or AnalysisConfig()
    analyzed, own, others = views if views is not None else build_views(system, a, b)
    if bound is None:
        bound = _busy_bound(system, config)
    kernel = config.kernel

    # Candidate starters: every interfering task per foreign transaction;
    # for the own transaction additionally the analyzed task itself,
    # represented by None.
    own_candidates: list[HPTask | None] = list(own.tasks) + [None]
    other_candidates: list[list[HPTask]] = [list(v.tasks) for v in others]

    n_scenarios = len(own_candidates)
    for cands in other_candidates:
        n_scenarios *= len(cands)
    if n_scenarios > config.max_exact_scenarios:
        raise ValueError(
            f"exact analysis of task ({a},{b}) requires {n_scenarios} scenarios, "
            f"exceeding max_exact_scenarios={config.max_exact_scenarios}; "
            "use the reduced analysis instead"
        )

    worst = float("-inf")
    worst_scenario: tuple[tuple[int, int], ...] | None = None
    evaluated = 0
    evaluations = 0

    # Every scenario reuses per-(view, starter) W closures: compile each
    # foreign candidate once instead of once per element of the product.
    others_w = [
        {
            id(starter): compile_w_transaction_k(view, starter, kernel=kernel)
            for starter in cands
        }
        for view, cands in zip(others, other_candidates)
    ]

    for own_starter in own_candidates:
        phi_ab = starter_phase_of_analyzed(analyzed, own_starter)
        # Own transaction: when the analyzed task itself starts the busy
        # period (own_starter None) its reduced offset/jitter anchor the
        # phases of its higher-priority siblings.
        own_w = compile_w_transaction_k(
            own, own_starter,
            starter_phi=analyzed.phi, starter_jitter=analyzed.jitter,
            kernel=kernel,
        )
        for combo in itertools.product(*other_candidates) if other_candidates else [()]:
            combo_w = [
                table[id(starter)]
                for table, starter in zip(others_w, combo)
            ]

            def interference(t: float, own_w=own_w, combo_w=combo_w) -> float:
                total = own_w(t)
                for w_k in combo_w:
                    total += w_k(t)
                return total

            outcome = solve_scenario(
                analyzed, phi_ab, interference, bound=bound, tol=config.tol,
                response_ceiling=ceiling,
            )
            evaluated += 1
            evaluations += outcome.evaluations
            if outcome.response > worst:
                worst = outcome.response
                key = [
                    (own.index, own_starter.index if own_starter is not None else -1)
                ]
                key.extend(
                    (view.index, starter.index)
                    for view, starter in zip(others, combo)
                )
                worst_scenario = tuple(key)
            if worst == float("inf"):
                return ExactResult(
                    wcrt=float("inf"),
                    scenarios_evaluated=evaluated,
                    worst_scenario=worst_scenario,
                    evaluations=evaluations,
                )

    if worst == float("-inf"):
        # No scenario placed a job of the analyzed task inside a busy
        # period; this cannot happen for the self-started scenario, so it
        # indicates a modelling error.
        raise AssertionError(
            f"no scenario constrained task ({a},{b}); "
            "the self-started scenario must always contain job p=p0"
        )
    return ExactResult(
        wcrt=worst, scenarios_evaluated=evaluated, worst_scenario=worst_scenario,
        evaluations=evaluations,
    )
