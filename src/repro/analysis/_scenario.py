"""Per-scenario busy-period solver shared by the exact and reduced analyses.

A *scenario* fixes which task's maximally-delayed activation starts the busy
period in each transaction (the vector :math:`\\nu` of Sec. 3.1.1).  Given
the resulting interference function
:math:`I(t) = \\sum_i W^{\\nu(i)}_i(\\tau_{a,b}, t)` and the phase of the
analyzed task, this module solves Eq. 13/14: the busy-period length, the job
range :math:`p_0 \\dots p_L` and the per-job completion times, and returns
the scenario's worst response time.

The monotone fixed-point loops are hand-inlined here rather than routed
through :func:`repro.util.fixedpoint.iterate_fixed_point`: the scenario
solves are the innermost hot path of every campaign, and the inlining
removes two Python call layers per evaluation.  Convergence, divergence and
accounting semantics are kept bit-for-bit (:func:`repro.util.fixedpoint.note_solve`
charges the same counters the shared driver would).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.analysis.busy import AnalyzedTask
from repro.util.fixedpoint import note_ceiling_exit, note_solve, note_solves
from repro.util.math import EPS, ceil_div, floor_div

__all__ = ["ScenarioOutcome", "solve_scenario"]

#: Safety cap mirroring ``iterate_fixed_point``'s default.
_MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class ScenarioOutcome:
    """Worst response time found in one scenario.

    ``response`` is ``-inf`` when no job of the analyzed task falls inside
    the scenario's busy period (the scenario constrains nothing) and
    ``+inf`` when the busy period failed to close within the divergence
    bound.  ``evaluations`` counts every evaluation of the iterated maps,
    *including* those of divergent solves: the iteration counts carried by
    divergent solves used to be dropped on the unschedulable path, so
    aggregate accounting undercounted exactly the expensive cells.
    """

    response: float
    worst_job: int | None
    busy_length: float
    jobs_checked: int
    evaluations: int = 0


def solve_scenario(
    analyzed: AnalyzedTask,
    phi_ab: float,
    interference: Callable[[float], float],
    *,
    bound: float,
    tol: float = 1e-9,
    response_ceiling: float = float("inf"),
) -> ScenarioOutcome:
    """Solve one scenario for the analyzed task.

    Parameters
    ----------
    analyzed:
        The task under analysis (rate-scaled cost, platform delay, ...).
    phi_ab:
        Phase :math:`\\varphi^{\\nu(a)}_{a,b}` of the analyzed task for this
        scenario (Eq. 10 relative to the scenario's own-transaction starter).
    interference:
        Total higher-priority interference :math:`I(t)` for this scenario,
        already rate-scaled and platform-restricted.
    bound:
        Divergence bound for the inner fixed points; exceeding it makes the
        scenario report an infinite response time.
    response_ceiling:
        Verdict-mode deadline ceiling (mirrors ``ceiling`` of
        :func:`repro.util.fixedpoint.iterate_fixed_point` for this inlined
        loop): abort with an infinite response as soon as any job's
        completion iterate *implies* a response above it.  Sound because
        completion iterates grow from below toward the least fixed point,
        so the implied response is a lower bound on the job's final
        response, itself a lower bound on the scenario's worst response --
        callers that only compare the response against a deadline already
        have their answer.  ``inf`` (default) restores exact behavior.

        A finite ceiling also restructures the solve around the busy-
        period *length* loop (see :func:`_solve_scenario_verdict`): job
        completions are solved incrementally as busy iterates widen the
        window, so a first-job deadline miss aborts the scenario without
        paying the full busy-length solve -- near-saturated levels used
        to spend hundreds of busy evaluations before the first
        completion abort could fire.  Job set, per-job iterate sequences
        and the final outcome are identical to the two-phase order.

    Each job's completion fixed point is warm-started from the previous
    job's completion (sound: the completion map of job ``p+1`` dominates
    job ``p``'s pointwise, so its least fixed point is at or above job
    ``p``'s), and ``interference`` is memoized on exact *t* across the
    scenario's busy and completion solves (they revisit the same time
    points: shared iterate prefixes, job-chained warm starts).  The dict
    operations are inlined in the loops, so a hit costs one lookup instead
    of the whole interference sum.
    """
    if response_ceiling != float("inf"):
        return _solve_scenario_verdict(
            analyzed, phi_ab, interference,
            bound=bound, tol=tol, response_ceiling=response_ceiling,
        )

    T = analyzed.period
    base = analyzed.delay + analyzed.blocking
    cost = analyzed.cost
    ceil_ = math.ceil
    memo: dict[float, float] = {}

    # Eq. 13: p0 indexes the earliest job whose jittered activation can
    # coincide with the busy-period start.
    p0 = 1 - floor_div(analyzed.jitter + phi_ab, T)

    # Busy-period length (Eq. between 13 and 14): own jobs present in [0, L)
    # are p0 .. ceil((L - phi)/T); their count is clamped at zero for
    # scenarios the analyzed task never joins.  The epsilon-snapped ceiling
    # (util.math.ceil_div) is inlined in the loop.
    shift = 1 - p0

    start = base + cost
    x = start
    evals = 0
    while True:
        evals += 1
        xx = (x - phi_ab) / T
        nearest = round(xx)
        own_jobs = (
            nearest if abs(xx - nearest) <= EPS else ceil_(xx)
        ) + shift
        if own_jobs < 0:
            own_jobs = 0
        inter = memo.get(x)
        if inter is None:
            inter = memo[x] = interference(x)
        nxt = base + own_jobs * cost + inter
        if nxt > bound:
            note_solve(evals, diverged=True)
            return ScenarioOutcome(
                response=float("inf"), worst_job=None, busy_length=float("inf"),
                jobs_checked=0, evaluations=evals,
            )
        if -tol <= nxt - x <= tol:
            break
        if evals >= _MAX_ITERATIONS:
            note_solve(evals, diverged=True)
            return ScenarioOutcome(
                response=float("inf"), worst_job=None, busy_length=float("inf"),
                jobs_checked=0, evaluations=evals,
            )
        x = nxt
    L = nxt
    evaluations = evals
    solves = 1
    warm_solves = 0

    p_last = ceil_div(L - phi_ab, T)  # Eq. 14
    if p_last < p0:
        # No job of the analyzed task inside this busy period.
        note_solves(evaluations, solves)
        return ScenarioOutcome(
            response=float("-inf"), worst_job=None, busy_length=L,
            jobs_checked=0, evaluations=evaluations,
        )

    worst = float("-inf")
    worst_job: int | None = None
    checked = 0
    # Job-chained warm start: the completion map of job p+1 dominates job
    # p's pointwise (one more own job), so its least fixed point is at or
    # above job p's -- iterating from the previous completion reaches the
    # same fixed point in fewer steps.
    prev_completion: float | None = None
    for p in range(p0, p_last + 1):
        done = base + (p - p0 + 1) * cost
        warm = prev_completion is not None and prev_completion > start
        w = prev_completion if warm else start
        evals = 0
        while True:
            evals += 1
            inter = memo.get(w)
            if inter is None:
                inter = memo[w] = interference(w)
            nxt = done + inter
            if nxt > bound:
                note_solves(evaluations, solves, warm_started=warm_solves)
                note_solve(evals, diverged=True, warm_started=warm)
                return ScenarioOutcome(
                    response=float("inf"), worst_job=p, busy_length=L,
                    jobs_checked=checked, evaluations=evaluations + evals,
                )
            if -tol <= nxt - w <= tol:
                break
            if evals >= _MAX_ITERATIONS:
                note_solves(evaluations, solves, warm_started=warm_solves)
                note_solve(evals, diverged=True, warm_started=warm)
                return ScenarioOutcome(
                    response=float("inf"), worst_job=p, busy_length=L,
                    jobs_checked=checked, evaluations=evaluations + evals,
                )
            w = nxt
        w = nxt
        evaluations += evals
        solves += 1
        if warm:
            warm_solves += 1
        prev_completion = w
        # Response measured from the transaction activation that released
        # job p: phi + (p-1)T - phi_bar.
        r = w - (phi_ab + (p - 1) * T - analyzed.phi)
        checked += 1
        if r > worst:
            worst = r
            worst_job = p
    note_solves(evaluations, solves, warm_started=warm_solves)
    return ScenarioOutcome(
        response=worst, worst_job=worst_job, busy_length=L, jobs_checked=checked,
        evaluations=evaluations,
    )


def _solve_scenario_verdict(
    analyzed: AnalyzedTask,
    phi_ab: float,
    interference: Callable[[float], float],
    *,
    bound: float,
    tol: float,
    response_ceiling: float,
) -> ScenarioOutcome:
    """Verdict-mode scenario solve: the busy-*length* loop has a ceiling too.

    The two-phase order of :func:`solve_scenario` (busy length to
    convergence, then per-job completions) pays the whole length solve
    before the first completion's ceiling abort can fire -- and near
    saturation the length solve is exactly the expensive part.  A long
    busy iterate alone proves nothing (interference released *after* a
    job completes can stretch the busy period with every job still making
    its deadline), so the sound restructuring interleaves instead: every
    busy iterate is a lower bound on the busy length, so every own job
    activated inside the current window is already known to lie in the
    busy period and its completion can be solved -- and its deadline
    ceiling abort taken -- immediately.  Job set (``p0..p_last``), per-job
    iterate sequences, job-chained warm starts and the returned outcome
    are identical to the two-phase order; only the abort arrives before
    the length solve converges, skipping its remaining iterations.

    Accounting matches :func:`solve_scenario`'s shapes: completed solves
    are batched through ``note_solves``, the aborting solve goes through
    ``note_solve`` + ``note_ceiling_exit``, and evaluations spent on a
    still-open busy solve at abort time are charged as evaluations
    without a closing solve count.
    """
    T = analyzed.period
    base = analyzed.delay + analyzed.blocking
    cost = analyzed.cost
    ceil_ = math.ceil
    memo: dict[float, float] = {}

    p0 = 1 - floor_div(analyzed.jitter + phi_ab, T)
    shift = 1 - p0
    start = base + cost

    def eval_inter(t: float) -> float:
        v = memo.get(t)
        if v is None:
            v = memo[t] = interference(t)
        return v

    evaluations = 0
    solves = 0
    warm_solves = 0
    worst = float("-inf")
    worst_job: int | None = None
    checked = 0
    prev_completion: float | None = None
    next_p = p0  # next own job awaiting its completion solve

    def complete_jobs(p_hi: int, busy_evals: int) -> ScenarioOutcome | None:
        """Solve completions for jobs ``next_p..p_hi`` (all provably in
        the busy period); an abort outcome, or ``None`` to continue."""
        nonlocal evaluations, solves, warm_solves, worst, worst_job
        nonlocal checked, prev_completion, next_p
        while next_p <= p_hi:
            p = next_p
            done = base + (p - p0 + 1) * cost
            act = phi_ab + (p - 1) * T - analyzed.phi
            limit = response_ceiling + act
            warm = prev_completion is not None and prev_completion > start
            w = prev_completion if warm else start
            evals = 0
            while True:
                evals += 1
                nxt = done + eval_inter(w)
                if nxt > bound:
                    note_solves(
                        evaluations + busy_evals, solves,
                        warm_started=warm_solves,
                    )
                    note_solve(evals, diverged=True, warm_started=warm)
                    return ScenarioOutcome(
                        response=float("inf"), worst_job=p,
                        busy_length=float("inf"), jobs_checked=checked,
                        evaluations=evaluations + busy_evals + evals,
                    )
                if nxt > limit:
                    note_solves(
                        evaluations + busy_evals, solves,
                        warm_started=warm_solves,
                    )
                    note_solve(evals, warm_started=warm)
                    note_ceiling_exit()
                    return ScenarioOutcome(
                        response=float("inf"), worst_job=p,
                        busy_length=float("inf"), jobs_checked=checked,
                        evaluations=evaluations + busy_evals + evals,
                    )
                if -tol <= nxt - w <= tol:
                    break
                if evals >= _MAX_ITERATIONS:
                    note_solves(
                        evaluations + busy_evals, solves,
                        warm_started=warm_solves,
                    )
                    note_solve(evals, diverged=True, warm_started=warm)
                    return ScenarioOutcome(
                        response=float("inf"), worst_job=p,
                        busy_length=float("inf"), jobs_checked=checked,
                        evaluations=evaluations + busy_evals + evals,
                    )
                w = nxt
            evaluations += evals
            solves += 1
            if warm:
                warm_solves += 1
            prev_completion = nxt
            r = nxt - act
            checked += 1
            if r > worst:
                worst = r
                worst_job = p
            next_p += 1
        return None

    # Busy-period length loop, with incremental completion solves: the
    # iterate sequence, own-job window arithmetic and divergence handling
    # mirror solve_scenario exactly.
    x = start
    busy_evals = 0
    while True:
        xx = (x - phi_ab) / T
        nearest = round(xx)
        own_jobs = (
            nearest if abs(xx - nearest) <= EPS else ceil_(xx)
        ) + shift
        if own_jobs < 0:
            own_jobs = 0
        if own_jobs > next_p - p0:
            abort = complete_jobs(p0 + own_jobs - 1, busy_evals)
            if abort is not None:
                return abort
        busy_evals += 1
        nxt = base + own_jobs * cost + eval_inter(x)
        if nxt > bound:
            note_solves(evaluations, solves, warm_started=warm_solves)
            note_solve(busy_evals, diverged=True)
            return ScenarioOutcome(
                response=float("inf"), worst_job=None,
                busy_length=float("inf"), jobs_checked=checked,
                evaluations=evaluations + busy_evals,
            )
        if -tol <= nxt - x <= tol:
            break
        if busy_evals >= _MAX_ITERATIONS:
            note_solves(evaluations, solves, warm_started=warm_solves)
            note_solve(busy_evals, diverged=True)
            return ScenarioOutcome(
                response=float("inf"), worst_job=None,
                busy_length=float("inf"), jobs_checked=checked,
                evaluations=evaluations + busy_evals,
            )
        x = nxt
    L = nxt
    evaluations += busy_evals
    solves += 1

    p_last = ceil_div(L - phi_ab, T)  # Eq. 14
    if p_last < p0:
        note_solves(evaluations, solves, warm_started=warm_solves)
        return ScenarioOutcome(
            response=float("-inf"), worst_job=None, busy_length=L,
            jobs_checked=0, evaluations=evaluations,
        )
    abort = complete_jobs(p_last, 0)
    if abort is not None:
        return abort
    note_solves(evaluations, solves, warm_started=warm_solves)
    return ScenarioOutcome(
        response=worst, worst_job=worst_job, busy_length=L,
        jobs_checked=checked, evaluations=evaluations,
    )
