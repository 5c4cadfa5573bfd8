"""Injected-delay models for the machine simulators.

The paper's shared-memory experiments inject delays by making one thread
sleep for delta microseconds per iteration (Figs. 3-4) — synchronous Jacobi
then pays delta at every barrier while asynchronous Jacobi lets the other
threads run ahead. These models generalize that: constant per-iteration
delays, multiplicative stragglers, permanent hangs ("delayed until
convergence"), and stochastic stalls for failure injection.

A delay model answers two questions for a simulated agent (thread or rank):
``extra_time(agent, iteration, rng)`` — seconds added to this iteration —
and ``is_hung(agent, time)`` — whether the agent has stopped iterating
entirely.
"""

from __future__ import annotations

from repro.util.validation import check_nonnegative, check_probability


class DelayModel:
    """No injected delay (the base class doubles as the null model)."""

    def extra_time(self, agent: int, iteration: int, rng) -> float:
        """Seconds of injected delay for this agent's iteration."""
        return 0.0

    def is_hung(self, agent: int, time: float) -> bool:
        """Whether the agent has permanently stopped at ``time``."""
        return False

    def constant_extra(self, agent: int) -> float | None:
        """The agent's per-iteration extra time, if it is a known constant.

        Returns the constant (possibly 0.0) when :meth:`extra_time` is
        guaranteed to return that value for every iteration *without
        consuming any RNG draws*; returns ``None`` when the extra time is
        stochastic or unknown. The event engine uses this to decide per
        agent whether timing jitter may be drawn from a chunked
        :class:`~repro.runtime.engine.JitterStream` (constant: the
        agent's RNG serves only jitter, so chunked refills preserve the
        call order bit-for-bit) or must stay on scalar draws (stochastic:
        delay draws interleave with jitter draws on the same stream).

        Subclasses that override :meth:`extra_time` without also
        overriding this method are conservatively treated as stochastic.
        """
        if type(self).extra_time is not DelayModel.extra_time:
            return None
        return 0.0


NO_DELAY = DelayModel()


class ConstantDelay(DelayModel):
    """Fixed extra seconds per iteration for selected agents.

    ``delays`` maps agent id to the per-iteration sleep. This is the
    Figure 3/4 scenario with the sleeper near the middle of the domain.
    """

    def __init__(self, delays: dict):
        self.delays = {int(a): check_nonnegative(d, f"delay[{a}]") for a, d in delays.items()}

    def extra_time(self, agent: int, iteration: int, rng) -> float:
        """The agent's fixed sleep (0.0 for agents without one)."""
        return self.delays.get(agent, 0.0)

    def constant_extra(self, agent: int) -> float:
        """The agent's fixed sleep: always a constant, no RNG draws."""
        return self.delays.get(agent, 0.0)


class StragglerDelay(DelayModel):
    """Selected agents run ``factor`` times slower (hardware imbalance).

    Implemented as extra time proportional to the agent's base duration;
    the simulator passes the base via :meth:`scaled_extra`.
    """

    def __init__(self, factors: dict):
        self.factors = {}
        for a, f in factors.items():
            f = float(f)
            if f < 1.0:
                raise ValueError(f"straggler factor must be >= 1, got {f}")
            self.factors[int(a)] = f

    def slowdown(self, agent: int) -> float:
        """Multiplicative slowdown for the agent (1.0 if not a straggler)."""
        return self.factors.get(agent, 1.0)


class HangDelay(DelayModel):
    """Selected agents stop iterating permanently after a given time.

    ``hang_times`` maps agent id to the simulated time after which the agent
    never relaxes again — the paper's "delayed until convergence" case, and
    the failure-injection model for a dead rank.
    """

    def __init__(self, hang_times: dict):
        self.hang_times = {
            int(a): check_nonnegative(t, f"hang_times[{a}]") for a, t in hang_times.items()
        }

    def is_hung(self, agent: int, time: float) -> bool:
        """Whether ``time`` is at or past the agent's hang time."""
        t = self.hang_times.get(agent)
        return t is not None and time >= t


class StochasticStall(DelayModel):
    """Each iteration independently stalls with some probability.

    Models OS noise / page faults: with probability ``prob`` an iteration
    pays an extra exponentially distributed stall of mean ``mean_stall``.
    """

    def __init__(self, prob: float, mean_stall: float, agents=None):
        self.prob = check_probability(prob, "prob")
        self.mean_stall = check_nonnegative(mean_stall, "mean_stall")
        self.agents = None if agents is None else {int(a) for a in agents}

    def extra_time(self, agent: int, iteration: int, rng) -> float:
        """A stall drawn from ``rng`` with probability ``prob``, else 0.0."""
        if self.agents is not None and agent not in self.agents:
            return 0.0
        if rng.random() < self.prob:
            return float(rng.exponential(self.mean_stall))
        return 0.0

    def constant_extra(self, agent: int) -> float | None:
        """0.0 for agents outside ``agents``; ``None`` (stochastic) otherwise."""
        # Non-members return 0.0 without touching the RNG; members draw
        # every iteration (even with prob == 0 the roll is consumed).
        if self.agents is not None and agent not in self.agents:
            return 0.0
        return None


class PlanDelay(DelayModel):
    """Adapter exposing a fault plan's crash windows as a delay model.

    Lets a :class:`~repro.faults.FaultPlan` compose with the other delay
    models through :class:`CompositeDelay`: while an agent is inside one of
    the plan's crash windows it reads as hung. Message-level faults
    (partitions, drop/corrupt bursts) have no delay-model analogue and are
    consulted by the distributed simulator directly.
    """

    def __init__(self, plan):
        self.plan = plan

    def is_hung(self, agent: int, time: float) -> bool:
        """Whether the plan has the agent inside a crash window at ``time``."""
        return self.plan.is_down(agent, time)


class CompositeDelay(DelayModel):
    """Sum/combination of several delay models."""

    def __init__(self, *models: DelayModel):
        self.models = list(models)

    def extra_time(self, agent: int, iteration: int, rng) -> float:
        """The sum of every component's extra time, drawn in order."""
        return sum(m.extra_time(agent, iteration, rng) for m in self.models)

    def is_hung(self, agent: int, time: float) -> bool:
        """Whether any component has the agent hung at ``time``."""
        return any(m.is_hung(agent, time) for m in self.models)

    def constant_extra(self, agent: int) -> float | None:
        """The components' constants summed, or ``None`` if any is stochastic."""
        # ``sum()`` in extra_time folds left-to-right from 0; mirror that
        # exactly so the constant is bit-identical to the live call.
        total = 0.0
        for m in self.models:
            c = m.constant_extra(agent)
            if c is None:
                return None
            total += c
        return total

    def slowdown(self, agent: int) -> float:
        """Product of slowdowns from any straggler components."""
        out = 1.0
        for m in self.models:
            if isinstance(m, StragglerDelay):
                out *= m.slowdown(agent)
        return out
