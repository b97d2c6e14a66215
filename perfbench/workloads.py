"""The benchmark's workloads and their seeded inputs.

A workload fixes the fleet configuration and how its events are made;
the seed picks the events. Every input is generated before any clock
starts, and the program only ever receives the generated events.

Each workload has two event streams:

* ``fill`` — the set-up stream. Every tenant gets its window plus a few
  micro-batches, so each summary is bootstrapped and evicting before
  timing starts.
* ``timed`` — the stream of one round's timed ingest phase. A run is
  ``rounds`` rounds of the pipeline on the same events, and each
  round's stream is ``seconds × nominal_rate / rounds`` events long (for
  the mixture workload, moved to the nearest whole checkpoint cycle; see
  :func:`timed_batches`): a fixed event count rather than a time limit,
  so that counts (distance computations, WAL bytes, batches) repeat
  exactly for one seed and ``--seconds``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.gaussian import well_separated_mixture
from repro.service import FleetConfig, LoadSpec, PointEvent, generate_events
# The load generator's per-tenant drift vectors, so the timed stream can
# continue each cloud from where set-up left it.
from repro.service.loadgen import _tenant_drifts


@dataclass(frozen=True)
class Workload:
    """One pinned fleet configuration plus its event model."""

    name: str
    tenants: int
    dim: int
    window: int
    points_per_bubble: int
    batch_points: int
    checkpoint_every: int
    workers: int
    #: Timed events per requested second of a run, over all its rounds
    #: (sized on a 2-core container).
    nominal_rate: float
    #: ``"zipf"``: the load generator's Zipf(1.1) drifting clouds;
    #: ``"mixture"``: labelled well-separated Gaussian mixtures.
    events: str
    #: Whether ``Shard.cluster_now`` runs after every applied micro-batch.
    queries: bool
    #: Recoveries timed per round (the crashed directory and copies of
    #: it); short recoveries are repeated more, for a steadier median.
    recoveries: int
    #: Rounds in an untraced run. Each replays the same events on a fresh
    #: fleet, so every metric samples the machine all through the run
    #: rather than in one stretch of it.
    rounds: int

    def fleet_config(self, seed: int) -> FleetConfig:
        return FleetConfig(
            dim=self.dim,
            window_size=self.window,
            points_per_bubble=self.points_per_bubble,
            checkpoint_every=self.checkpoint_every,
            seed=seed,
            fsync=False,
            queue_points=256,
            batch_points=self.batch_points,
            backpressure="block",
            workers=self.workers,
        )

    def timed_events(self, seconds: int) -> int:
        """Events in one round's timed stream."""
        return int(round(seconds * self.nominal_rate / self.rounds))


_FLEET = dict(
    tenants=8,
    dim=2,
    window=2_000,
    points_per_bubble=40,
    batch_points=32,
    checkpoint_every=8,
    nominal_rate=1_800.0,
    events="zipf",
    queries=False,
    recoveries=4,
    rounds=4,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="fleet_sync", workers=0, **_FLEET),
        Workload(name="fleet_threaded", workers=2, **_FLEET),
        Workload(
            name="cluster_mix",
            tenants=2,
            dim=8,
            window=8_000,
            points_per_bubble=40,
            batch_points=64,
            checkpoint_every=64,
            workers=0,
            # 31 micro-batches per tenant a round at --seconds 30, which
            # ends where the pipeline crashes (see timed_batches).
            nominal_rate=400.0,
            events="mixture",
            queries=True,
            recoveries=2,
            rounds=3,
        ),
    )
}

#: Zipf exponent and burst size of the pinned service mix.
ZIPF_S = 1.1
BURST_MEAN = 32.0
#: Each fleet tenant's cloud is this many parallel streaks, spaced
#: ``SUBCLOUD_GAP`` noise deviations apart across the drift direction and
#: labelled by streak, so the fleet workloads have a ground truth the
#: F-score can miss.
SUBCLOUDS = 3
SUBCLOUD_GAP = 20.0
#: Mixture shape of ``cluster_mix``.
MIXTURE_CLUSTERS = 10
MIXTURE_NOISE = 0.05
#: Events per tenant burst in ``cluster_mix``: half a micro-batch, so
#: about one point in six waits through another tenant's flush.
MIXTURE_BURST = 32
#: How far each cluster centre drifts over a tenant's timed stream, in
#: cluster standard deviations (centres start at least 10 apart).
CLUSTER_DRIFT = 3.0


def crash_tail(workload: Workload) -> int:
    """Micro-batches past its last checkpoint each tenant crashes with.

    Half a checkpoint cycle: a WAL tail long enough that recovery
    replays real work, the same on every run.
    """
    return workload.checkpoint_every // 2


def timed_batches(workload: Workload, seconds: int) -> int:
    """Micro-batches per tenant in a mixture workload's round stream.

    The nominal count, moved to the nearest count that ends halfway
    through a checkpoint cycle, where the pipeline crashes every run, so
    the WAL tail recovery replays is made of full micro-batches (it
    would otherwise be padded with single points).
    """
    cycle = workload.checkpoint_every
    nominal = workload.timed_events(seconds) / (
        workload.tenants * workload.batch_points
    )
    fill_batches = _fill_per_tenant(workload) // workload.batch_points
    # Smallest count >= 1 at the crash point; then whole cycles on top.
    first = (crash_tail(workload) - fill_batches) % cycle or cycle
    return first + cycle * max(0, round((nominal - first) / cycle))


def _subseed(seed: int, stream: int) -> int:
    """Independent child seed for one of a run's random streams."""
    sequence = np.random.SeedSequence([int(seed), int(stream)])
    return int(sequence.generate_state(1)[0] & 0x7FFFFFFF)


def make_events(
    workload: Workload, seed: int, seconds: int
) -> tuple[list[PointEvent], list[PointEvent]]:
    """``(fill, timed)`` event lists for one run."""
    if workload.events == "zipf":
        return _zipf_events(workload, seed, seconds)
    return _mixture_events(workload, seed, seconds)


def _fill_per_tenant(workload: Workload) -> int:
    return workload.window + 4 * workload.batch_points


def _zipf_events(workload, seed, seconds):
    """The load generator's mix: Zipf tenants, bursts, drifting clouds.

    Set-up fills tenants evenly (a Zipf tail tenant would otherwise need
    tens of thousands of events to fill its window); the timed stream is
    Zipf-skewed and continues each tenant's drift from where set-up left
    it, so the timed phase sees no jump in any tenant's distribution.
    Every point is then moved to one of ``SUBCLOUDS`` streaks at random
    and labelled with it.
    """
    per_tenant = _fill_per_tenant(workload)
    fill_spec = LoadSpec(
        tenants=workload.tenants,
        # A quarter more than needed, so every tenant draws its quota
        # (each tenant's count is ~50 events from its mean).
        events=per_tenant * workload.tenants * 5 // 4,
        dim=workload.dim,
        seed=_subseed(seed, 0),
        zipf_s=0.0,
        burst_mean=BURST_MEAN,
    )
    fill = []
    counts = np.zeros(workload.tenants, dtype=np.int64)
    for event in generate_events(fill_spec):
        if counts[event.label] < per_tenant:
            counts[event.label] += 1
            fill.append(event)
    if counts.min() < per_tenant:
        raise RuntimeError(f"fill stream left a tenant short: {counts}")
    timed_spec = LoadSpec(
        tenants=workload.tenants,
        events=workload.timed_events(seconds),
        dim=workload.dim,
        seed=_subseed(seed, 1),
        zipf_s=ZIPF_S,
        burst_mean=BURST_MEAN,
    )
    drifts = _tenant_drifts(timed_spec)
    # Streaks sit side by side across each tenant's drift direction.
    across = np.zeros_like(drifts)
    across[:, 0], across[:, 1] = drifts[:, 1], -drifts[:, 0]
    across *= SUBCLOUD_GAP / np.linalg.norm(across, axis=1, keepdims=True)
    offsets = counts[:, None] * drifts
    timed = list(generate_events(timed_spec))
    rng = np.random.default_rng(_subseed(seed, 3))
    streaks = rng.integers(SUBCLOUDS, size=len(fill) + len(timed))

    def moved(event, streak, offset):
        tenant = event.label
        shift = offset + (streak - (SUBCLOUDS - 1) / 2) * across[tenant]
        return PointEvent(
            tenant=event.tenant,
            point=tuple(float(v) for v in np.asarray(event.point) + shift),
            label=int(streak),
            ts=event.ts,
        )

    fill = [
        moved(event, streak, 0.0)
        for event, streak in zip(fill, streaks[: len(fill)])
    ]
    timed = [
        moved(event, streak, offsets[event.label])
        for event, streak in zip(timed, streaks[len(fill) :])
    ]
    return fill, timed


def _mixture_events(workload, seed, seconds):
    """Per-tenant labelled mixtures, interleaved in bursts.

    Each tenant draws its own ``MIXTURE_CLUSTERS``-cluster mixture with
    ``MIXTURE_NOISE`` uniform noise; labels are the ground truth the
    F-score is measured against. Every tenant gets the same whole number
    of micro-batches, so how much WAL recovery replays does not depend
    on the seed.
    """
    rng = np.random.default_rng(_subseed(seed, 2))
    ids = [f"tenant-{i:03d}" for i in range(workload.tenants)]
    per_tenant = _fill_per_tenant(workload)
    batches = timed_batches(workload, seconds)
    timed_per_tenant = batches * workload.batch_points
    # Events come in bursts of MIXTURE_BURST from one tenant, the bursts
    # shuffled one micro-batch of every tenant at a time. Submitting is
    # near-instant, so a point's latency is the flushes (and queries) it
    # waits through: its own, plus another tenant's if that one fills
    # first. Shuffling single events would make that about half the
    # points, and put the latency median on the step between the two.
    bursts = np.repeat(
        np.arange(workload.tenants), workload.batch_points // MIXTURE_BURST
    )
    owners = np.concatenate(
        [
            np.repeat(rng.permutation(bursts), MIXTURE_BURST)
            for _ in range(batches)
        ]
    )
    streams = []
    for _ in range(workload.tenants):
        model = well_separated_mixture(
            workload.dim,
            MIXTURE_CLUSTERS,
            rng,
            noise_fraction=MIXTURE_NOISE,
        )
        # Over the timed stream every cluster drifts by CLUSTER_DRIFT
        # standard deviations in its own random direction: bubbles at the
        # trailing edges empty out and those at the leading edges
        # overfill, so the maintainer splits and merges, spread evenly
        # over the stream and the clusters.
        points, labels = model.sample(per_tenant + timed_per_tenant, rng)
        directions = rng.normal(size=(MIXTURE_CLUSTERS, workload.dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        progress = np.zeros(points.shape[0])
        progress[per_tenant:] = np.arange(1, timed_per_tenant + 1)
        progress *= CLUSTER_DRIFT / timed_per_tenant
        clustered = labels >= 0
        points[clustered] += (
            directions[labels[clustered]] * progress[clustered, None]
        )
        streams.append((points, labels))

    def event(tenant: int, row: int) -> PointEvent:
        points, labels = streams[tenant]
        return PointEvent(
            tenant=ids[tenant],
            point=tuple(float(v) for v in points[row]),
            label=int(labels[row]),
        )

    fill = [
        event(t, row)
        for row in range(per_tenant)
        for t in range(workload.tenants)
    ]
    cursor = [per_tenant] * workload.tenants
    timed = []
    for owner in owners:
        owner = int(owner)
        timed.append(event(owner, cursor[owner]))
        cursor[owner] += 1
    return fill, timed
