"""E11/E13 — policy matrices.

E11 (protocol tables 3/4, Section 3.3) studies *driver lease* policies;
E13 studies the *request-scheduling* policies of the refactored cluster
scheduler: read load-balancing policy × query cache, and parallel versus
sequential write broadcast.

E11's three sub-studies:

1. **Expiration policy matrix** — upgrade a driver while a fleet of
   clients holds open connections (some inside transactions) and measure,
   per policy, how many connections were closed immediately, how many
   in-flight transactions were aborted, and how many connections linger on
   the old driver.
2. **Revocation** — let the lease expire with no replacement driver and
   verify the REVOKE behaviour: new connection requests are blocked with an
   explanatory error.
3. **Lease-time sweep** — upgrade propagation delay and Drivolution-server
   traffic as a function of the lease time, plus the dedicated
   notification channel, which upgrades clients without waiting for the
   lease at the cost of one standing connection per client.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

from repro.cluster import Backend, ClusterDriverRuntime, RecoveryLog, RequestScheduler, WriteBroadcaster
from repro.cluster.broadcaster import BatchBroadcastOutcome
from repro.core import BootloaderConfig
from repro.core.constants import ExpirationPolicy, RenewPolicy
from repro.dbapi.driver_factory import build_pydb_driver
from repro.errors import DrivolutionError
from repro.experiments.concurrency import SimConnection, UnbatchedScheduler
from repro.experiments.environments import build_cluster, build_single_database
from repro.experiments.harness import ExperimentResult
from repro.obs import NULL_TRACE
from repro.workloads import ClientApplication, WorkloadSpec, percentile


def _policy_name(policy: ExpirationPolicy) -> str:
    return policy.name


def run_expiration_policy_matrix(
    clients: int = 4, connections_per_client: int = 3, lease_time_ms: int = 1_000
) -> ExperimentResult:
    """Sub-study 1: behaviour of each expiration policy during an upgrade."""
    result = ExperimentResult(
        experiment_id="E11a",
        title="Expiration policy matrix during a driver upgrade",
        parameters={
            "clients": clients,
            "connections_per_client": connections_per_client,
            "lease_time_ms": lease_time_ms,
        },
    )
    for policy in (ExpirationPolicy.AFTER_CLOSE, ExpirationPolicy.AFTER_COMMIT, ExpirationPolicy.IMMEDIATE):
        env = build_single_database(lease_time_ms=lease_time_ms)
        try:
            record_v1 = env.admin.install_driver(
                build_pydb_driver("pydb-1.0.0", driver_version=(1, 0, 0)),
                database=env.database_name,
                lease_time_ms=lease_time_ms,
                expiration_policy=policy,
            )
            session = env.open_sql_session()
            session.execute(
                "CREATE TABLE IF NOT EXISTS policy_events "
                "(id INTEGER NOT NULL PRIMARY KEY, v VARCHAR)"
            )
            bootloaders = [env.new_bootloader(BootloaderConfig()) for _ in range(clients)]
            open_connections = []
            in_transaction = 0
            row_id = 0
            for bootloader in bootloaders:
                for index in range(connections_per_client):
                    connection = bootloader.connect(env.url)
                    open_connections.append(connection)
                    if index == 0:
                        # Leave one connection per client inside a transaction.
                        connection.begin()
                        cursor = connection.cursor()
                        row_id += 1
                        cursor.execute(
                            "INSERT INTO policy_events (id, v) VALUES ($id, 'pending')",
                            {"id": row_id},
                        )
                        cursor.close()
                        in_transaction += 1
            env.admin.push_upgrade(
                build_pydb_driver("pydb-1.1.0", driver_version=(1, 1, 0)),
                old_record=record_v1,
                database=env.database_name,
                lease_time_ms=lease_time_ms,
                expiration_policy=policy,
            )
            env.clock.advance(lease_time_ms / 1000.0 + 1.0)
            outcomes = [bootloader.check_for_update() for bootloader in bootloaders]
            closed_now = 0
            aborted = 0
            deferred_commit = 0
            still_old = 0
            for bootloader in bootloaders:
                transition = bootloader.last_transition
                if transition is None:
                    continue
                closed_now += transition.closed_immediately
                aborted += transition.aborted_transactions
                deferred_commit += transition.deferred_to_commit
                still_old += transition.deferred_to_close
            # Connections deferred to commit close once their transaction ends.
            for connection in open_connections:
                if not connection.closed and connection.in_transaction:
                    connection.commit()
            lingering = sum(1 for connection in open_connections if not connection.closed)
            result.add_row(
                expiration_policy=_policy_name(policy),
                upgraded_clients=outcomes.count("upgraded"),
                connections_total=len(open_connections),
                closed_immediately=closed_now,
                aborted_transactions=aborted,
                closed_after_commit=deferred_commit,
                left_to_application_close=still_old,
                connections_still_open_after_commit_phase=lingering,
            )
            for connection in open_connections:
                if not connection.closed:
                    connection.close()
        finally:
            env.close()
    result.add_note(
        "IMMEDIATE aborts in-flight transactions; AFTER_COMMIT defers exactly the "
        "in-transaction connections; AFTER_CLOSE leaves every old connection to the application"
    )
    return result


def run_revocation_study(lease_time_ms: int = 1_000) -> ExperimentResult:
    """Sub-study 2: lease expires with no replacement driver (REVOKE path)."""
    result = ExperimentResult(
        experiment_id="E11b",
        title="Driver revocation when the lease expires with no replacement",
        parameters={"lease_time_ms": lease_time_ms},
    )
    env = build_single_database(lease_time_ms=lease_time_ms)
    try:
        record = env.admin.install_driver(
            build_pydb_driver("pydb-1.0.0", driver_version=(1, 0, 0)),
            database=env.database_name,
            lease_time_ms=lease_time_ms,
        )
        bootloader = env.new_bootloader(BootloaderConfig())
        connection = bootloader.connect(env.url)
        # The administrator disables the driver without providing a new one.
        env.admin.revoke_driver(record)
        env.clock.advance(lease_time_ms / 1000.0 + 1.0)
        outcome = bootloader.check_for_update()
        blocked = 0
        error_text = ""
        try:
            bootloader.connect(env.url)
        except DrivolutionError as exc:
            blocked = 1
            error_text = str(exc)
        result.add_row(
            outcome=outcome,
            new_connections_blocked=blocked,
            revocations=bootloader.stats.revocations,
            blocked_connects=bootloader.stats.blocked_connects,
            error_mentions_missing_driver="driver" in error_text.lower(),
        )
        result.add_note(
            "after revocation the bootloader blocks new connection requests and returns an "
            "error explaining the absence of a suitable driver (paper Section 3.1.2)"
        )
        if not connection.closed:
            connection.close()
    finally:
        env.close()
    return result


def run_lease_time_sweep(
    lease_times_ms: List[int] = (500, 2_000, 10_000, 60_000),
    clients: int = 5,
    observation_window_s: float = 60.0,
) -> ExperimentResult:
    """Sub-study 3: lease time vs upgrade propagation delay vs server traffic."""
    result = ExperimentResult(
        experiment_id="E11c",
        title="Lease-time sweep: propagation delay vs Drivolution server traffic",
        parameters={
            "lease_times_ms": list(lease_times_ms),
            "clients": clients,
            "observation_window_s": observation_window_s,
        },
    )
    for lease_time_ms in lease_times_ms:
        env = build_single_database(lease_time_ms=lease_time_ms)
        try:
            record_v1 = env.admin.install_driver(
                build_pydb_driver("pydb-1.0.0", driver_version=(1, 0, 0)),
                database=env.database_name,
                lease_time_ms=lease_time_ms,
            )
            bootloaders = [env.new_bootloader(BootloaderConfig()) for _ in range(clients)]
            for bootloader in bootloaders:
                bootloader.connect(env.url).close()
            requests_before = env.drivolution.stats.requests
            env.admin.push_upgrade(
                build_pydb_driver("pydb-1.1.0", driver_version=(1, 1, 0)),
                old_record=record_v1,
                database=env.database_name,
                lease_time_ms=lease_time_ms,
            )
            # Clients poll lazily each lease period. Keep polling for the whole
            # observation window so renewal traffic is comparable across lease
            # times, and record when the upgrade reached every client.
            lease_s = lease_time_ms / 1000.0
            elapsed = 0.0
            upgraded = 0
            propagation_delay = None
            while elapsed < observation_window_s:
                env.clock.advance(lease_s)
                elapsed += lease_s
                for bootloader in bootloaders:
                    bootloader.check_for_update()
                upgraded = sum(
                    1
                    for bootloader in bootloaders
                    if bootloader.driver_info().get("driver_name") == "pydb-1.1.0"
                )
                if upgraded == clients and propagation_delay is None:
                    propagation_delay = elapsed
            renewal_traffic = env.drivolution.stats.requests - requests_before
            result.add_row(
                mode="lease polling",
                lease_time_ms=lease_time_ms,
                upgraded_clients=upgraded,
                propagation_delay_s=round(propagation_delay if propagation_delay is not None else elapsed, 3),
                server_requests_in_window=renewal_traffic,
            )
        finally:
            env.close()

    # Dedicated notification channel: propagation is immediate, independent
    # of the lease time, at the cost of one standing connection per client.
    env = build_single_database(lease_time_ms=60_000)
    try:
        record_v1 = env.admin.install_driver(
            build_pydb_driver("pydb-1.0.0", driver_version=(1, 0, 0)),
            database=env.database_name,
            lease_time_ms=60_000,
        )
        bootloaders = [env.new_bootloader(BootloaderConfig()) for _ in range(clients)]
        for bootloader in bootloaders:
            bootloader.connect(env.url).close()
            bootloader.subscribe_for_updates(env.db_address, database=env.database_name)
        requests_before = env.drivolution.stats.requests
        env.admin.push_upgrade(
            build_pydb_driver("pydb-1.1.0", driver_version=(1, 1, 0)),
            old_record=record_v1,
            database=env.database_name,
            lease_time_ms=60_000,
        )
        import time as _time

        deadline = _time.time() + 5.0
        upgraded = 0
        while _time.time() < deadline:
            upgraded = sum(
                1
                for bootloader in bootloaders
                if bootloader.driver_info().get("driver_name") == "pydb-1.1.0"
            )
            if upgraded == clients:
                break
            _time.sleep(0.02)
        result.add_row(
            mode="notification channel",
            lease_time_ms=60_000,
            upgraded_clients=upgraded,
            propagation_delay_s=0.0,
            server_requests_in_window=env.drivolution.stats.requests - requests_before,
        )
        result.add_note(
            "shorter leases upgrade clients sooner but generate proportionally more renewal "
            "traffic; the dedicated notification channel upgrades immediately regardless of lease time"
        )
        for bootloader in bootloaders:
            bootloader.shutdown()
    finally:
        env.close()
    return result


# -- E13: request-scheduling policy matrix -----------------------------------------


def run_scheduling_policy_matrix(
    policies: Sequence[str] = ("round_robin", "least_pending", "weighted"),
    cache_modes: Sequence[bool] = (False, True),
    clients: int = 3,
    requests_per_client: int = 40,
    replicas: int = 3,
    write_ratio: float = 0.2,
) -> ExperimentResult:
    """E13a: every read policy × query cache on/off on one controller.

    Each combination drives a fleet of client applications through the
    cluster driver against a fresh cluster and reports throughput-side
    metrics (success counts, p50/p95/p99 latency) plus the scheduler's own
    stats (cache hit rate, per-backend read distribution).
    """
    result = ExperimentResult(
        experiment_id="E13a",
        title="Request-scheduling policy matrix: read policy x query cache",
        parameters={
            "policies": list(policies),
            "cache_modes": [bool(mode) for mode in cache_modes],
            "clients": clients,
            "requests_per_client": requests_per_client,
            "replicas": replicas,
            "write_ratio": write_ratio,
        },
    )
    for policy in policies:
        for cache_enabled in cache_modes:
            spec = policy
            if policy == "weighted":
                # Skewed weights (N:...:2:1) so the weighted cell actually
                # demonstrates weighting instead of degenerating to uniform.
                spec += ":" + ",".join(
                    f"db{index + 1}={replicas - index}" for index in range(replicas)
                )
            env = build_cluster(
                replicas=replicas,
                controllers=1,
                controller_options={
                    "read_policy": spec,
                    "query_cache_enabled": bool(cache_enabled),
                },
            )
            apps: List[ClientApplication] = []
            try:
                controller = env.controllers[0]
                runtime = ClusterDriverRuntime(name=f"sched-{policy}")
                apps = [
                    ClientApplication(
                        name=f"app{app_index}",
                        connect=runtime.connect,
                        url=env.client_url(),
                        spec=WorkloadSpec(table="sched_events", write_ratio=write_ratio),
                        connect_kwargs={"network": env.network},
                    )
                    for app_index in range(clients)
                ]
                apps[0].ensure_schema()
                for app in apps:
                    app.run_requests(requests_per_client)
                summaries = [app.metrics.summary() for app in apps]
                # Fleet-wide percentiles over every successful request, not
                # an aggregate of per-client percentiles.
                latencies = [
                    record.latency
                    for app in apps
                    for record in app.metrics.records()
                    if record.ok and record.latency > 0
                ]
                stats = controller.stats()
                cache_stats = stats["scheduler"]["query_cache"] or {}
                reads_per_backend = [
                    backend["statements_executed"]
                    for backend in stats["scheduler"]["backends"]
                ]
                result.add_row(
                    read_policy=policy,
                    query_cache=bool(cache_enabled),
                    requests=sum(summary.total for summary in summaries),
                    ok=sum(summary.succeeded for summary in summaries),
                    failed=sum(summary.failed for summary in summaries),
                    p50_ms=round(percentile(latencies, 50) * 1000, 3),
                    p95_ms=round(percentile(latencies, 95) * 1000, 3),
                    p99_ms=round(percentile(latencies, 99) * 1000, 3),
                    cache_hits=cache_stats.get("hits", 0),
                    cache_hit_rate=round(cache_stats.get("hit_rate", 0.0), 3),
                    backend_spread=max(reads_per_backend) - min(reads_per_backend),
                )
            finally:
                for app in apps:
                    app.close()
                env.close()
    result.add_note(
        "every policy serves the full workload without failures; the query cache "
        "converts repeated SELECTs into hits and the spread column shows how evenly "
        "each policy distributes statements over the backends"
    )
    return result


class _SequentialBroadcaster(WriteBroadcaster):
    """E13b's baseline: one round per target, each collected before the
    next target is sent to."""

    def broadcast_batch(self, backends, statements, trace=NULL_TRACE, leases=None) -> BatchBroadcastOutcome:
        outcomes = []
        for backend in backends:
            outcomes += super().broadcast_batch([backend], statements, trace, leases).outcomes
        return BatchBroadcastOutcome(len(statements), outcomes)


def run_broadcast_comparison(
    backends: int = 4, writes: int = 25, latency_ms: float = 3.0
) -> ExperimentResult:
    """E13b: parallel vs sequential write broadcast wall-clock.

    Each of ``backends`` simulated replicas charges ``latency_ms`` per
    statement; sequential broadcast pays it ``backends`` times per write,
    the parallel broadcaster, which sends to every replica before
    collecting any, pays it roughly once.
    """
    result = ExperimentResult(
        experiment_id="E13b",
        title="Parallel vs sequential write broadcast",
        parameters={"backends": backends, "writes": writes, "latency_ms": latency_ms},
    )
    latency_s = latency_ms / 1000.0
    timings: Dict[str, float] = {}
    for mode, broadcaster in (("sequential", _SequentialBroadcaster()), ("parallel", WriteBroadcaster())):
        scheduler = UnbatchedScheduler(
            [
                Backend(f"sim{index + 1}", lambda: SimConnection(latency_s, threadsafety=1))
                for index in range(backends)
            ],
            RecoveryLog(),
            broadcaster=broadcaster,
        )
        try:
            started = time.perf_counter()
            for index in range(writes):
                scheduler.execute(
                    "INSERT INTO bench_t (id) VALUES ($id)", {"id": index}
                )
            wall = time.perf_counter() - started
        finally:
            scheduler.close()
        timings[mode] = wall
        result.add_row(
            mode=mode,
            backends=backends,
            writes=writes,
            injected_latency_ms=latency_ms,
            wall_s=round(wall, 4),
            per_write_ms=round(wall / writes * 1000, 3),
        )
    speedup = timings["sequential"] / timings["parallel"] if timings["parallel"] else 0.0
    result.parameters["speedup_x"] = round(speedup, 2)
    result.add_note(
        f"parallel broadcast is {speedup:.1f}x faster than sequential on "
        f"{backends} backends with {latency_ms}ms per-statement latency"
    )
    return result


def run_experiment(**kwargs) -> ExperimentResult:
    """Combined E11 result (matrix + revocation + sweep rows)."""
    combined = ExperimentResult(
        experiment_id="E11",
        title="Policies and leases (Tables 3/4, Section 3.3)",
    )
    for partial in (
        run_expiration_policy_matrix(),
        run_revocation_study(),
        run_lease_time_sweep(),
    ):
        for row in partial.rows:
            combined.add_row(study=partial.experiment_id, **row)
        for note in partial.notes:
            combined.add_note(f"{partial.experiment_id}: {note}")
    return combined
