"""The fork gates (tools/check_forks.py) run with the tier-1 suite, so a
twin that grows back fails locally and not only in the CI docs job."""

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _check_forks():
    spec = importlib.util.spec_from_file_location(
        "check_forks", os.path.join(ROOT, "tools", "check_forks.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_retired_fork_or_knob_has_grown_back():
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "check_forks.py")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_engine_gates_see_the_one_scan_site_and_the_one_parse_site():
    """The two sqlengine ratchets are not vacuous: each pattern matches
    exactly the site it allows, so a second one would exceed it."""
    check_forks = _check_forks()
    expected = {
        "a second row-finding loop": "src/repro/sqlengine/executor.py",
        "a second parse site": "src/repro/sqlengine/engine.py",
    }
    for prefix, location in expected.items():
        (gate,) = [gate for gate in check_forks.GATES if gate.message.startswith(prefix)]
        assert gate.allowed == 1
        report = check_forks.check_gate(gate._replace(allowed=0))
        assert len(report) == 2 and report[1].startswith(location + ":"), report


def test_plan_gate_matches_the_interpreter_it_retired():
    """An expression runs only compiled: the gate allows nothing in src/
    and matches the per-row tree walk it retired — the executor's calls,
    the node methods and the context they took."""
    check_forks = _check_forks()
    (gate,) = [gate for gate in check_forks.GATES if gate.message.startswith("an expression interpreter")]
    assert gate.allowed == 0 and gate.paths == ("src",) and check_forks.check_gate(gate) == []
    for line in (
        "            if where.evaluate(self._context(row, params, positional))",
        "        return EvalContext(",
        "    def evaluate(self, context: EvalContext) -> Any:",
        "        value = self.operand.evaluate(context)",
        "    def columns_referenced(self) -> List[str]:",
        "class EvalContext:",
    ):
        assert check_forks.re.search(gate.pattern, line), line


def test_key_shape_gates_match_the_token_matcher_they_retired():
    """The two lock-scope gates allow nothing, so what shows they are not
    vacuous is that each pattern matches lines of the code it retired."""
    check_forks = _check_forks()
    retired = {
        "a second reading of a write": [
            "    where_equalities: Tuple[Tuple[str, KeyExpr], ...] = ()",
            "def _match_in_list(conjunct: List[Token]):",
            "        if statement.insert_values is None:",
        ],
        "the classifier reads names": [
            '    if token.kind in ("NUMBER", "STRING"):',
            '    if token.kind == "PARAM":',
        ],
    }
    for prefix, lines in retired.items():
        (gate,) = [gate for gate in check_forks.GATES if gate.message.startswith(prefix)]
        assert gate.allowed == 0 and check_forks.check_gate(gate) == []
        for line in lines:
            assert check_forks.re.search(gate.pattern, line), line


def test_transaction_flag_gates_match_the_client_side_guesses_they_retired():
    """Same shape: both allow nothing, and each pattern matches the lines
    that used to set the flag from an API call or sniff a keyword."""
    check_forks = _check_forks()
    retired = {
        "a client-side guess at the transaction state": [
            "        self._in_transaction = True",
        ],
        "the driver sniffs a statement's first word": [
            '            head = sql.split(None, 1)[0].upper() if sql.strip() else ""',
        ],
    }
    for prefix, lines in retired.items():
        (gate,) = [gate for gate in check_forks.GATES if gate.message.startswith(prefix)]
        assert gate.allowed == 0 and check_forks.check_gate(gate) == []
        for line in lines:
            assert check_forks.re.search(gate.pattern, line), line


def test_controller_transaction_gate_matches_the_answers_it_retired():
    """The row allows nothing and matches the controller's per-session
    guess, the scheduler's BEGIN/COMMIT counter and the fields beside it."""
    check_forks = _check_forks()
    (gate,) = [
        gate for gate in check_forks.GATES
        if gate.message.startswith('a second answer to "is a transaction open?"')
    ]
    assert gate.allowed == 0 and check_forks.check_gate(gate) == []
    for line in (
        "class SessionContext:",
        "    def observe(self, command: str, is_transaction_control: bool) -> None:",
        "                self._open_transactions += 1",
        "        self._open_transactions = max(0, self._open_transactions - 1)",
        "                if self._tx_owner is None:",
        "                        self._tx_dirty_tables.update(write_tables)",
        "        self._tx_dirty_all = False",
        "    def _flush_tx_dirty_locked(self) -> None:",
    ):
        assert check_forks.re.search(gate.pattern, line), line


def test_session_transaction_gates_match_the_shared_record_they_retired():
    """The two rows allow nothing, and match the scheduler's one
    cluster-wide record, its settle's poll of every backend, and the
    backend flag that poll read."""
    check_forks = _check_forks()
    retired = {
        "one cluster-wide transaction record": [
            "        self._transaction: Optional[_Transaction] = None",
            "        transaction = self._transaction",
            "            self._transaction = _Transaction(session_id)",
        ],
        "the scheduler polls every backend for a transaction": [
            "        open_now = any([backend.in_transaction for backend in self._backends])",
            "    def in_transaction(self) -> bool:",
        ],
    }
    for prefix, lines in retired.items():
        (gate,) = [gate for gate in check_forks.GATES if gate.message.startswith(prefix)]
        assert gate.allowed == 0 and check_forks.check_gate(gate) == []
        for line in lines:
            assert check_forks.re.search(gate.pattern, line), line
    (poll,) = [gate for gate in check_forks.GATES if gate.message.startswith("the scheduler polls")]
    # The per-session question and the connection flag read per lease are not polls.
    for line in (
        "    def in_transaction(self, session_id: Optional[str]) -> bool:",
        '            and getattr(connection, "in_transaction", True)',
    ):
        assert not check_forks.re.search(poll.pattern, line), line


def test_ingress_gates_match_the_dispatches_they_retired():
    """The unbounded-wait ratchet now allows the ingress loop, the lock
    manager's two waits and the scheduler's, and matches the per-listener
    receive loops it retired; the dispatch gate allows nothing and
    matches the prefix hooks, the peer-frame tuple and the self-reported
    origin it retired."""
    check_forks = _check_forks()
    (wait,) = [gate for gate in check_forks.GATES if gate.message.startswith("a new unbounded wait")]
    assert wait.allowed == 4
    report = check_forks.check_gate(wait._replace(allowed=0))
    sites = sorted(line.split(":", 1)[0] for line in report[1:])
    assert sites == [
        "src/repro/cluster/locks.py",
        "src/repro/cluster/locks.py",
        "src/repro/cluster/scheduler.py",
        "src/repro/netsim/ingress.py",
    ], report
    for line in (
        "                message = channel.recv(timeout=None)",
        "                message = self._channel.recv(timeout=None)",
        "                message = state.channel.recv(timeout=None)",
    ):
        assert check_forks.re.search(wait.pattern, line), line
    (dispatch,) = [gate for gate in check_forks.GATES if gate.message.startswith("a listener dispatching")]
    assert dispatch.allowed == 0 and check_forks.check_gate(dispatch) == []
    for line in (
        "    def register_extension(self, message_prefix: str, handler: ExtensionHandler) -> None:",
        "        database_server.register_extension(messages.MESSAGE_PREFIX, self.handle_connection)",
        "_PEER_FRAMES = (",
        '        origin = frame.get("origin_address")',
    ):
        assert check_forks.re.search(dispatch.pattern, line), line


def test_frame_path_gate_matches_the_walks_and_queues_it_retired():
    """The codec gate allows nothing and matches the Python walks around
    json and the Condition-based queues of the in-memory hop it retired."""
    check_forks = _check_forks()
    (gate,) = [gate for gate in check_forks.GATES if gate.message.startswith("a frame is one C json pass")]
    assert gate.allowed == 0 and check_forks.check_gate(gate) == []
    for line in (
        "def _encode_value(value: Any) -> Any:",
        '        payload = json.dumps(_encode_value(message), separators=(",", ":"))',
        "    return _decode_value(decoded)",
        '        client_to_server: "queue.Queue[Optional[bytes]]" = queue.Queue()',
        '        self._pending: "queue.Queue[InMemoryChannel]" = queue.Queue()',
    ):
        assert check_forks.re.search(gate.pattern, line), line


def test_codec_gate_sees_only_framings_one_prebuilt_decoder():
    """The per-call codec gate allows exactly framing's module-level decoder
    (its encoder is c_make_encoder's, with no fallback), and matches the
    per-frame codecs it retired."""
    check_forks = _check_forks()
    (gate,) = [gate for gate in check_forks.GATES if gate.message.startswith("a codec built per call")]
    assert gate.allowed == 1 and check_forks.check_gate(gate) == []
    report = check_forks.check_gate(gate._replace(allowed=0))
    assert len(report) == 2, report
    assert report[1].startswith("src/repro/netsim/framing.py:"), report
    for line in (
        '        payload = json.dumps(message, separators=(",", ":"), default=_tag_bytes)',
        '        decoded = json.loads(data[4:], object_hook=_untag_bytes)',
        '        encoder = json.JSONEncoder(separators=(",", ":"), default=_tag_bytes)',
        "    return JSONDecoder(object_hook=_untag_bytes).decode(text)",
    ):
        assert check_forks.re.search(gate.pattern, line), line


def test_broadcast_gates_match_the_pool_they_retired():
    """Both rows allow nothing and match the broadcaster's thread pool,
    its auto-sizing and the experiments that sized it."""
    check_forks = _check_forks()
    pool, callers = [
        gate for gate in check_forks.GATES if gate.message.startswith("a round sends to every target")
    ]
    for gate in (pool, callers):
        assert gate.allowed == 0 and check_forks.check_gate(gate) == []
    for line in (
        "from concurrent.futures import ThreadPoolExecutor",
        "    def _get_executor(self, fan_out: int = 0) -> Optional[ThreadPoolExecutor]:",
        "    def __init__(self, parallel: bool = True, max_workers: Optional[int] = None) -> None:",
        '                "effective_max_workers": self._pool_size,',
    ):
        assert check_forks.re.search(pool.pattern, line), line
    for line in (
        "            broadcaster=WriteBroadcaster(parallel=True, max_workers=writers),",
        "            broadcaster=WriteBroadcaster(parallel=parallel, max_workers=backends),",
    ):
        assert check_forks.re.search(callers.pattern, line), line


def test_run_queue_gate_matches_the_executor_it_retired():
    """The row allows nothing and matches the controller's statement
    pool it retired."""
    check_forks = _check_forks()
    (gate,) = [gate for gate in check_forks.GATES if gate.message.startswith("a trunk statement")]
    assert gate.allowed == 0 and check_forks.check_gate(gate) == []
    for line in (
        "from concurrent.futures import ThreadPoolExecutor",
        "            self._worker_pool = ThreadPoolExecutor(",
    ):
        assert check_forks.re.search(gate.pattern, line), line


def test_exchange_gates_match_the_fan_outs_they_retired():
    """The thread and peer_request rows allow nothing and match the
    per-round replication threads and the one-exchange helper they
    retired; the recv row allows the one receive, in PeerLink.collect."""
    check_forks = _check_forks()
    threads, helper, recv = [
        gate for gate in check_forks.GATES if gate.message.startswith("a controller reaches its peers")
    ]
    for gate in (threads, helper):
        assert gate.allowed == 0 and check_forks.check_gate(gate) == []
    assert check_forks.re.search(threads.pattern, "            threading.Thread(target=ship, args=(peer,), daemon=True)")
    for line in (
        "def peer_request(",
        "                    reply = peer_request(",
        "    peer_request,",
    ):
        assert check_forks.re.search(helper.pattern, line), line
    assert recv.allowed == 1
    report = check_forks.check_gate(recv._replace(allowed=0))
    assert len(report) == 2 and "self._channel.recv(timeout=timeout)" in report[1], report
    assert check_forks.re.search(recv.pattern, "            reply = channel.recv(timeout=timeout)")


def test_log_writer_gates_match_the_back_wiring_they_retired():
    """The wiring row allows nothing and matches the callback and the
    store delegation it retired; the write row allows exactly the calls in
    recovery/log.py and matches the follower's writes under the log; the
    broadcast row allows nothing and matches the sequential mode."""
    check_forks = _check_forks()
    wiring, writes = [gate for gate in check_forks.GATES if gate.message.startswith("the recovery log has one writer")]
    assert wiring.allowed == 0 and check_forks.check_gate(wiring) == []
    for line in (
        "    def observe_replicated(self, entries: Iterable[LogEntry]) -> None:",
        "    def attach(",
        "    def __getattr__(self, name: str) -> Any:",
    ):
        assert check_forks.re.search(wiring.pattern, line), line
    report = check_forks.check_gate(writes._replace(allowed=0))
    assert len(report) == 1 + writes.allowed, report
    assert all(hit.startswith("src/repro/cluster/recovery/log.py:") for hit in report[1:]), report
    for line in (
        "                self.inner.reset_to_floor(floor)",
        "                self.inner.truncate_through(floor)",
        "        self.inner.append_many(entries)",
    ):
        assert check_forks.re.search(writes.pattern, line), line
    (mode,) = [gate for gate in check_forks.GATES if gate.message.startswith("a sequential broadcast mode")]
    assert mode.allowed == 0 and check_forks.check_gate(mode) == []
    for line in (
        "        self._broadcaster = broadcaster or WriteBroadcaster(parallel=True)",
        "        self.parallel = parallel",
        "        waves = [order] if self.parallel else [[batch] for batch in order]",
    ):
        assert check_forks.re.search(mode.pattern, line), line


def test_write_round_gates_match_the_commit_copy_they_retired():
    """The append row allows the round's one append and matches the
    COMMIT's second one; the accounting row allows nothing and matches
    the transaction-control copy and the inline replay dedup."""
    check_forks = _check_forks()
    (append,) = [gate for gate in check_forks.GATES if gate.message.startswith("one log-append site")]
    assert append.allowed == 1
    report = check_forks.check_gate(append._replace(allowed=0))
    assert len(report) == 2 and report[1].startswith("src/repro/cluster/scheduler.py:"), report
    assert check_forks.re.search(append.pattern, "            flushed = self._recovery_log.append_batch(")
    (copy,) = [gate for gate in check_forks.GATES if gate.message.startswith("a second copy of the write round")]
    assert copy.allowed == 0 and check_forks.check_gate(copy) == []
    for line in (
        "                self._account_transaction_control_locked(items[0])",
        "    def _account_transaction_control_locked(self, item: _BatchItem) -> None:",
        "    def _seq_applied_locked(self, table: str, seq: int) -> bool:",
        "                self._seq_applied_locked(table, seq) for table, seq in table_seqs.items()",
    ):
        assert check_forks.re.search(copy.pattern, line), line


def test_lifecycle_gates_match_the_decisions_they_retired():
    """The unload row allows the one unload site and matches the
    transition's own unload; the decision row allows nothing and matches
    the driver_id comparison and the three connection controls it
    retired."""
    check_forks = _check_forks()
    (unload,) = [gate for gate in check_forks.GATES if gate.message.startswith("a driver is unloaded in one place")]
    assert unload.allowed == 1
    report = check_forks.check_gate(unload._replace(allowed=0))
    assert len(report) == 2 and report[1].startswith("src/repro/core/bootloader.py:"), report
    assert check_forks.re.search(unload.pattern, "                self.loader.unload(old)")
    (decision,) = [gate for gate in check_forks.GATES if gate.message.startswith("a second lifecycle decision")]
    assert decision.allowed == 0 and check_forks.check_gate(decision) == []
    for line in (
        "            and old.driver_id == offer.driver_id",
        "    def force_close(self) -> None:",
        "            managed.force_close()",
        "                managed.close_after_commit()",
        "        self._close_after_commit = False",
        "            managed.mark_stale()",
    ):
        assert check_forks.re.search(decision.pattern, line), line


def test_drivolution_gates_match_the_second_copies_they_retired():
    """The names row allows nothing and matches the lease wrapper, the
    per-server install record and the controller's own install; the two
    install rows allow the admin's one call each and match the
    controller's retired copy."""
    check_forks = _check_forks()
    (names,) = [gate for gate in check_forks.GATES if gate.message.startswith("a Drivolution fact kept twice")]
    assert names.allowed == 0 and check_forks.check_gate(names) == []
    for line in (
        "class LeaseManager:",
        "        self.leases = LeaseManager(binding.registry, clock=clock)",
        "class InstallRecord:",
        "    def driver_id_on(self, server: DrivolutionServer) -> int:",
        "    def remove_driver(self, driver_id_by_server: Dict[str, int]) -> None:",
        "        driver_id = self._install_driver_locally(",
    ):
        assert check_forks.re.search(names.pattern, line), line
    install, grant = [gate for gate in check_forks.GATES if gate.message.startswith("one install site")]
    retired = {
        install: "        driver_id = registry.install_driver(package)",
        grant: "        registry.grant_permission(",
    }
    for gate, line in retired.items():
        assert gate.allowed == 1
        report = check_forks.check_gate(gate._replace(allowed=0))
        assert len(report) == 2 and report[1].startswith("src/repro/core/admin.py:"), report
        assert check_forks.re.search(gate.pattern, line), line


def test_controller_config_gates_match_the_switches_they_retired():
    """Each of the seven rows allows nothing and matches the lines of the
    ControllerConfig field, scheduler switch or backend weight it retired."""
    check_forks = _check_forks()
    retired = {
        r"write_batching=": [
            "            write_batching=config.write_batching,",
            '            write_batching=mode == "batched",',
        ],
        r"_write_batcher is None": [
            "        if self._write_batcher is None or self._transaction is not None:",
        ],
        r"policy_options": [
            "    policy_options: Dict[str, Any] = field(default_factory=dict)",
            "            read_policy=create_policy(config.read_policy, **config.policy_options),",
        ],
        r"\.weight\b": [
            "        self.weight = weight",
            '                    "weight": backend.weight,',
        ],
        r"slow_query_capacity": [
            "        self.slow_queries = SlowQueryLog(capacity=config.slow_query_capacity)",
        ],
        r"log_segment_entries": [
            "            store = FileLogStore(config.log_dir, segment_max_entries=config.log_segment_entries)",
        ],
        r"heartbeat_misses": [
            "            max_misses=config.heartbeat_misses,",
            '        controller_options={"heartbeat_misses": heartbeat_misses},',
        ],
    }
    for pattern, lines in retired.items():
        (gate,) = [gate for gate in check_forks.GATES if gate.pattern == pattern]
        assert gate.allowed == 0 and check_forks.check_gate(gate) == []
        for line in lines:
            assert check_forks.re.search(gate.pattern, line), line


def test_record_gates_match_the_three_files_they_retired():
    """The one-record gates: the first allows nothing and matches lines of
    the three writers and loaders it retired; the second allows exactly
    ``atomic_write_json``'s definition and its one call."""
    check_forks = _check_forks()
    names, writes = [
        gate for gate in check_forks.GATES if gate.message.startswith("a controller's")
    ]
    assert names.allowed == 0 and check_forks.check_gate(names) == []
    for line in [
        "from repro.cluster.recovery.checkpoints import Checkpoint, CheckpointRegistry",
        '            checkpoints = CheckpointRegistry(os.path.join(config.log_dir, "checkpoints.json"))',
        '            ha_meta_path = os.path.join(config.log_dir, "ha.json")',
        "        self._meta_path = meta_path if peer_addresses else None",
        "            self_address, peer_addresses, self._load_meta()",
        "        self._write_meta()",
        '    _META_FILE = "logmeta.json"',
    ]:
        assert check_forks.re.search(names.pattern, line), line
    assert writes.allowed == 2 and check_forks.check_gate(writes) == []
    report = check_forks.check_gate(writes._replace(allowed=0))
    assert len(report) == 3, report
    for line in [
        '            atomic_write_json(self._meta_path, {"epoch": self.epoch})',
        "        atomic_write_json(self._meta_path(), {\"truncated_through\": self._truncated_through})",
    ]:
        assert check_forks.re.search(writes.pattern, line), line


def test_read_set_gate_matches_the_write_round_branch_it_retired():
    """``hosting_all(`` is allowed once in the scheduler, where a read's
    candidates are decided; the in-transaction branch of the write
    round's targets called it a second time."""
    check_forks = _check_forks()
    (gate,) = [gate for gate in check_forks.GATES if gate.message.startswith("a read's replica set")]
    assert gate.allowed == 1 and check_forks.check_gate(gate) == []
    report = check_forks.check_gate(gate._replace(allowed=0))
    assert len(report) == 2 and report[1].startswith("src/repro/cluster/scheduler.py:"), report
    assert report[1].endswith("candidates = placement.hosting_all(statement.read_tables, enabled)")
    retired = "            targets = placement.hosting_all(statement.read_tables, enabled)"
    assert check_forks.re.search(gate.pattern, retired)


def test_begin_gates_see_the_one_deferral_and_a_twin_in_the_cluster():
    """The owed BEGIN and the lone-control text test appear under src/repro
    only in dbapi/runtime.py; the replica tier and the cluster driver
    classify no statement. A frame's ``begin`` field, built where frames
    are built, matches neither."""
    check_forks = _check_forks()
    owed, text = [
        gate for gate in check_forks.GATES if gate.message.startswith("a second BEGIN deferral")
    ]
    for gate in (owed, text):
        assert gate.allowed == 0 and check_forks.check_gate(gate) == []
    report = check_forks.check_gate(owed._replace(exclude=()))
    assert len(report) > 1
    assert {line.split(":", 1)[0] for line in report[1:]} == {"src/repro/dbapi/runtime.py"}
    for gate, line in (
        (owed, "        owed = self.backend._owed_begin is connection"),
        (owed, "        if self._answer_here(sql):"),
        (text, "        command = classify(sql).command if carries else None"),
        (text, '        if sql.strip().upper() == "BEGIN":'),
        (text, "        if statement.command in (\"COMMIT\", \"ROLLBACK\"):"),
    ):
        assert check_forks.re.search(gate.pattern, line), line
    for line in (
        "            make_execute(sql, params, trace_id=trace_id, begin=begin, **correlation),",
        "                link.submit(session_id, sql, params, trace_id, begin=begin and index == 0)",
        "            self.carries_begin = spoken >= BEGIN_MIN_VERSION",
        '                    self._execute_once("BEGIN", {})',
    ):
        assert not any(check_forks.re.search(gate.pattern, line) for gate in (owed, text)), line


def test_frame_field_gates_match_the_unread_fields_they_retired():
    """The three rows allow nothing, and each pattern matches lines that
    put a field no receiver read on the wire: the password in a cluster
    CONNECT, its route and a Drivolution REQUEST, a peer frame's
    self-reported origin, and the requested extensions."""
    check_forks = _check_forks()
    retired = {
        "a password goes only to the database": [
            '        "password": password,',
            '                {"user": str, "password": str, "options": dict, "multiplex": bool, "trace": bool},',
            "    password: Optional[str] = None",
            '                "password": str,',
        ],
        "a peer frame names no sender": [
            '        "origin": origin,',
            "                    origin=self.node_id,",
            "def make_ha_status(origin: str) -> Dict[str, Any]:",
        ],
        "a frame carries only what its receiver reads": [
            "    requested_extensions: List[str] = field(default_factory=list)",
            "            requested_extensions=list(self.config.requested_extensions),",
        ],
    }
    for prefix, lines in retired.items():
        (gate,) = [gate for gate in check_forks.GATES if gate.message.startswith(prefix)]
        assert gate.allowed == 0 and check_forks.check_gate(gate) == []
        for line in lines:
            assert check_forks.re.search(gate.pattern, line), line


def test_connection_lock_gates_match_the_backend_hold_they_retired():
    """Both rows allow nothing and match the threadsafety branch and the
    backend lock a replica batch held from send to collect."""
    check_forks = _check_forks()
    level, hold = [
        gate for gate in check_forks.GATES if gate.message.startswith("one lock keeps a replica connection")
    ]
    for gate in (level, hold):
        assert gate.allowed == 0 and check_forks.check_gate(gate) == []
    assert check_forks.re.search(
        level.pattern, '        if getattr(connection, "threadsafety", 1) >= 2:'
    )
    for line in (
        "        self._locked = False",
        "        self._locked = True",
        "            if self._locked:",
        "    def _release(self) -> None:",
    ):
        assert check_forks.re.search(hold.pattern, line), line
    for line in ("    def _save_state_locked(self) -> None:", "            self._drop_connection(failed)"):
        assert not check_forks.re.search(hold.pattern, line), line
