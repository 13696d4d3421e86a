(** The campaign server: a persistent daemon multiplexing many concurrent
    fuzzing campaigns over one shared pool of local slots and any number of
    remote worker pools connected over TCP.

    Architecture — the same pieces {!Orchestrator.run} assembles for one
    campaign, assembled for many:

    - One {e main domain} owns everything: the accept/select loop (Unix
      socket, plus an optional TCP listener carrying the identical
      protocol), every job's {!Orchestrator.Merge.t} (single-owner merge,
      exactly as in the standalone orchestrator), the job table, the
      {!Scheduler} (fair round-robin with per-job quotas), the lease table,
      and all subscriber fan-out.
    - One dispatch step on that domain fills free slots from the scheduler:
      first the [pool] {e local slots} of an {!Orchestrator.Pool}, whose
      executors run {!Orchestrator.exec_shard} and wake the select loop,
      then the remote pools.
    - {e Remote worker pools} ([once4all worker --connect HOST:PORT])
      register over the same protocol and are granted shards under
      heartbeat-deadlined {!Lease}s; a missed heartbeat or dropped
      connection forfeits the lease and the shard is requeued. A shard
      outcome is a pure function of [(env, shard)], so which worker —
      local, remote, or a reassignment after a mid-shard death — runs it
      cannot perturb any campaign's results: every job lands on the report
      the standalone run produces, byte for byte.
    - Each job lives under [state_dir/<id>/]: [spec.json],
      [checkpoint.json] (updated after every merged shard), [report.txt]
      (written through {!Render} on completion — the standalone run's
      stdout), optional [trace/] bundles and [telemetry.jsonl], and a
      [status] file. When the TCP listener is enabled the bound port is
      written to [state_dir/tcp.port] (useful with port 0).

    Inbound robustness: request lines are length-capped (the mirror of the
    outbound slow-subscriber cap) — an oversized line earns a typed
    [line_too_long] error and a disconnect; a connection that never sends a
    valid request within the handshake deadline, or idles past the idle
    deadline (watch subscribers exempt), is dropped with a typed error.

    Shutdown: SIGTERM (via {!Orchestrator.Stop}, installed by the CLI) or a
    protocol [Shutdown] request both drain gracefully — local slots
    finish their in-flight shard, every result merges and checkpoints,
    remote pools are sent [Drain] (their in-flight shards are forfeited;
    the checkpoint re-runs them on revive), and every live job is left
    paused and resumable ([Resume_job] revives it, even after a server
    restart). *)

type config = {
  socket_path : string;  (** Unix-domain socket to listen on *)
  state_dir : string;  (** per-job state root, created if missing *)
  pool : int;
      (** local slots (executor domains) shared by all campaigns (>= 0; 0
          means every shard runs on remote worker pools) *)
  tcp : string option;
      (** optional TCP listener spec, ["PORT"] or ["HOST:PORT"]; port 0
          binds an ephemeral port, recorded in [state_dir/tcp.port] *)
  handshake_timeout : float;
      (** seconds a connection may live without one valid request *)
  idle_timeout : float;
      (** seconds a non-subscriber connection may sit silent *)
  lease_timeout : float;
      (** heartbeat deadline for remote shard leases, in seconds *)
}

val default_handshake_timeout : float
val default_idle_timeout : float
val default_lease_timeout : float

val run : config -> int
(** Run the daemon until SIGTERM/SIGINT ({!Orchestrator.Stop.requested}) or
    a [Shutdown] request, then drain and return the exit code (0; 1 if a
    listener could not be bound). Installs no signal handlers itself beyond
    ignoring SIGPIPE — callers that want the two-signal contract install
    {!Orchestrator.Stop.install_handlers}. *)
