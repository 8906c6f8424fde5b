(** The distributed census coordinator: the exhaustive census of
    [Engine.census] sharded over crash-prone worker {e processes}, with
    a crash-safe lease ledger as the only durable state.

    The rank space is cut into chunks; each chunk is granted to a worker
    under a lease recorded in the {!Dist_ledger}.  The full failure
    model lives here:

    - {b Lease expiry}: a worker that stops heartbeating past
      [lease_ttl] (monotonic clock) is SIGKILLed and its range
      re-queued.
    - {b Death detection}: worker exits are reaped ([waitpid]) and
      socket EOFs noticed; a dead worker's lease is revoked and the
      {e full} range re-queued — partial progress never survives a
      death, which is what makes the merged histogram independent of
      the crash schedule.
    - {b Respawn}: dead workers respawn under the seeded backoff of a
      [Supervise.Policy], up to [max_spawns] per slot.
    - {b Work stealing}: an idle worker marks the straggler with the
      most remaining work; at the straggler's next heartbeat the tail
      above the midpoint is re-leased and the victim truncated.  Only
      undecided ranks move, so stealing cannot double-count.
    - {b Honest degradation}: a range that fails [range_attempts]
      grants (or outlives every worker slot) is quarantined — in the
      ledger, and in [outcome.quarantined] with context
      ["dist.census"] — and the census reports an incomplete total
      exactly like a deadline-cut [Engine.census] (PARTIAL exit 3
      under [Api.Response.exit_code]).

    A coverage bitmap proves Done ranges disjoint and complete, so when
    [complete] holds the histogram is {e bit-identical} to
    [Engine.census] at any worker count, crash schedule and steal
    order.  Killing the coordinator itself is recoverable: rerun with
    the same ledger and [resume = true], and only the uncovered ranges
    are recomputed. *)

type outcome = {
  entries : Census.entry list;  (** histogram over the decided tables *)
  total : int;
  completed : int;  (** tables decided, including resumed ones *)
  resumed : int;  (** tables replayed from the ledger's Done records *)
  complete : bool;  (** [completed = total] *)
  quarantined : Supervise.quarantine list;
  deaths : int;  (** worker deaths observed (crashes, kills, expiries) *)
}

val census :
  ?obs:Obs.t ->
  ?rcn:string ->
  ?ledger:string ->
  ?resume:bool ->
  ?fsync:bool ->
  ?lease_ttl:float ->
  ?chunk:int ->
  ?stride:int ->
  ?steal_min:int ->
  ?range_attempts:int ->
  ?max_spawns:int ->
  ?policy:Supervise.Policy.t ->
  ?crash:(int * int) list ->
  ?throttle:(int * int) list ->
  workers:int ->
  config:Api.Config.t ->
  Synth.space ->
  outcome
(** Run the census over [workers] freshly spawned [rcn worker]
    processes ([rcn] defaults to [Sys.executable_name]; each worker runs
    its own domain pool of [config.jobs]).

    [ledger] is the lease ledger path (default: a temp file, removed on
    return); [resume] (requires [ledger]) replays its Done records and
    recomputes only the gaps.  [fsync] (default [true]) makes ledger
    appends durable.  [lease_ttl] (default 30 s) is the heartbeat
    budget; [chunk] the grant granularity (default [total / (4 *
    workers)]); [stride] the workers' batch-and-heartbeat granularity;
    [steal_min] (default [2 * stride]) the minimum remaining width worth
    stealing; [range_attempts] (default 3) the grants a range gets
    before quarantine; [max_spawns] (default 5) the processes a slot
    gets before retiring, with respawns paced by [policy]'s seeded
    backoff.

    [crash] and [throttle] are deterministic fault injection, passed to
    first-generation workers only (so an injected crash cannot recur
    after respawn): [(slot, k)] SIGKILLs slot's first process after [k]
    tables, [(slot, us)] throttles it by [us] microseconds per table.

    With [obs], counts [dist.leases_granted] / [dist.leases_expired] /
    [dist.leases_stolen] / [dist.workers_spawned] /
    [dist.workers_killed] / [dist.workers_respawned] /
    [dist.ranges_quarantined] / [dist.ranks_resumed] (plus the ledger's
    [dist.ledger_*]).
    @raise Invalid_argument on nonsensical parameters.
    @raise Dist_ledger.Mismatch on a ledger from a different census. *)
