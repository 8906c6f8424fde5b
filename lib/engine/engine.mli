(** The parallel decision engine: the deciders of [Rcn_hierarchy] fanned
    out over a {!Pool} of domains, with a shared transition-closure cache,
    producing the same unified {!Analysis} records — bit for bit — as the
    sequential entry points.

    Determinism is by construction, not by luck:

    - {!search} runs one fan-out over a candidate rank space — the
      compiled kernel's dense ranks, or under [Kernel.Reference] the
      materialized [Decide.candidates] array (the sequential enumeration
      order) — and the domains race to *lower* a shared minimal
      witnessing rank, pruning ranges past the current minimum.  Every
      rank below the final minimum has been checked and refuted, so the
      returned certificate is exactly the sequential first witness.  At
      one job without a supervisor the whole space is one chunk.
    - {!census} decides each maximal run of undecided ranks of a pool
      chunk into its own small histogram and adds it to the total
      through [Dist_ledger.absorb], as the distributed coordinator
      does.  The runs are disjoint and a histogram sum does not depend
      on its order, so the histogram is identical at every job count.
    - {!synth_portfolio} runs independently-seeded climbs and returns the
      first success in seed order; later seeds are only skipped once an
      earlier one has succeeded.

    The parity test suite pins all three against their sequential
    counterparts at jobs 1, 2 and 4.

    {2 The configuration record}

    Every entry point takes an [Api.Config.t] — the one serializable
    record that replaced the [?jobs ?deadline ?kernel ?retries ?chaos_*
    ?heartbeat] optional-argument sprawl.  The engine reads three fields:

    - [cap]: how far the level scans go;
    - [kernel]: which decider implementation fans out;
    - [deadline]: a wall-clock budget in {e relative} seconds.  Each
      entry point resolves it against [Obs.Clock] exactly once, on
      entry ({!analyze_all} once for the whole batch), into the absolute
      monotonic deadline the sweeps poll.  An expired deadline makes the
      search degrade, never lie: scans report the levels they actually
      established with [Analysis.At_least] status, a census reports
      exactly which tables it decided, and the synthesis portfolio stops
      launching climbs.  Deadline-cut runs are the one place results may
      depend on timing — a certificate found under a deadline is always
      genuine, but *which* partial result is returned depends on how far
      the sweep got.  Runs without a deadline are bit-identical to the
      sequential deciders, as before.

    The config's supervision fields ([retries]/[heartbeat]/[chaos_*])
    are {e not} read here: a [Supervise.t] is runtime state, so callers
    build it with [Api.Config.supervisor] and pass it as [?supervisor].
    Supervised, a chunk of the fan-out that raises is retried under the
    supervisor's backoff policy instead of aborting the whole sweep, and
    a chunk that keeps failing is quarantined: recorded in the
    supervisor's ledger and skipped.  A sweep with quarantined holes
    degrades exactly like a deadline expiry — the search reports
    [Expired], scans fall back to honest [Analysis.At_least] floors, a
    census leaves the affected tables undecided — and is never published
    to the cache.  A witness found by a supervised sweep is always
    genuine.  When the supervisor carries a {!Supervise.Watchdog}, the
    engine also reacts to stalls: a sweep whose workers stop
    heartbeating past the watchdog interval is cancelled cooperatively
    and retried with a halved chunk size (up to two watchdogged retries;
    the final round runs unwatchdogged so a merely-slow workload still
    completes).  Supervised runs with a transient-failure schedule that
    eventually succeeds everywhere are bit-identical to unsupervised
    ones (pinned at jobs 1/2/4).

    Likewise [config.jobs] is not read here — the pool argument {e is}
    the resolved parallelism; map the config field through
    {!resolve_jobs} when building the pool.

    {2 Observability}

    Every entry point also accepts [?obs:Obs.t].  With it, the engine
    emits spans ([engine.analyze], [engine.level], [engine.census],
    [engine.synth]) to the context's trace sink and feeds its metrics
    registry: [engine.candidates] (candidates checked),
    [engine.cache.*] (see {!Cache.stats}), [census.tables],
    [census.checkpoint_flushes], [census.resume_skips], [synth.climbs]
    and [synth.successes].  Without it, the uninstrumented fast paths are
    unchanged. *)

val default_jobs : unit -> int
(** The [RCN_JOBS] environment variable when set (a positive integer),
    otherwise the host's recommended domain count, capped at 8.  The CLI
    maps [--jobs 0] here.
    @raise Invalid_argument when [RCN_JOBS] is set but unusable. *)

val resolve_jobs : int -> int
(** [Api.Config.jobs] to a pool size: [0] means {!default_jobs}.
    @raise Invalid_argument on a negative count. *)

(** A memo shared across decider queries: at-most-once schedule sets
    [S(P)] keyed by process count — the expensive closure every replay
    walks — and search outcomes keyed by (type specification, condition,
    [n]).  Safe to share across the pool's domains (entries are immutable
    once published; the table is mutex-protected).  Deadline-expired
    sweeps are never published: the cache only ever holds completed
    outcomes. *)
module Cache : sig
  type t

  type stats = {
    sched_hits : int;  (** schedule sets served from the memo *)
    sched_misses : int;  (** schedule sets computed *)
    probes : int;  (** outcome lookups issued *)
    hits : int;
        (** probes answered from the memo, including late hits — sweeps
            whose result another worker published first *)
    misses : int;
        (** outcomes computed and published; equals the number of
            distinct keys decided, at any job count *)
    expired : int;  (** probes whose sweep the deadline cut short *)
  }
  (** Once no search is in flight, [hits + misses + expired = probes] —
      every probe is accounted to exactly one bucket (pinned by a
      concurrent test). *)

  val create : ?obs:Obs.t -> unit -> t
  (** With [obs], the cache's counters live in that context's registry
      under [engine.cache.*], so they appear in the CLI [--stats]
      export; otherwise a private registry backs {!stats}. *)

  val scheds : t -> n:int -> Sched.proc list list
  (** [Sched.at_most_once ~nprocs:n], computed once per [n]. *)

  val stats : t -> stats
end

type search_outcome =
  | Found of Certificate.t  (** a genuine witness (even under a deadline) *)
  | Refuted  (** the whole candidate space was checked; no witness *)
  | Expired  (** the deadline cut the sweep short; nothing is known *)

val search_within :
  ?cache:Cache.t ->
  ?obs:Obs.t ->
  ?supervisor:Supervise.t ->
  config:Api.Config.t ->
  Pool.t ->
  Decide.condition ->
  Objtype.t ->
  n:int ->
  search_outcome
(** Deadline-aware witness search.  Without [config.deadline] this is
    exactly {!search} (and never returns [Expired]); with one, every
    domain polls the clock per candidate and the sweep returns [Expired]
    as soon as it fires without having found a witness.  With
    [supervisor], failing chunks are retried and eventually quarantined;
    a no-witness sweep with quarantine holes also returns [Expired] (the
    unchecked ranges mean "no witness" cannot honestly be claimed).

    [config.kernel] selects the decider implementation (see
    {!Kernel.mode}).  [Trie] fans the compiled kernel's dense rank space
    out over the pool — no candidate materialization — and
    return bit-identical certificates to the reference at any job count
    (pinned by parity tests at jobs 1/2/4). *)

val search :
  ?cache:Cache.t ->
  ?obs:Obs.t ->
  config:Api.Config.t ->
  Pool.t ->
  Decide.condition ->
  Objtype.t ->
  n:int ->
  Certificate.t option
(** Exactly [Decide.search condition t ~n] — the least witnessing
    certificate in enumeration order, or [None] — computed across the
    pool's domains, with schedules (and, when [cache] is given, whole
    outcomes) served from the cache.  Reads only [config.kernel]:
    deadlines and supervision cannot apply to an entry point whose
    result promises completeness. *)

val analyze :
  ?cache:Cache.t ->
  ?obs:Obs.t ->
  ?supervisor:Supervise.t ->
  config:Api.Config.t ->
  Pool.t ->
  Objtype.t ->
  Analysis.t
(** [Numbers.analyze ~cap:config.cap t], parallelized within each
    decider query.  Equal (under [Analysis.equal]) to the sequential
    result, with the same certificates; [Analysis.elapsed] is measured
    on [Obs.Clock].  With a deadline (or quarantined chunks under a
    [supervisor]), both level scans degrade to honest [At_least] lower
    bounds: the highest level each fully established, never a fabricated
    [Exact]; with an already-expired deadline that is level 1, the
    unconditional floor. *)

val analyze_all :
  ?cache:Cache.t ->
  ?obs:Obs.t ->
  ?supervisor:Supervise.t ->
  config:Api.Config.t ->
  Pool.t ->
  Objtype.t list ->
  Analysis.t list
(** {!analyze} over a batch (e.g. the gallery), sharing one cache so
    repeated types and schedule sets are computed once.  The deadline is
    resolved once for the whole batch; a mid-batch expiry yields quick
    [At_least] records for the remaining types rather than abandoning
    them. *)

type chain
(** A census chain: a run of tables one domain decides in order, each
    per-[n] kernel carried from table to table by {!Kernel.step}. *)

val census_chain : unit -> chain
(** A new chain, distinct from every other. *)

val census_levels :
  ?obs:Obs.t -> ?chain:chain -> Cache.t -> kernel:Kernel.mode -> cap:int -> Objtype.t -> int * int
(** One census table's truncated [(discerning, recording)] levels — the
    sweep {!census} runs per table, exposed so a distributed-census
    worker process ([lib/dist]) decides its leased rank range exactly
    like the in-process sweep decides a chunk.  [Trie] decides on the
    calling domain's reused kernels (one per process count, brought to
    [ty] at most once per table, the first time a rung needs it, and
    shared by both conditions) as one ladder:
    discerning for [n = 2, 3, ...], each rung [n >= 3] through
    [Kernel.exists ~below] the [n - 1] kernel, then recording only up to
    the discerning level [d] (recording implies discerning), on the same
    scratches.  A kernel that already decided a table of [chain] on this
    domain is {!Kernel.step}ped to [ty], keeping the evaluations the
    table delta spares; otherwise (and always without [chain]) it is
    {!Kernel.retarget}ed, as a fresh compile.  So the counts a chain
    adds depend only on its tables, in order: {!census} starts a chain
    at the first rank of each pool chunk (fixed 32-rank ranges at every
    job count), and [Dist_worker] one per batch.
    [Reference] replays [cache]'s shared schedule sets and
    decides every rung of both conditions unpruned, so it stays an
    independent check of the ladder.  Both give [Census.levels]'
    verdicts.  The kernels are per domain,
    not per thread: two systhreads of one domain must not run it at the
    same time (pool workers run one chunk at a time, and [rcn serve]
    runs every engine request on its one scheduler thread).
    Deliberately uncached per type: census tables are pairwise
    distinct, so an outcome memo would only grow. *)

type census_ranks = {
  ranks : int;  (** ranks the sweep runs over: tables, sample draws or classes *)
  sym_classes : int option;
      (** under [sym], the class count the ledger header pins *)
  genome : int -> Synth.genome;  (** the table a rank decides *)
  weight : lo:int -> hi:int -> int;
      (** tables ranks [\[lo, hi)] account for: the width, or the orbit
          sizes' sum under [sym] ([Dist_ledger.replay_done]'s weight) *)
}

val census_ranks :
  ?obs:Obs.t -> ?sample:int * int -> sym:bool -> Synth.space -> census_ranks
(** The rank space {!census}, the distributed coordinator and its
    workers all shard and weigh.  Three cases:
    - exhaustive (the default): rank [i] is table [Census.genome_of_index
      space i], weight 1;
    - [sample:(count, seed)]: [count] ranks of weight 1, the successive
      [Synth.random_genome] draws of [Random.State.make [| seed; count |]]
      (stored flat, one digit per cell, so the space need not fit an
      [int]); [sym] is ignored and no classes are built;
    - [sym]: one rank per isomorphism class ([Sym.classes],
      deterministic), weighted by its orbit size; with [obs], counts
      [sym.classes], [sym.orbit_max] and [sym.canon_ns]. *)

val warm_census : ?obs:Obs.t -> Cache.t -> kernel:Kernel.mode -> cap:int -> unit
(** Build what {!census_levels} reads (schedule sets or compiled tries)
    on the calling domain, before any fan-out. *)

type census_run = {
  entries : Census.entry list;  (** histogram over the *decided* tables *)
  total : int;  (** tables in the space *)
  completed : int;  (** tables decided, including resumed ones *)
  resumed : int;  (** tables loaded from the checkpoint file *)
  complete : bool;  (** [completed = total] *)
  storage_error : string option;
      (** the checkpoint ledger's sticky append failure, if any: decided
          tables past the failure were never made durable, so callers
          must report the run degraded (like a quarantined chunk) even
          when [complete] *)
}

val census :
  ?cache:Cache.t ->
  ?obs:Obs.t ->
  ?supervisor:Supervise.t ->
  ?sample:int * int ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?durable:bool ->
  ?injector:Fsio.Injector.t ->
  config:Api.Config.t ->
  Pool.t ->
  Synth.space ->
  census_run
(** [Census.exhaustive ~cap:config.cap space] with the {!census_ranks}
    partitioned across the domains and [S(P)] shared through the cache;
    when [complete], the histogram is identical to the sequential census
    at any job count.  [sample:(count, seed)] sweeps the sampled rank
    space instead — [count] seeded random tables, decided with the same
    jobs, deadline and supervision, [sym] ignored — and combines with
    none of [checkpoint], [resume] or [durable] ([Invalid_argument]).
    [total] is the rank space's weight sum: the space size, or [count].

    [checkpoint] names a {!Dist_ledger} file, the format the
    distributed coordinator writes: a header pinning space, cap and size
    (a stale file from another census is rejected with
    [Dist_ledger.Mismatch]), then one [Done] record per maximal run of ranks
    a pool chunk decided, appended as the run is merged ([kill -9]-safe).
    Every census starts from [Dist_ledger.replay_done] of the file's
    records — of none without [resume] or [checkpoint] — and merges each
    decided run through [Dist_ledger.absorb], so no rank is counted or
    recorded twice, even across a supervisor retry.  [resume] (with
    [checkpoint]) thus recomputes only the gaps, for the identical
    histogram; [rcn census --workers N --ledger F --resume]
    finishes such a file too, and vice versa.  An older format (a v2
    checkpoint) fails the ledger magic and is dropped like a torn tail.
    [durable] (default [false]) [fsync]s every append, extending crash
    safety from process death to machine death.  [config.deadline]
    stops the sweep cooperatively; the returned record says exactly how
    far it got.  [supervisor] heals failing chunks as in
    {!search_within}; tables in a quarantined chunk stay undecided, so
    [complete] is honestly [false].

    Checkpoint I/O goes through {!Fsio} ([injector] routes it through a
    fault plan).  Opening an unusable or corrupt file raises
    [Fsio.Io_error] / [Fsio.Corrupt]; an append that fails later does
    {e not} abort the sweep: the ledger goes sticky-degraded, the census
    finishes in memory, and [storage_error] reports the failure so
    callers degrade the run to honest At_least/PARTIAL exactly like a
    quarantined chunk. *)

val synth_portfolio :
  ?seed:int ->
  ?max_iterations:int ->
  ?restart_every:int ->
  ?obs:Obs.t ->
  ?supervisor:Supervise.t ->
  config:Api.Config.t ->
  portfolio:int ->
  Pool.t ->
  target:int ->
  Synth.space ->
  Synth.witness option
(** Run [portfolio] hill climbs, seeded [seed, seed + 1, ...], across the
    pool, returning the witness of the lowest-seeded successful climb
    (the same one a sequential first-success scan over the seeds would
    return).  [portfolio = 1] is exactly [Synth.search ?seed].  An
    expired [config.deadline] skips climbs that have not started (whole
    climbs are the cancellation granularity), so [None] may then mean
    "ran out of time" rather than "search space exhausted".  Reads
    [deadline] and [incremental] from the config (the latter selects
    [Synth.search]'s warm-start vs from-scratch mode — same results
    either way); the climb parameters stay keywords because they are
    synthesis-specific, not engine-wide.  [obs] additionally feeds each
    climb's [synth.evals] / [synth.sym_skips] and the kernel's decide.* and
    step-memo counters. *)
