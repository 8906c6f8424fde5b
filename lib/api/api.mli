(** The unified, serializable Request/Response API of the toolkit.

    One {!Config.t} record replaces the optional-argument sprawl
    ([?jobs ?deadline ?kernel ?retries ?chaos_* ?heartbeat]) that used to
    be threaded through [Engine.analyze]/[census]/[synth_portfolio]; a
    {!Request.t} packages a query (analyze / census / synth / metrics /
    ping) together with its config; a {!Response.t} packages the result,
    the per-request supervision ledger, and the exit-code semantics.  The
    CLI subcommands and the [rcn serve] daemon speak exactly these values
    — a query behaves identically whether it runs in-process or over a
    socket, including its exit code.

    Every type here has a {e canonical} JSON codec on {!Wire}: encoding
    is a pure function of the value (pinned field order, no whitespace,
    bit-exact floats), and [of_* (to_* x)] is the identity.  That
    canonicality is load-bearing: the serve daemon's content-addressed
    store keeps encoded [Analysis.t] bytes, and a store hit must replay
    a byte-identical result.

    Runtime-only values (an [Obs.t] context, a domain pool, an engine
    cache, a prebuilt supervisor) are deliberately {e not} in the config:
    they cannot cross a socket.  They remain ordinary arguments of the
    engine entry points. *)

module Config : sig
  type t = {
    jobs : int;
        (** worker domains; [0] means automatic ([RCN_JOBS] / the host).
            A daemon serves every request from its own pool and ignores
            this field. *)
    cap : int;  (** scan levels up to [cap] (>= 2) *)
    deadline : float option;
        (** wall-clock budget in {e relative} seconds (a wire value has
            no clock origin); each engine entry point resolves it to an
            absolute monotonic deadline once, on entry.  Nonpositive
            means already expired. *)
    kernel : Kernel.mode;
    retries : int option;  (** attempts per chunk before quarantine *)
    heartbeat : float option;  (** watchdog stall interval, seconds *)
    chaos_rate : float option;  (** injected failure probability *)
    chaos_seed : int;
    chaos_attempts : int;
    sym : bool;
        (** symmetry reduction: decide one canonical representative per
            isomorphism class and weight it by its orbit size.  Absent
            on the wire means [false], so v1 configs still decode. *)
    incremental : bool;
        (** warm-start synthesis: hold one kernel + scratch per fitness
            level across the whole climb and [Kernel.step] each level to
            a candidate's table instead of recompiling per candidate.  The
            fitness trajectory and result are bit-identical either way
            (enforced by bench e22), so this is a pure performance
            switch — [false] is the ablation baseline.  Absent on the
            wire means [true]: configs encoded before the flag existed
            decode to today's standard path. *)
  }

  val default : t
  (** jobs 1, cap 5, no deadline, [Kernel.Trie], no supervision. *)

  val v :
    ?jobs:int ->
    ?cap:int ->
    ?deadline:float ->
    ?kernel:Kernel.mode ->
    ?retries:int ->
    ?heartbeat:float ->
    ?chaos_rate:float ->
    ?chaos_seed:int ->
    ?chaos_attempts:int ->
    ?sym:bool ->
    ?incremental:bool ->
    unit ->
    t
  (** {!default} with fields overridden — the one place optional
      arguments survive, so call sites read like the old signatures. *)

  val validate : t -> (unit, string) result
  (** Range checks a decoded wire config before it reaches the engine:
      [jobs >= 0], [cap >= 2], positive heartbeat, chaos rate in
      [\[0, 1\]], [retries >= 1], [chaos_attempts >= 1]. *)

  val wants_supervision : t -> bool
  (** Any of [retries]/[heartbeat]/[chaos_rate] present. *)

  val supervisor : t -> obs:Obs.t option -> jobs:int -> Supervise.t option
  (** The self-healing layer this config asks for, or [None] when
      {!wants_supervision} is [false].  [jobs] is the resolved pool size
      (the watchdog tracks that many workers).  With [obs = Some _] the
      supervisor's ledger counters land in that registry (the CLI path,
      where one request owns the stats export); [None] gives the
      supervisor a private registry, which is what the daemon wants —
      per-request ledgers that other requests cannot inflate.
      @raise Invalid_argument on out-of-range supervision fields (call
      {!validate} first on untrusted input). *)

  val to_json : t -> Wire.t
  val of_json : Wire.t -> (t, string) result
end

(** {2 Queries} *)

module Request : sig
  type t =
    | Analyze of { spec : string; config : Config.t }
        (** [spec] is a full [Objtype.to_spec_string] serialization —
            self-contained on the wire; the CLI resolves gallery names
            before building the request *)
    | Census of {
        space : Synth.space;
        sample : int option;  (** sample N random tables instead of exhausting *)
        seed : int;  (** sampling seed *)
        checkpoint : string option;
        resume : bool;
        durable : bool;
        config : Config.t;
      }
    | Synth of {
        space : Synth.space;
        target : int;
        seed : int;
        iterations : int;
        restart_every : int option;
        portfolio : int;
        config : Config.t;
      }
    | Metrics  (** the server's [--stats json] block, as a reply *)
    | Ping

  val config : t -> Config.t option

  val max_census_tables : int
  (** The most tables an exhaustive census without symmetry reduction
      may have, and the largest [sample]: [2^24 = 16,777,216], the size
      of the [{4,2,2}] space.  [Engine.census] and the distributed
      coordinator each keep a one-byte coverage bitmap a rank, allocated
      before the first table is decided, and a sample also keeps its
      drawn digits (one [int] a cell), so the next sizes up — [{4,3,2}]
      has [68,719,476,736] tables — are refused up front and pointed at
      [--sample]. *)

  val max_sym_census_tables : int
  (** The most tables an exhaustive census under [--sym on] may have:
      [2^34 = 17,179,869,184].  There the coverage bitmap and the class
      arrays are per isomorphism class, and what scales with the table
      count is [Sym.classes]' sweep mark, one bit per (response pattern,
      value column) pair and so at most one a table (2 GiB at the bound):
      [{5,2,2}] ([10^10] tables, a 625 MB mark) is accepted and
      [{4,3,2}] is not. *)

  val validate : t -> (unit, string) result
  (** Everything a decoded request must satisfy before it reaches the
      engine: {!Config.validate} on its config, and for census and synth
      requests a well-formed space — every dimension at least 2
      ([Synth.check_space]), a [sample] in [0 .. max_census_tables], and
      for an exhaustive census a table count ([Census.space_size]) of at
      most {!max_census_tables}, or {!max_sym_census_tables} under
      [sym] (one that overflows an [int] is over both).  A census's
      checkpoint flags must mean something: [resume] and [durable] need
      a [checkpoint], and none of the three combines with [sample]
      (checkpoints are exhaustive-only).  The error names the failed
      check. *)

  val to_json : t -> Wire.t
  val of_json : Wire.t -> (t, string) result

  val to_string : t -> string
  (** Canonical single-line JSON, e.g.
      [{"rcn_request":1,"kind":"ping"}]. *)

  val of_string : string -> (t, string) result
end

(** {2 Distributed-census worker protocol}

    The wire messages [lib/dist] exchanges between a census coordinator
    and its worker processes, over a socketpair carrying [Serve.Frame]
    length-prefixed frames.  The protocol is strictly half-duplex from
    the worker's side: the worker writes one {!Worker.msg} and blocks
    until it reads exactly one {!Worker.reply}, so neither side ever has
    to disambiguate pipelined frames, and a worker whose coordinator
    dies sees [EOF]/[EPIPE] at its next exchange and exits.

    Like every codec here, encodings are canonical: pinned field order,
    no whitespace, [of_* (to_* x) = Ok x]. *)

module Worker : sig
  type msg =
    | Hello of { pid : int }  (** the worker's first frame after spawn *)
    | Progress of { lease : int; at : int }
        (** heartbeat: every rank of the lease below [at] is decided;
            renews the lease and gives the coordinator a steal point *)
    | Result of { lease : int; lo : int; hi : int; entries : Census.entry list }
        (** the lease's histogram over exactly [\[lo, hi)] — [hi]
            reflects any {!reply.Truncate} the worker obeyed *)

  type reply =
    | Assign of { lease : int; lo : int; hi : int; budget : float option }
        (** decide ranks [\[lo, hi)] under the given lease id.
            [budget] is the wall-clock seconds remaining in the whole
            census at grant time, resolved once by the coordinator —
            never by the worker, whose (re)spawn time must not restart
            the user's deadline.  Encoded only when present, so
            budget-free assignments keep their pinned v1 bytes. *)
    | Continue  (** heartbeat acknowledged; keep going *)
    | Truncate of { hi : int }
        (** work stealing: stop at [hi] (never below the reported [at]);
            the tail of the range has been re-leased elsewhere *)
    | Shutdown  (** no work left; exit 0 *)

  val msg_to_json : msg -> Wire.t
  val msg_of_json : Wire.t -> (msg, string) result
  val msg_to_string : msg -> string
  val msg_of_string : string -> (msg, string) result
  val reply_to_json : reply -> Wire.t
  val reply_of_json : Wire.t -> (reply, string) result
  val reply_to_string : reply -> string
  val reply_of_string : string -> (reply, string) result
end

(** {2 Results} *)

module Response : sig
  type census_summary = {
    entries : Census.entry list;
    total : int;
    completed : int;
    resumed : int;
    complete : bool;
  }

  type body =
    | Analysis of { analysis : Analysis.t; from_store : bool }
    | Census of census_summary
    | Synth of { witness : Synth.witness option }
    | Metrics of Wire.t  (** the embedded [rcn_stats] object *)
    | Pong
    | Error of { code : int; message : string }

  type t = {
    body : body;
    retries : int;  (** chunk retries healed while serving this request *)
    watchdog_trips : int;
    quarantined : Supervise.quarantine list;
        (** this request's quarantine ledger — what degraded, and why *)
  }

  val make : ?retries:int -> ?watchdog_trips:int -> ?quarantined:Supervise.quarantine list -> body -> t

  val error : ?code:int -> string -> t
  (** An error response; [code] defaults to {!err_invalid}. *)

  val err_invalid : int
  (** [2] — malformed or out-of-range request (the CLI usage-error code). *)

  val err_internal : int
  (** [70] — the engine raised while serving the request. *)

  val err_storage : int
  (** [74] — durable storage failed or is corrupt ([EX_IOERR]): the
      store/ledger/checkpoint raised [Fsio.Io_error] or [Fsio.Corrupt].
      The daemon answers this instead of crashing; the store flips to
      read-only degraded mode and keeps serving unmemoized. *)

  val err_busy : int
  (** [75] — admission control rejected the request (queue full). *)

  val exit_code : t -> int
  (** The one exit-code policy, shared by CLI and daemon clients:
      [Error] carries its own code; a synthesis that found no witness is
      [1]; an incomplete census or any quarantined work is PARTIAL [3];
      everything else is [0]. *)

  val to_json : t -> Wire.t
  val of_json : Wire.t -> (t, string) result
  val to_string : t -> string
  val of_string : string -> (t, string) result

  val quarantine_report : t -> string
  (** The machine-readable per-request quarantine report, in the same
      [{"rcn_quarantine":1,...}] single-line-plus-newline shape as
      [Supervise.report_json] — what [--quarantine-report] writes. *)

  (** {3 Store payloads}

      The canonical bytes the serve store keeps for memoized census and
      synth queries.  [census_summary_to_json] reuses the exact field
      list of the census response envelope, so a warm store replay is
      byte-identical to the cold response. *)

  val census_summary_to_json : census_summary -> Wire.t
  val census_summary_of_json : Wire.t -> (census_summary, string) result

  val witness_opt_to_json : Synth.witness option -> Wire.t
  (** [None] (an exhausted search) encodes as [null] and is cached like
      any other outcome. *)

  val witness_opt_of_json : Wire.t -> (Synth.witness option, string) result
end

(** {2 Analysis codec and content addressing} *)

val analysis_to_json : Analysis.t -> Wire.t
(** Levels with their certificates; a certificate embeds its own type
    specification so it decodes back to a replayable [Certificate.t]. *)

val analysis_of_json : Wire.t -> (Analysis.t, string) result

val query_digest : Objtype.t -> cap:int -> string
(** The content address of an analyze query: the hex digest of the
    type's canonical specification ([Objtype.to_spec_string] — counts,
    initial value, names, transition table) together with the scan cap.
    Results are independent of [jobs]/[kernel]/deadline by the engine's
    determinism guarantees, so (type, cap) is the whole key. *)

val query_digest_canonical : Objtype.t -> cap:int -> string
(** The symmetry-aware content address ([--sym on]): keyed by the
    {e canonical form} of the transition table under the
    value/op/response permutation group ([Sym.digest]), names, labels
    and the default initial value dropped — all isomorphic queries at a
    cap share one address, and their levels are equal by orbit
    invariance.  A store hit replays the first-seen representative's
    analysis: its certificates embed that representative's own spec and
    replay-validate against it.  Version-tagged disjoint from
    {!query_digest}. *)

val census_digest : Synth.space -> cap:int -> sample:int option -> seed:int -> string
(** The content address of a census query.  [jobs], [kernel] and the
    worker count are excluded: exhaustive censuses are bit-identical
    across all of them, and a sampling census is deterministic in
    ([sample], [seed]), which are part of the key.  Checkpoint/resume
    runs are never memoized, so those fields do not appear. *)

val synth_digest :
  Synth.space ->
  target:int ->
  seed:int ->
  iterations:int ->
  restart_every:int option ->
  portfolio:int ->
  string
(** The content address of a synth query: every parameter the portfolio
    search's outcome is a deterministic function of.  [incremental] and
    [kernel] are excluded — the warm-start and from-scratch searches
    produce bit-identical results (the bench-e22 invariant).  v2: the
    reroll mutation draw and the symmetry memo changed the trajectory
    of every seed, retiring v1 records. *)

val synth_digest_canonical :
  Synth.space ->
  target:int ->
  seed:int ->
  iterations:int ->
  restart_every:int option ->
  portfolio:int ->
  string
(** The canonical synth store key ([--sym on], {!query_digest_canonical}'s
    sibling).  A synth request carries no transition table, so the orbit
    quotient is trivial; what this key collapses is spellings of the
    same run: [restart_every = None] and
    [restart_every = Some Synth.default_restart_every] execute
    identically and share a record.  Version-tagged disjoint from
    {!synth_digest}. *)
