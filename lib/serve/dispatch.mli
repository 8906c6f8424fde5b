(** The one request handler: every query — CLI subcommand or daemon
    frame — is an [Api.Request.t] dispatched here, so the two paths
    cannot drift in semantics, supervision, store behavior or exit
    codes.

    The split between {!fast_path} and {!run} is the daemon's threading
    model: {!run} drives the domain {!Pool}, which is owned by a single
    scheduler thread, while {!fast_path} touches only the store and the
    metrics registry and is safe from any connection thread — so pings,
    metrics scrapes and store hits are answered inline without queueing
    behind a census. *)

type env = {
  obs : Obs.t;
  cache : Engine.Cache.t;  (** shared across requests, like the store *)
  pool : Pool.t;
  store : Store.t option;
  supervision_obs : Obs.t option;
      (** registry for supervisor ledger counters: the CLI passes its
          own [obs] (one request owns the process and its stats export);
          the daemon passes [None] so each request gets a private ledger
          — see [Api.Config.supervisor] *)
  command : string;  (** the [command] field of the metrics reply *)
}

val env :
  ?store:Store.t ->
  ?supervision_obs:Obs.t ->
  obs:Obs.t ->
  command:string ->
  Pool.t ->
  env

val fast_path :
  obs:Obs.t -> ?store:Store.t -> command:string -> Api.Request.t -> Api.Response.t option
(** Answer without the pool, from any thread: [Ping], [Metrics], and any
    memoized query whose digest is already in the store, replayed from
    the stored canonical bytes — an [Analyze] ([from_store = true]), a
    [Census] without checkpoint/resume/durable, or a [Synth]; both of
    the latter only when the config carries no deadline (a deadline-cut
    result is timing-dependent, so such queries bypass the store
    entirely).  [None] means the request needs {!run}. *)

val guard : (unit -> Api.Response.t) -> Api.Response.t
(** Run a request body, answering its exceptions as error responses
    instead of raising: a ledger from another census
    ([Dist_ledger.Mismatch]) is [err_invalid], a failed durable store or
    progress file ([Fsio.Io_error] / [Fsio.Corrupt]) [err_storage], and
    anything else [err_internal].  {!run} and the CLI's distributed
    census share it, so both report a mismatch alike. *)

val run : env -> Api.Request.t -> Api.Response.t
(** Execute on the engine.  Must be called from the thread that owns
    [env.pool].  Validates the config ({!Api.Config.validate} — failures
    become [err_invalid] responses, engine exceptions [err_internal]
    ones, never a raise), builds the per-request supervisor, runs the
    query, and publishes the canonical result bytes of pristine outcomes
    to the store: an analyze / a complete census / a synth (witness or
    honest exhaustion), each only when run with no deadline and no
    quarantined chunks, censuses additionally only without
    checkpoint/resume ([Api.census_digest] / [Api.synth_digest] are the
    keys).  A warm repeat of a memoized census or synth query replays
    the stored bytes, so its body is byte-identical to the cold run's. *)

val handle : env -> Api.Request.t -> Api.Response.t
(** {!fast_path}, falling back to {!run} — the whole CLI code path. *)
