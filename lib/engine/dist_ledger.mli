(** The crash-safe progress log of a census — the one durable format
    for both the distributed coordinator ([rcn census --workers N
    --ledger F]) and the in-process engine ([rcn census --checkpoint
    F]), so either can resume a file the other wrote.

    An append-only log in the shared [Fsio.Record] discipline
    ([rcndist2 <kind> <len> <crc32hex>\n<payload>\n]); recovery scans
    from the top and truncates a torn tail, so a [kill -9] mid-append
    costs at most the record being written — while a structurally
    complete record that fails its CRC (or decodes to garbage) is
    {e corruption} and raises [Fsio.Corrupt] with the offset, never a
    silent truncation of acknowledged data.  The
    first record is always a {!Header} pinning space, cap and table
    count, so a stale ledger from a different census is rejected rather
    than merged.

    Only {!record.Done} records carry results, and only {!replay_done}
    decides which of them to trust; everything else ({!record.Grant},
    {!record.Expire}, {!record.Steal}, {!record.Death},
    {!record.Quarantine}) is an audit trail of the distributed failure
    model — what was leased, what expired, what was stolen, who died —
    that resume deliberately ignores: a recovering census trusts only
    completed ranges and recomputes everything else, including
    previously quarantined ranges (a fresh incarnation gets a fresh
    retry budget).  The in-process engine writes only the header and
    [Done] records. *)

type record =
  | Header of string  (** the exact {!header} line of this census *)
  | Grant of { lease : int; lo : int; hi : int; worker : int }
  | Done of { lo : int; hi : int; entries : (int * int * int) list }
      (** histogram of the decided ranks [\[lo, hi)]: (discerning,
          recording, count) triples summing to the tables the range
          accounts for ([hi - lo], or its orbit sizes under symmetry
          reduction) *)
  | Expire of { lease : int; lo : int; hi : int; worker : int }
      (** the lease was revoked — missed heartbeats or worker death *)
  | Steal of { lease : int; victim : int; at : int; hi : int }
      (** [\[steal point, hi)] of the lease was re-queued; the victim
          was truncated at the steal point *)
  | Death of { worker : int; pid : int }
  | Quarantine of { lo : int; hi : int; attempts : int; error : string }

val magic : string
(** ["rcndist2"] — bumped from [rcndist1] when records grew the CRC
    field; old-format records fail the magic check and are dropped
    wholesale on replay, like a torn tail.  The same holds for the
    retired v2 in-process checkpoint format (CRC'd text lines): its
    bytes are dropped and the census recomputed. *)

val header : ?sym_classes:int -> space:Synth.space -> cap:int -> total:int -> unit -> string
(** The exact header payload a ledger for this census must carry.
    [sym_classes] (a symmetry-reduced census) appends a [sym=1
    classes=N] suffix pinning the canonical-rank space, so resume never
    reinterprets class ranks as table indices or vice versa; without it
    the v1 bytes are unchanged. *)

exception Mismatch of string
(** The file is a ledger of a different census (its header is not the
    [expected] one), or is nonempty without a leading header: resuming
    it is the caller's mistake, not an I/O fault. *)

val encode : record -> string
(** The exact bytes {!append} writes — exposed so tests can compute
    record boundaries for truncate-at-every-offset pins. *)

val load : string -> expected:string -> record list * int
(** All complete records in file order, plus the torn tail byte count.
    A missing file is [([], 0)]; the replayable prefix ends at the first
    record that is cut short at end of file.
    @raise Fsio.Corrupt on a complete record failing CRC or decode.
    @raise Mismatch when the ledger's header differs from [expected]
    (or the file is nonempty without a leading header). *)

type t

val open_ledger :
  ?obs:Obs.t ->
  ?fsync:bool ->
  ?injector:Fsio.Injector.t ->
  expected:string ->
  resume:bool ->
  string ->
  t * record list
(** Open (creating if missing) the ledger for appending, returning the
    replayed records.  With [resume = false] the file is truncated and
    started fresh; with [resume = true] the complete records are
    replayed and a torn tail is truncated in place, exactly like
    [Store.open_store].  Either way the file ends up starting with the
    [expected] header (appended when absent).  [fsync] (default [true]
    — the ledger is the only thing that survives a coordinator kill)
    makes every {!append} fsync.  [injector] routes every I/O operation
    through a seeded fault plan (the [rcn crashtest] harness).  With
    [obs], counts [dist.ledger_loaded] (records replayed),
    [dist.ledger_torn_bytes], [dist.ledger_degraded] (flipped on the
    first failed append) and [dist.ledger_dropped] (appends dropped
    while degraded).
    @raise Fsio.Corrupt on mid-log corruption.
    @raise Mismatch on a header mismatch. *)

val append : t -> record -> unit
(** Append one record, flushed (and fsync'd when enabled) before
    returning.  An append that fails flips the ledger to a sticky
    {e degraded} mode instead of raising: the failed and all later
    records are dropped (counted), and {!degraded} reports the reason —
    the coordinator finishes the census and reports it PARTIAL, the
    same honesty discipline as a quarantined range. *)

val degraded : t -> string option
(** The sticky append-failure reason, if the ledger is degraded. *)

val close : t -> unit

val absorb :
  covered:Bytes.t ->
  hist:(int * int, int) Hashtbl.t ->
  weight:(lo:int -> hi:int -> int) ->
  lo:int ->
  hi:int ->
  (int * int * int) list ->
  bool
(** The trust predicate for one [Done] range, shared by {!replay_done},
    the live coordinator and [Engine.census]: [true] iff [\[lo, hi)]
    lies in range, overlaps no rank already marked in [covered], and its
    counts sum to [weight ~lo ~hi] — in which case the ranks are marked
    ['\001'] and the counts added to [hist]. *)

val replay_done :
  total:int ->
  weight:(lo:int -> hi:int -> int) ->
  record list ->
  Bytes.t * (int * int, int) Hashtbl.t * int * int
(** The paranoid resume fold: [(covered, histogram, covered_weight,
    deaths)] over ranks [\[0, total)].  Each {!record.Done} in file order
    goes through {!absorb} (so of two overlapping records the first
    wins); [weight ~lo ~hi] is the tables a range accounts for — its
    width normally, its orbit-size sum under symmetry reduction.  Other
    records are ignored, except that {!record.Death}s are counted. *)

val gaps_of : Bytes.t -> int -> (int * int) list
(** The uncovered [(lo, hi)] ranges of a {!replay_done} bitmap, sorted. *)

type plan = {
  plan_total : int;
  plan_covered : int;  (** ranks proven decided by disjoint Done records *)
  plan_entries : Census.entry list;
  plan_gaps : (int * int) list;  (** uncovered [(lo, hi)] ranges, sorted *)
  plan_deaths : int;  (** Death records in the ledger *)
}

val plan_of_ledger : expected:string -> total:int -> string -> plan
(** What a recovering census would trust from the ledger at [path]: the
    {!replay_done} fold of its records (unit weights).  Pure read — the
    file is not modified.  The truncate-at-every-offset recovery tests
    and the soaks' final audits are built on this.
    @raise Fsio.Corrupt on mid-log corruption.
    @raise Mismatch on a ledger from a different census. *)
