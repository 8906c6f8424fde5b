(** Deciders for the [n]-discerning and [n]-recording conditions.

    For a finite deterministic type both conditions are decidable by
    exhaustive search over certificates (initial value, team partition,
    per-process operations) and replay of the at-most-once schedules
    [S(P)].  The searches below exploit two symmetries:

    - team labels can be swapped, so process 0 is fixed on team [T_0];
    - processes on the same team are interchangeable, so operation
      assignments are enumerated sorted within each team ([~naive:true]
      disables this, for the E9 ablation).

    Any certificate returned validates under the independent
    {!Certificate.check_discerning} / {!Certificate.check_recording}
    replays. *)

type condition = Kernel.condition = Discerning | Recording
(** Defined in {!Kernel} (the compiled decision kernel) and re-exported
    here; use either name. *)

val search :
  ?naive:bool ->
  ?scheds:Sched.proc list list ->
  ?obs:Obs.t ->
  ?mode:Kernel.mode ->
  condition ->
  Objtype.t ->
  n:int ->
  Certificate.t option
(** The least certificate (in enumeration order) witnessing the condition
    for [n] processes, or [None] if the type does not satisfy it.
    Requires [n >= 2].

    [mode] selects the implementation (default [Kernel.Trie], the
    compiled kernel; see {!Kernel.mode}) — both modes return bit-identical
    results, pinned by the differential test suite.  [~naive:true]
    implies the reference path (the unpruned space exists only there).
    [?scheds] supplies a precomputed [Sched.at_most_once ~nprocs:n] (it
    must be exactly that set) and only affects the reference path; the
    kernel shares compiled tries per [n] internally.  [?obs] feeds the
    kernel counters [decide.trie_nodes] / [decide.kernel_evals] /
    [decide.partitions_pruned]. *)

val is_discerning : Objtype.t -> n:int -> bool
val is_recording : Objtype.t -> n:int -> bool
(** Each compiles a kernel per call.  Against a caller-owned, long-lived
    kernel and scratch (the census's per-[n] slots, the synthesizer's
    stepped fitness levels) decide with {!Kernel.exists} instead. *)

val certificates :
  ?naive:bool ->
  ?scheds:Sched.proc list list ->
  condition ->
  Objtype.t ->
  n:int ->
  Certificate.t Seq.t
(** All witnessing certificates, lazily. *)

val candidates :
  ?naive:bool ->
  Objtype.t ->
  n:int ->
  (Objtype.value * bool array * Objtype.op array) Seq.t
(** The candidate certificates [(u, team, ops)] that {!search} enumerates,
    in search order — the raw material for the engine's deterministic
    chunked fan-out (a parallel search that returns the least witnessing
    index returns exactly {!search}'s certificate).  Each yielded [ops]
    array is fresh; [team] arrays are shared between candidates of the same
    partition and must not be mutated. *)

val check :
  condition ->
  Objtype.t ->
  Sched.proc list list ->
  u:Objtype.value ->
  team:bool array ->
  ops:Objtype.op array ->
  bool
(** Replay the given at-most-once schedules against one candidate and test
    the condition — the per-candidate kernel of {!search}, exposed so
    parallel workers can share one schedule enumeration. *)

val count_candidates : ?naive:bool -> Objtype.t -> n:int -> int
(** Number of candidate certificates the search would enumerate (for the
    E9 scaling experiment).  Computed in closed form
    ({!Kernel.count} / {!Kernel.count_naive}), not by enumeration;
    pinned against a {!candidates} fold for small types in the tests. *)

val search_partitioned :
  ?clean:bool ->
  ?mode:Kernel.mode ->
  condition ->
  Objtype.t ->
  team:bool array ->
  Certificate.t option
(** Like {!search}, but with the team partition fixed to [team] (searching
    only over initial values and operation assignments).  With
    [clean:true] (default [false]) only certificates satisfying
    {!Certificate.is_clean} are returned — the variant needed by the
    tournament construction in [Rcn_protocols]. *)
