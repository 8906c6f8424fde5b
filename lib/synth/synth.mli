(** Synthesis of gap witnesses: readable deterministic types with consensus
    number [n] and recoverable consensus number [n - 2].

    The paper's corollary to Theorem 13 shows DFFR's type [X_n] has exactly
    this gap for every [n >= 4].  The definition of [X_n] lives in DFFR
    (PODC 2022); rather than transcribing it, this module *searches* for a
    witness using the deciders as an oracle: any readable deterministic type
    whose max-discerning level is exactly [n] and max-recording level is
    exactly [n - 2] witnesses the same theorem statement (by Ruppert's
    characterization and by DFFR Theorem 8 + this paper's Theorem 13).

    The search is hill climbing with random restarts over transition tables
    of a fixed shape: [num_values] values, [num_rws] read-modify-write
    operations plus a fixed Read, [num_responses] responses for the RMW
    operations.
    Fitness rewards, in increasing weight: being [(n-2)]-recording, not
    being [(n-1)]-recording, being [(n-1)]-discerning and being
    [n]-discerning.  A candidate scoring full marks is then verified with
    {!verify_witness}.  (Note that a full-marks candidate cannot be
    [(n+1)]-discerning: by DFFR's Theorem "readable with consensus number
    [m] implies [(m-2)]-recording", [(n+1)]-discerning together with not
    [(n-1)]-recording would be contradictory.) *)

type space = {
  num_values : int;  (** at least 2 *)
  num_rws : int;  (** read-modify-write operations; at least 2 *)
  num_responses : int;  (** responses of the RMW operations; at least 2 *)
}

val check_space : space -> unit
(** @raise Invalid_argument naming the first dimension below 2. *)

type genome
(** A candidate transition table in a given {!space}. *)

val space_of : genome -> space

val to_objtype : ?name:string -> genome -> Objtype.t
(** The represented type: operations [0 .. num_rws - 1] are the RMW
    operations, operation [num_rws] is Read (responses of Read are offset
    beyond [num_responses] and decode injectively, so the result is
    readable by construction). *)

val of_table : space -> (Objtype.response * Objtype.value) array -> genome
(** Table in row-major order: entry [v * num_rws + op] gives (response,
    value) of RMW operation [op] on value [v].
    @raise Invalid_argument on dimension or range errors. *)

val table : genome -> (Objtype.response * Objtype.value) array

val random_genome : Random.State.t -> space -> genome
val mutate : Random.State.t -> genome -> genome
(** One random table entry replaced with a random {e different}
    (response, value) — the draw rerolls until the entry changes, so a
    mutation never reproduces its argument. *)

val seed_ladder : space -> genome
(** A deterministic seed: the team-ladder transition structure embedded in
    the space (gap 1 — a good starting point for the climb to gap 2). *)

val seed_crossing : space -> genome
(** A deterministic seed embedding the two-sided idle/cross/restore pattern
    of the verified [Gallery.x4_witness] (requires [num_values >= 5] and
    [num_rws >= 4]); from this seed the search succeeds immediately at
    target 4, demonstrating the space is not empty.
    @raise Invalid_argument if the space is too small. *)

val fitness : target:int -> genome -> int
(** The weighted score described above; {!max_fitness} when all four
    components hold. *)

val max_fitness : int

type witness = {
  objtype : Objtype.t;
  discerning_level : int;
  recording_level : int;
  iterations : int;  (** fitness evaluations spent *)
}

val default_max_iterations : int
(** 50_000 — {!search}'s default candidate budget. *)

val default_restart_every : int
(** 2_000 — {!search}'s default stale-step restart threshold. *)

val search :
  ?seed:int ->
  ?max_iterations:int ->
  ?restart_every:int ->
  ?incremental:bool ->
  ?obs:Obs.t ->
  ?on_score:(int -> unit) ->
  target:int ->
  space ->
  witness option
(** Hill-climb until a verified witness is found or [max_iterations]
    (default {!default_max_iterations}) candidates have been scored.
    [restart_every] (default {!default_restart_every}) non-improving
    steps trigger a restart from a fresh random genome (the deterministic
    seeds are used for the first climbs).

    With [incremental] (the default), the search is a warm-start
    neighborhood search: one long-lived [Kernel.t] + scratch per fitness
    level ([target - 2 .. target]) is held across the whole run, and a
    level is [Kernel.step]ped to a candidate's table at its first
    consultation (a rejected candidate is left by stepping to the next
    one, a restart by stepping to the new genome), so the
    delta-invalidated evaluation memos carry over between candidates.
    The cascade climbs the levels as a census climbs its ladder: the
    [target - 1] recording and [target] discerning queries decide with
    the level below as [Kernel.exists ~below].
    [~incremental:false] recompiles kernels per fitness call — the
    ablation baseline.  Both modes draw identically from the RNG and
    score identical candidate sequences, so at a fixed seed the fitness
    trajectory (observable via [on_score], called with every candidate's
    score in order) and the result are bit-identical — enforced by bench
    e22 and the test suite.

    Candidates whose RMW table is isomorphic (under value/op/response
    relabeling, [Sym]) to one already scored in this search skip the
    evaluation and replay the memoized score — sound because both
    fitness components are orbit invariants.  [obs] resolves the
    counters [synth.evals] (fitness evaluations actually run),
    [synth.sym_skips] (candidates served by the symmetry memo) and the
    kernel's [decide.*] counters and [kernel.masks_invalidated] /
    [kernel.masks_reused].

    @raise Invalid_argument when [target < 4] or the space is degenerate. *)

val verify_witness : target:int -> Objtype.t -> bool
(** Readable, max-discerning exactly [target], max-recording exactly
    [target - 2] — checked with {!Numbers} at cap [target + 1]. *)
