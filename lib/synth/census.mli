(** A census of the recoverable consensus hierarchy over *all* small
    readable deterministic types: for every transition table in a
    {!Synth.space}, determine max-discerning and max-recording and
    histogram the pairs.

    This answers a question the paper provokes but cannot ask without a
    decider: how are consensus numbers and recoverable consensus numbers
    *distributed*, and how rare are gap types?  (Experiment E11.)

    {!exhaustive} is the sequential reference: every table decided by a
    fresh [Numbers] scan.  The census that runs — parallel, sampled,
    symmetry-reduced, checkpointed — is [Engine.census]; the tests
    compare its histograms against this one. *)

type entry = {
  discerning : int;  (** level, with the cap standing in for "at least cap" *)
  recording : int;
  count : int;
}

val space_size : Synth.space -> int
(** Number of tables in the space: [(responses * values) ^ (values * rws)].
    @raise Invalid_argument on overflow past [max_int]. *)

val genome_of_index : Synth.space -> int -> Synth.genome
(** The [index]-th table of the space in mixed-radix order — the
    enumeration {!exhaustive} walks, exposed so the engine's parallel
    census can partition indices across domains deterministically. *)

val levels : cap:int -> Objtype.t -> int * int
(** [(max_discerning, max_recording)] truncated at [cap] — the pair
    {!exhaustive} histograms for one type. *)

val of_histogram : (int * int, int) Hashtbl.t -> entry list
(** Sort a [(discerning, recording) -> count] table into entries, the
    shared back end of {!exhaustive} and the engine's parallel census. *)

val exhaustive : ?cap:int -> Synth.space -> entry list
(** Decide every table in the space (use only when {!space_size} is small);
    entries are sorted by (discerning, recording).  Default [cap] is 4. *)

val gap_share : entry list -> levels:(int * int) -> float
(** Fraction of the census at the given (discerning, recording) pair. *)

val pp : Format.formatter -> entry list -> unit
