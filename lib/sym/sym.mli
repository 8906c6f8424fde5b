(** Canonical labeling of transition tables under the value/op/response
    permutation group — the symmetry quotient behind [--sym].

    A table over [values] values, [ops] operations and [responses]
    responses is the array [t] of [(response, value)] cells with cell
    [(x, op)] at index [x * ops + op] — exactly the census genome layout
    ([Census.genome_of_index]) and, with [ops = num_ops], an
    [Objtype.t]'s memoized delta.  The group

      G  =  S_values x S_ops x S_responses

    acts by [(pi, sigma, rho) . T = T'] with
    [T'[pi x][sigma op] = (rho r, pi y)] when [T[x][op] = (r, y)].
    Two tables in the same orbit are isomorphic objects: the paper's
    levels (max discerning / max recording) quantify over every initial
    value, every operation assignment and every process team, and
    responses matter only up to injective relabeling, so both levels are
    orbit invariants.  Deciding one representative per orbit and
    weighting it by the orbit size reproduces the exhaustive census
    histogram bit-identically.

    The canonizer is refinement + backtracking: an iterated color
    refinement over the three sorts prunes the candidate relabelings to
    the class-respecting ones, a backtracking scan of those (with greedy
    first-appearance response labeling, which is optimal per candidate)
    selects the lexicographically least key among them.  The canonical
    form is a fixed representative of the orbit — every member canonizes
    to the same form, index, digest and orbit size — and the
    automorphism count falls out of the same scan, giving the orbit size
    by orbit-stabilizer.  Pinned against brute-force orbit enumeration
    on small spaces in the test suite. *)

type t
(** A canonizer for one table shape (fixed [values]/[ops]/[responses]). *)

val make : values:int -> ops:int -> responses:int -> t
(** @raise Invalid_argument when a dimension is nonpositive.  A shape
    whose space size overflows [max_int] (the [Census.space_size] limit)
    is {e unrankable}: {!canonize}, {!digest} and the group oracles all
    work, but the index-side API ({!space_size}, {!table_of_index},
    {!index_of_table}, {!is_rep}, {!classes}) raises — the synthesizer's
    symmetry memo canonizes tables from spaces far past any rankable
    census. *)

val values : t -> int
val ops : t -> int
val responses : t -> int

val cells : t -> int
(** [values * ops], the table length. *)

val group_order : t -> int
(** [values! * ops! * responses!].
    @raise Invalid_argument when that product overflows [max_int]
    (canonization and digests still work in such spaces; only the orbit
    accounting is unavailable). *)

val space_size : t -> int
(** [(responses * values) ^ cells] — the number of tables of this shape;
    agrees with [Census.space_size] on census spaces.
    @raise Invalid_argument on an unrankable space. *)

val table_of_index : t -> int -> (int * int) array
(** The rank/unrank bijection of [Census.genome_of_index]: cell [i] is
    the [i]-th least-significant base-[responses * values] digit of the
    index, a digit [(r, v)] encoding as [r * values + v]. *)

val index_of_table : t -> (int * int) array -> int
(** Inverse of {!table_of_index}.
    @raise Invalid_argument on a malformed table or an unrankable
    space. *)

type canon = {
  form : (int * int) array;  (** the canonical table of the orbit *)
  index : int;  (** rank of [form] — equal across the whole orbit; [-1] on an unrankable space *)
  orbit : int;  (** orbit size; orbit sizes over all classes sum to {!space_size}; [-1] when {!group_order} overflows *)
  aut : int;
      (** automorphism count; [orbit * aut = group_order]; [-1] when it
          overflows [max_int] (the group order then overflows too, so
          [orbit] is [-1] as well) *)
}

val canonize : t -> (int * int) array -> canon
(** @raise Invalid_argument on a malformed table. *)

val canonize_index : t -> int -> canon

val is_rep : t -> int -> bool
(** [is_rep t i] holds when rank [i] is its own canonical index — the
    one representative its orbit contains. *)

val digest : t -> (int * int) array -> string
(** MD5 hex of a version-tagged encoding of the canonical form: equal
    exactly on isomorphic tables.  The store key material behind
    [Api.query_digest_canonical]. *)

val classes : t -> int array * int array
(** [(reps, orbits)]: the canonical representatives of every orbit in
    increasing rank order, with [orbits.(i)] the orbit size of
    [reps.(i)].  A full sweep of the space with the response relabeling
    divided out: it walks pairs (response column relabeled in order of
    first appearance, value column), so its bitset of claimed pairs holds
    [values^cells] bits per pattern: 187 x 729 = 136,323 bits at
    [{3,2,4}], where the space has 2,985,984 tables.  The cost is one canonization per class plus [values! * ops!]
    images per class (each a sum of {!cells} precomputed table entries),
    and one pattern ranking per (pattern, image) pair from a
    [(cells + 1)^2] table of completion counts.  Meant for census-sized
    spaces, not for one-off queries.  It never forms {!group_order}, so
    a rankable shape whose group overflows, such as [{2,2,181}], sweeps.
    @raise Invalid_argument on an unrankable space. *)

(** {1 Brute-force oracles (for tests)} *)

val orbit_brute : t -> (int * int) array -> int
(** Orbit size by enumerating all [group_order] images — exponential,
    test-only. *)

val apply : t -> (int * int) array -> pv:int array -> po:int array -> pr:int array -> (int * int) array
(** The group action itself: [apply t tbl ~pv ~po ~pr] is
    [(pv, po, pr) . tbl] with each permutation given as an
    [old -> new] array. *)

val permutations : int -> int array list
(** All [n!] permutations of [0 .. n-1], each as an [old -> new] array.
    Test-only helper for the brute oracles. *)
