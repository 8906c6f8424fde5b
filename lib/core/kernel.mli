(** The compiled decision kernel: the hot path of the determining
    procedure, reduced to integer array reads.

    Deciding the [n]-discerning / [n]-recording conditions replays every
    at-most-once schedule against every candidate certificate
    [(u, team, ops)].  The reference checkers in {!Decide} refold each
    schedule through the memoized [Objtype.delta] closure and classify
    outcomes through per-candidate [Hashtbl]s.  This module compiles the
    same decision into three layers of precomputation:

    - {b Flat transition tables.}  [delta] becomes two [int array]s
      ([next] and [resp], indexed [v * num_ops + op]), so the inner loop
      is two array reads with no closure call and no tuple allocation.
    - {b Schedule-prefix trie.}  [Sched.at_most_once] is prefix-closed,
      so it compiles into a {!Sched.Trie}: one forward pass over the
      parent-before-child node arrays folds {e all} schedules for a given
      [(u, ops)], visiting each shared prefix once instead of refolding
      every schedule end to end.  Tries are memoized per process count
      (thread-safely) and shared across every type decided at that [n] —
      the census sweep's best case.
    - {b Team- and arrangement-independent evaluation.}  The folded
      final values and responses depend only on [(u, ops)], not on the
      team partition; and renaming the processes maps the schedule set
      onto itself, so a candidate [(u, T_0/T_1, ops)] has the verdict of
      [(u, rho(T_0)/rho(T_1), cops)], where [cops] is [ops]
      stable-sorted and [rho(p)] is process [p]'s slot in it.  The
      kernel folds the trie over [cops] and keeps the result in the
      scratch's evaluation table, one slot per [(condition, u, cops)],
      so every arrangement of one op multiset shares one fold.  Each candidate is then
      classified by a cheap pass over a few words, with its partition
      renamed through [rho]: per final value the first processes
      reaching it (recording), or per first process the first
      processes it shares a (process, response, final value) triple
      with (discerning, [n] "clash rows" built from per-node subtree
      value sets) — no [Hashtbl]s in the per-candidate loop.
    - {b Existence over the quotient.}  {!exists} needs no rank order,
      so it walks [(u, sorted op multiset)] entries instead of
      candidates: each is folded once, and classified against one
      representative team split per sub-multiset (T_0 takes the first
      slots of each op's run; splits with the same per-op counts are
      images of one another under swaps of same-op slots, which fix the
      fold).  The entry keeps that verdict, so a re-scan of a stepped
      scratch costs one validity check per entry the steps spared.
      Given the same table at [n - 1] processes, it also skips every
      entry whose one-smaller sub-multisets refute it (the ladder; see
      {!exists}).

    Candidates are {e ranked}: the kernel numbers the sequential
    enumeration order of [Decide.candidates] (initial value major, then
    team partition, then per-team sorted operation assignments) as a
    dense [0 .. total - 1] index space, so parallel searches distribute
    chunked index ranges and keep the deterministic minimum-index
    (= sequential first) witness guarantee.

    Ownership.  A compiled {!t} that is only searched is safe to share
    across domains, each worker with its own {!scratch}; the kernel's
    counters are bumped from per-scratch tallies, once per call.  Two
    operations mutate a kernel's flat tables in place, and a kernel
    either has touched is paired with one scratch and confined to one
    domain — never share it, and never use a second scratch on it (the
    other scratch's entries would silently describe the old tables):
    {!retarget}, which swaps in a whole new table of the same shape so a
    census compiles one kernel and scratch per (domain, [n]) and reuses
    them for every table it decides, and {!step}, which does the same
    but keeps the evaluations the new table cannot change — the census
    chain's move from table to table and the synthesizer's from
    candidate to candidate. *)

type condition = Discerning | Recording
(** Re-exported by [Decide]; defined here so the kernel does not depend
    on it. *)

(** Which implementation decides a query: [Trie] (the default
    everywhere) is this compiled kernel; [Reference] is the original
    closure-and-[Hashtbl] checker in [Decide], kept as the
    differential-testing oracle.  Both return bit-identical
    certificates.  The kernel's own entry points always run [Trie]; the
    choice is made by [Decide.search] and the engine. *)
type mode = Reference | Trie

val mode_of_string : string -> (mode, [ `Msg of string ]) result
(** ["on"] / ["trie"] is [Trie], ["off"] / ["reference"] is [Reference]
    — the CLI's [--kernel] values.  Anything else is an [Error] naming
    the accepted values. *)

val mode_to_string : mode -> string

type t
(** A kernel compiled for one [(Objtype.t, n)] pair. *)

type scratch
(** Per-worker mutable evaluation state: node value/response buffers,
    the flat classification arrays, and the evaluation table, one slot
    per [(condition, u, cops)] (the sorted op multiset, by its lex
    rank).  Every entry point reads and fills the same table.  Never
    share a scratch between domains or between concurrent searches. *)

val compile : ?obs:Obs.t -> Objtype.t -> n:int -> t
(** Build the flat tables, fetch the memoized trie for [n], and rank the
    candidate space.  With [obs], resolves the kernel counters
    [decide.trie_nodes] (nodes of freshly built tries),
    [decide.kernel_evals] (trie folds, one per [(condition, u)] and
    sorted op multiset the scratch did not hold: a full scan of a fresh
    scratch makes at most [num_values * C(num_ops + n - 1, n)] per
    condition) and [decide.partitions_pruned] (visits answered from a
    memoized evaluation, skipping schedule replay entirely) in that
    context's registry, and [decide.entries_skipped] ({!exists}
    entries passed without a fold).  A visit is one candidate in
    {!search_range} and {!check}, one [(u, multiset)] entry in
    {!exists}; every visit counts in exactly one of the three, and
    {!search_range} and {!check} skip nothing, so there the sum of the
    first two does not depend on the memo.  Two more count the
    {!step} memo: [kernel.masks_invalidated] (entries a step dropped)
    and [kernel.masks_reused] (the memo hits among the visits on a
    scratch that has been stepped, so tracks cells).
    @raise Invalid_argument when [n < 2]. *)

val warm_trie : ?obs:Obs.t -> nprocs:int -> unit -> unit
(** Force the shared trie for [nprocs] into the memo (e.g. before a
    parallel sweep, so workers only read). *)

val total : t -> int
(** Number of candidates — [num_values] equal consecutive blocks, one
    per initial value [u], each of [total / num_values] ranks. *)

val candidate : t -> int -> Objtype.value * bool array * Objtype.op array
(** Unrank: the candidate at the given index of the sequential
    enumeration order, with fresh [team] and [ops] arrays (safe to hand
    to [Certificate.make]).  @raise Invalid_argument out of range. *)

val scratch : t -> scratch
(** A fresh scratch for [k].  Its evaluation table allocates a row of
    [C(num_ops + n - 1, n)] slots per [(condition, u)] at the row's first
    use, so a one-shot scratch pays only for the rows it evaluates. *)

val retarget : ?obs:Obs.t -> t -> scratch -> Objtype.t -> unit
(** [retarget ?obs k s ty] makes [k] decide [ty]: the flat tables are
    overwritten in place from [ty.delta], and [s] is reset to the state
    of a fresh [scratch k] — evaluation table (its allocated rows are
    kept and emptied), cell tracking and the {!exists}
    hints — in time bounded by the rows the previous table's decisions
    touched.  The
    kernel counters are rebound to [obs] (unbound when absent), exactly
    as [compile ?obs] would bind them.  Afterwards [k] and [s] answer
    every query, and count every counter, byte-identically to
    [compile ?obs ty ~n] with a fresh scratch; {!to_objtype}'s default
    name becomes [ty]'s.  {!step} is the variant that keeps
    evaluations; a retarget is the fresh start of a census chain.
    @raise Invalid_argument when [ty]'s [(num_values, num_ops,
    num_responses)] differ from the compiled type's. *)

val step : ?obs:Obs.t -> t -> scratch -> Objtype.t -> unit
(** [step ?obs k s ty] makes [k] decide [ty] like {!retarget}, but
    keeps every evaluation [ty] cannot change.  The flat tables are
    overwritten from [ty.delta], and one pass over [s]'s allocated rows
    {e delta-invalidates} the evaluation table: while tracking is on,
    every entry records (as a small bitset) which table cells its trie
    fold read, and the step drops exactly the valid entries whose
    bitset meets the cells where [ty] differs from the tables [k] held —
    [O(allocated slots)] bit tests, never an entry for a cell it no
    longer reads, and nothing at all when no cell changed.  A kept entry
    keeps its masks and its {!exists} verdict: a fold that reads no
    changed cell gives the same masks, and the verdict is a function of
    the masks.  If [s] was not tracking cells (a fresh or {!retarget}ed
    scratch), the step instead drops every valid entry and switches
    tracking on.  Counters are rebound as {!retarget} rebinds them, the
    dropped entries are added to [kernel.masks_invalidated] (one add per
    step), and the {!exists} hints are kept (they are re-verified before
    use).

    Contract, pinned by the qcheck differential suite: after {e any}
    sequence of steps, in any order and back to any earlier table, [k]
    and [s] answer {!search_range}, {!exists} (with or without
    [below]) and {!check} byte-identically to [compile ty ~n] with a
    fresh scratch, and {!stale_entries} is [0]; the counts differ, since
    a kept entry is a memo hit where a fresh compile folds.  A census
    steps its per-[n] kernels from table to table
    ([Engine.census_levels ~chain]), the synthesizer its per-level
    kernels from candidate to candidate ([Synth.search]).
    @raise Invalid_argument when [ty]'s shape differs from the compiled
    type's. *)

val stale_entries : t -> scratch -> int
(** The number of valid entries of [s]'s evaluation table that a fresh
    fold of [k]'s current tables contradicts: other masks, another
    read-cell set (while [s] tracks cells), or a kept {!exists} verdict
    the masks do not give.  [0] is the invariant every operation keeps;
    the differential tests assert it.  Folds every valid entry once. *)

val rank_sorted : m:int -> k:int -> int array -> int
(** The lex rank of the nondecreasing [buf.(0 .. k-1)] over
    [0 .. m-1] among all such sequences, by counting. *)

val rank_steps : m:int -> k:int -> int array
(** A table of [k * m] rank steps such that [rank_sorted ~m ~k buf] is
    the sum of [steps.(pos * m + buf.(pos))] over [pos < k]: [k] array
    reads per rank.  Each compiled kernel holds the one for its [n]
    ([num_ops], [n]) and ranks every candidate's sorted ops with it. *)

val search_range :
  t ->
  scratch ->
  condition ->
  lo:int ->
  hi:int ->
  stop:(int -> bool) ->
  int option * int
(** [search_range k s cond ~lo ~hi ~stop] scans candidate ranks
    [lo .. hi - 1] in order and returns [(witness, checked)]: the first
    witnessing rank (if any) and the number of candidates actually
    checked.  [stop] is polled with the current rank before each
    candidate; answering [true] abandons the scan (returning [None] for
    the witness) — the hook parallel workers use for deadline polls and
    minimum-rank pruning. *)

val exists : ?below:t * scratch -> t -> scratch -> condition -> bool
(** Does {e any} candidate witness the condition?  Same verdict as
    [search_range ~lo:0 ~hi:(total k)] being [Some _], decided over
    [(u, sorted op multiset)] entries instead of ranks: one fold per
    entry and one classification per team split of its multiset (up to
    swaps of same-op slots and of the two teams), the verdict kept on
    the entry.  The entries are the ones {!search_range} and {!check}
    fill on the same scratch, so a multiset they folded is not folded
    again.  A re-scan answers each entry still valid with one check, and
    the scratch remembers the last witnessing entry per condition and
    re-verifies it first, so on a stepped kernel whose witness survived
    the edit this costs one probe.

    Two rules pass an entry without folding it (counted in
    [decide.entries_skipped]; a visit is then a fold, a memo hit or a
    skip):
    - a recording entry whose discerning entry on the same scratch is
      valid and refuted fails (recording implies discerning candidate by
      candidate);
    - with [below], the same table compiled at [n - 1] processes with
      its own scratch, an entry [(u, M)] is folded only when at least
      [n - 1] of the [n] slots of [M] (counted with multiplicity) leave
      a sub-entry [(u, M - {o})] that holds on [below]: a witnessing
      split keeps witnessing when a process leaves a team of size at
      least 2, and at least [n - 1] processes sit on such a team.  The
      sub-entries are decided through [below]'s own table and keep their
      verdicts there; [below]'s counters count them.
    The answer is the same with or without [below].  The decision point
    of the census ([Engine.census_levels], with [below] from [n = 3]) and
    of the incremental synthesizer ([Synth.search]'s warm fitness, with
    [below] on its two upper levels).
    @raise Invalid_argument when [below] is not compiled at [n - 1] or
    its transition tables differ from [k]'s. *)

val check :
  t ->
  scratch ->
  condition ->
  u:Objtype.value ->
  team:bool array ->
  ops:Objtype.op array ->
  bool
(** Decide one explicit candidate (used by the fixed-partition search).
    Equivalent to [Decide.check cond t (Sched.at_most_once ~nprocs:n)]
    on the same candidate.  @raise Invalid_argument when [team] or
    [ops] does not have [n] entries. *)

val to_objtype : ?name:string -> t -> Objtype.t
(** The type the kernel's {e current} tables decide — after a {!step} or
    {!retarget}, the new type.  Default [name] is that of the type last
    compiled, retargeted or stepped to. *)

val count : Objtype.t -> n:int -> int
(** Closed-form size of the pruned candidate space:
    [num_values * sum over team splits of products of multiset
    coefficients] — no enumeration.  Equals [total] of a compiled
    kernel.  @raise Invalid_argument when [n < 2]. *)

val count_naive : Objtype.t -> n:int -> int
(** Closed form for the unpruned space ([~naive:true] enumeration):
    [num_values * (2^(n-1) - 1) * num_ops^n]. *)
