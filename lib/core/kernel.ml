(* The compiled decision kernel.  See kernel.mli for the design overview;
   the invariants that matter for correctness are spelled out inline. *)

type condition = Discerning | Recording
type mode = Reference | Trie

let mode_of_string = function
  | "on" | "trie" -> Ok Trie
  | "off" | "reference" -> Ok Reference
  | s -> Error (`Msg (Printf.sprintf "unknown kernel mode %S (expected on|trie|off|reference)" s))

let mode_to_string = function Reference -> "reference" | Trie -> "trie"

(* ------------------------------------------------------------------ *)
(* Sorted-multiset combinatorics.  A team of k processes in nondecreasing
   process order receives a nondecreasing (lex-sorted) sequence of k ops
   drawn from [0 .. m-1]; there are C(m+k-1, k) of them and the reference
   enumeration ([Decide.sorted_assignments]) emits them in lex order. *)

(* C(m+k-1, k) via the incremental product C(m-1+i, i) — each partial
   product is itself a binomial, so the division is exact. *)
let multiset_count m k =
  let acc = ref 1 in
  for i = 1 to k do
    acc := !acc * (m - 1 + i) / i
  done;
  !acc

let binomial n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let acc = ref 1 in
    for i = 1 to k do
      acc := !acc * (n - k + i) / i
    done;
    !acc
  end

(* Fill [buf.(0 .. k-1)] with the [rank]-th (0-based) nondecreasing
   sequence over [0 .. m-1] in lex order.  Sequences with first element
   [o] at a given position number C((m-o)+rest-1, rest), so lex unranking
   is a cumulative scan per position. *)
let unrank_sorted ~m ~k rank buf =
  let rank = ref rank and lowest = ref 0 in
  for pos = 0 to k - 1 do
    let o = ref !lowest in
    let placed = ref false in
    while not !placed do
      let below = multiset_count (m - !o) (k - pos - 1) in
      if !rank < below then placed := true
      else begin
        rank := !rank - below;
        incr o
      end
    done;
    buf.(pos) <- !o;
    lowest := !o
  done

(* The inverse of [unrank_sorted]: the lex rank of the nondecreasing
   [buf.(0 .. k-1)] over [0 .. m-1]. *)
let rank_sorted ~m ~k buf =
  let rank = ref 0 and lowest = ref 0 in
  for pos = 0 to k - 1 do
    for o = !lowest to buf.(pos) - 1 do
      rank := !rank + multiset_count (m - o) (k - pos - 1)
    done;
    lowest := buf.(pos)
  done;
  !rank

(* The same rank as [k] table reads: [rank_sorted ~m ~k buf] is
   [Σ_pos steps.(pos * m + buf.(pos))] over [steps = rank_steps ~m ~k].
   With [P(pos, v)] the sum of [multiset_count (m - o) (k - pos - 1)]
   over [o < v], [rank_sorted] adds [P(pos, buf.(pos)) - P(pos, buf.(pos
   - 1))] at each [pos] (the first term alone at [pos = 0]); grouping the
   terms by the slot they read gives [steps(pos, v) = P(pos, v) - P(pos +
   1, v)], with [P(k, _) = 0].  [p] holds [P] row by row, each row a
   running sum. *)
let rank_steps ~m ~k =
  let p = Array.make ((k + 1) * m) 0 in
  for pos = 0 to k - 1 do
    for v = 1 to m - 1 do
      p.((pos * m) + v) <- p.((pos * m) + v - 1) + multiset_count (m - v + 1) (k - pos - 1)
    done
  done;
  Array.init (k * m) (fun i -> p.(i) - p.(i + m))

(* Step [buf.(0 .. k-1)] to its lex successor in place; [false] on wrap
   (the last sequence, all [m-1]).  Successor: bump the rightmost slot
   below [m-1] and level everything to its right at the new value. *)
let next_sorted buf k m =
  let j = ref (k - 1) in
  while !j >= 0 && buf.(!j) = m - 1 do
    decr j
  done;
  if !j < 0 then false
  else begin
    let v = buf.(!j) + 1 in
    for i = !j to k - 1 do
      buf.(i) <- v
    done;
    true
  end

(* ------------------------------------------------------------------ *)
(* Closed-form candidate counts (satellite: count_candidates without
   enumeration).  The pruned space fixes p_0 on team T_0 and, within a
   team, only sorted op assignments survive the symmetry quotient. *)

let count (ty : Objtype.t) ~n =
  if n < 2 then invalid_arg "Kernel.count: need n >= 2";
  let m = ty.Objtype.num_ops in
  let per_u = ref 0 in
  for size1 = 1 to n - 1 do
    (* C(n-1, size1) partitions put [size1] of processes 1..n-1 on T_1. *)
    per_u := !per_u + (binomial (n - 1) size1 * multiset_count m (n - size1) * multiset_count m size1)
  done;
  ty.Objtype.num_values * !per_u

let count_naive (ty : Objtype.t) ~n =
  if n < 2 then invalid_arg "Kernel.count_naive: need n >= 2";
  let pow = ref 1 in
  for _ = 1 to n do
    pow := !pow * ty.Objtype.num_ops
  done;
  ty.Objtype.num_values * ((1 lsl (n - 1)) - 1) * !pow

(* ------------------------------------------------------------------ *)
(* Shared trie memo.  Tries depend only on the process count, so every
   type decided at the same [n] — the census case — shares one.  Every
   lookup and insertion takes the lock; a hit holds it for one hash
   probe.  [compile] is the only caller on the decision path, and a
   census compiles once per (domain, process count), so the lock is off
   the per-table path. *)

let trie_lock = Mutex.create ()
let tries : (int, Sched.Trie.t) Hashtbl.t = Hashtbl.create 8

let shared_trie ?obs ~nprocs () =
  let fresh, trie =
    Mutex.protect trie_lock (fun () ->
        match Hashtbl.find_opt tries nprocs with
        | Some trie -> (false, trie)
        | None ->
            let trie = Sched.Trie.of_nprocs ~nprocs in
            Hashtbl.add tries nprocs trie;
            (true, trie))
  in
  (match obs with
  | Some obs ->
      let c = Obs.counter obs "decide.trie_nodes" in
      if fresh then Obs.Metrics.Counter.add c (Sched.Trie.num_nodes trie)
  | None -> ());
  trie

let warm_trie ?obs ~nprocs () = ignore (shared_trie ?obs ~nprocs ())

(* ------------------------------------------------------------------ *)
(* Compilation. *)

(* One team partition, precompiled.  [team.(i)] follows the reference
   convention (true = T_1, process 0 always T_0); [t0bits]/[t1bits] are
   the same split as first-process bitmasks.  [procs0]/[procs1] list each
   team's members in increasing order — the order the sorted op
   assignments bind to.  [count0 * count1 = block] candidates live at
   ranks [start .. start + block - 1] within each initial-value block,
   T_0's assignment major (the reference nesting: ops0 outer). *)
type part = {
  team : bool array;
  t0bits : int;
  t1bits : int;
  size0 : int;
  size1 : int;
  procs0 : int array;
  procs1 : int array;
  count1 : int;
  block : int;
  start : int;
}

type t = {
  mutable ty : Objtype.t;
  n : int;
  nv : int;
  no : int;
  nr : int;
  next : int array;
  resp : int array;
  (* trie arrays, denormalized out of Sched.Trie for the inner loops *)
  t_nodes : int;
  t_parent : int array;
  t_proc : int array;
  t_first : int array;
  t_key : int array; (* per node: [(proc * nr * n) + first], its [acc] row sans response *)
  parts : part array;
  per_u : int;
  total : int;
  nms : int; (* sorted op multisets of size [n]: C(no + n - 1, n) *)
  rank_step : int array; (* [rank_steps ~m:no ~k:n] *)
  (* The counters live in the context the kernel was compiled (or last
     retargeted) with: [obs] is that context, compared physically so a
     retarget under the same context skips the registry lookups. *)
  mutable obs : Obs.t option;
  mutable c_evals : Obs.Metrics.Counter.t option;
  mutable c_pruned : Obs.Metrics.Counter.t option;
  mutable c_skipped : Obs.Metrics.Counter.t option;
  mutable c_invalidated : Obs.Metrics.Counter.t option;
  mutable c_reused : Obs.Metrics.Counter.t option;
}

let make_part ~no ~start team =
  let t0 = ref [] and t1 = ref [] in
  for i = Array.length team - 1 downto 0 do
    if team.(i) then t1 := i :: !t1 else t0 := i :: !t0
  done;
  let procs0 = Array.of_list !t0 and procs1 = Array.of_list !t1 in
  let size0 = Array.length procs0 and size1 = Array.length procs1 in
  let bits a = Array.fold_left (fun acc i -> acc lor (1 lsl i)) 0 a in
  let count1 = multiset_count no size1 in
  let block = multiset_count no size0 * count1 in
  { team; t0bits = bits procs0; t1bits = bits procs1; size0; size1; procs0; procs1; count1;
    block; start }

let fill_tables (ty : Objtype.t) ~no next resp =
  for v = 0 to ty.Objtype.num_values - 1 do
    for o = 0 to no - 1 do
      let r, v' = ty.Objtype.delta v o in
      next.((v * no) + o) <- v';
      resp.((v * no) + o) <- r
    done
  done

let bind_counters k obs =
  let c name = Option.map (fun o -> Obs.counter o name) obs in
  k.obs <- obs;
  k.c_evals <- c "decide.kernel_evals";
  k.c_pruned <- c "decide.partitions_pruned";
  k.c_skipped <- c "decide.entries_skipped";
  k.c_invalidated <- c "kernel.masks_invalidated";
  k.c_reused <- c "kernel.masks_reused"

let compile ?obs (ty : Objtype.t) ~n =
  if n < 2 then invalid_arg "Kernel.compile: need n >= 2";
  let nv = ty.Objtype.num_values and no = ty.Objtype.num_ops and nr = ty.Objtype.num_responses in
  let next = Array.make (nv * no) 0 and resp = Array.make (nv * no) 0 in
  fill_tables ty ~no next resp;
  let trie = shared_trie ?obs ~nprocs:n () in
  let nparts = (1 lsl (n - 1)) - 1 in
  let start = ref 0 in
  let parts =
    Array.init nparts (fun idx ->
        let mask = idx + 1 in
        let team = Array.init n (fun i -> i > 0 && (mask lsr (i - 1)) land 1 = 1) in
        let p = make_part ~no ~start:!start team in
        start := !start + p.block;
        p)
  in
  let per_u = !start and nms = multiset_count no n in
  let t_proc = Sched.Trie.proc trie and t_first = Sched.Trie.first trie in
  let k =
    {
      ty;
      n;
      nv;
      no;
      nr;
      next;
      resp;
      t_nodes = Sched.Trie.num_nodes trie;
      t_parent = Sched.Trie.parent trie;
      t_proc;
      t_first;
      t_key = Array.mapi (fun i f -> if i = 0 then 0 else (t_proc.(i) * nr * n) + f) t_first;
      parts;
      per_u;
      total = nv * per_u;
      nms;
      rank_step = rank_steps ~m:no ~k:n;
      obs = None;
      c_evals = None;
      c_pruned = None;
      c_skipped = None;
      c_invalidated = None;
      c_reused = None;
    }
  in
  if Option.is_some obs then bind_counters k obs;
  k

let total k = k.total

(* ------------------------------------------------------------------ *)
(* Scratch. *)

(* [exists]'s answer for one (u, multiset): does some team split of the
   multiset witness the condition?  A function of the entry's masks, so
   it is kept while they are and dropped when they change. *)
type verdict = Unknown | Holds | Fails

(* One memoized evaluation: the recording final-value masks or the
   discerning clash rows of a given [(u, cops, condition)], plus the
   delta-invalidation metadata — [cells] is a bitset over the [nv * no]
   transition-table cells the trie fold read to produce [masks],
   recorded while [track] is on.  [step] flips [valid] off for every
   entry whose [cells] meet the cells the new table changed. *)
type entry = {
  mutable masks : int array;
  mutable cells : int array; (* bitset: cell [c] at word [c lsr 5], bit [c land 31] *)
  mutable valid : bool;
  mutable verdict : verdict;
}

(* The placeholder of a slot never evaluated: never valid, never
   mutated. *)
let dummy_entry = { masks = [||]; cells = [||]; valid = false; verdict = Unknown }

type scratch = {
  value : int array; (* per trie node: folded final value; value.(0) = u *)
  row_at : int array; (* per trie node: its [acc] row, from its last step's response *)
  rec_mask : int array; (* per final value: bitmask of first-processes *)
  vw : int; (* words per value set: [nv] bits, 63 a word *)
  sub : int array; (* per trie node: set of final values in its subtree *)
  acc : int array; (* per (proc, resp, first): union of [sub]; all zero between evals *)
  ops : int array; (* current candidate's op per process *)
  cops : int array; (* [ops] stable-sorted: the arrangement folded and memoized *)
  rho : int array; (* per process [p]: its slot in [cops], so [cops.(rho.(p)) = ops.(p)] *)
  ops0 : int array; (* T_0's sorted assignment (first size0 slots used) *)
  ops1 : int array; (* T_1's sorted assignment *)
  rows : entry array array;
      (* The evaluation table: row [cond * nv + u] (Recording is cond 0;
         see [row_of]) holds in slot [r] the entry of initial value [u]
         and the [r]-th sorted op multiset in lex order, [dummy_entry]
         until first evaluated.  A row of [nms] slots is allocated at its
         first evaluation ([lookup]), so a scratch pays only for the
         (condition, u) rows it evaluates. *)
  cur_cells : int array; (* bitset buffer for the eval in progress *)
  cell_words : int; (* length of [cur_cells] *)
  mutable track : bool; (* record cells? on after the first step *)
  hint : int array;
      (* [exists]'s last witnessing entry per condition (Recording at 0,
         Discerning at 1) as [u * nms + r], -1 when the last scan
         refuted.  Always re-verified before being trusted, so staleness
         is harmless. *)
  mutable sub_rank : int array;
      (* [exists ~below]'s sub-multiset ranks: slot [r * no + o] holds
         the lex rank, among sorted multisets of size [n - 1], of the
         [r]-th multiset of size [n] less one [o], or -1 when it holds no
         [o].  Shape-only, so a retarget keeps it; built at the first
         [exists ~below]. *)
  (* Counter traffic, tallied here per candidate and flushed into the
     kernel's counters once per public call ([flush]): one atomic add
     per scan instead of one per candidate. *)
  mutable n_evals : int;
  mutable n_pruned : int;
  mutable n_skipped : int;
  mutable n_reused : int;
}

let scratch k =
  let vw = (k.nv + 62) / 63 in
  {
    value = Array.make k.t_nodes 0;
    row_at = Array.make k.t_nodes 0;
    rec_mask = Array.make k.nv 0;
    vw;
    sub = Array.make (k.t_nodes * vw) 0;
    acc = Array.make (k.n * k.nr * k.n * vw) 0;
    ops = Array.make k.n 0;
    cops = Array.make k.n 0;
    rho = Array.make k.n 0;
    ops0 = Array.make k.n 0;
    ops1 = Array.make k.n 0;
    rows = Array.make (2 * k.nv) [||];
    cur_cells = Array.make (((k.nv * k.no) + 31) / 32) 0;
    cell_words = ((k.nv * k.no) + 31) / 32;
    track = false;
    hint = [| -1; -1 |];
    sub_rank = [||];
    n_evals = 0;
    n_pruned = 0;
    n_skipped = 0;
    n_reused = 0;
  }

(* The (condition, u) row's index in [s.rows]: entries for both
   conditions and every [u] coexist, so a stepped scratch never throws
   evaluations away wholesale. *)
let row_of k cond ~u = ((match cond with Recording -> 0 | Discerning -> 1) * k.nv) + u

(* The entry of multiset rank [r] under (cond, u), [dummy_entry] when
   its row is not allocated. *)
let entry k s cond ~u r =
  let row = s.rows.(row_of k cond ~u) in
  if Array.length row = 0 then dummy_entry else row.(r)

(* Process symmetry.  Renaming the processes by a permutation [rho]
   maps the at-most-once schedule set onto itself, so the candidate
   [(u, T_0/T_1, ops)] has the verdict of [(u, rho(T_0)/rho(T_1), cops)]
   with [cops.(rho.(p)) = ops.(p)].  Taking [cops] sorted makes every
   arrangement of one op multiset fold the same trie once: the table is
   keyed by [cops] and only the partition is renamed, at classification.
   Delta invalidation is unaffected: the renaming maps each arrangement's
   schedules onto the sorted fold's, step for step, so both read the
   same transition-table cells.
   [rho] is the stable sort's: [p]'s slot is the number of processes
   with a smaller op, or an equal op and a smaller index (the identity
   when [ops] is already sorted). *)
let canonicalize k s =
  let n = k.n and ops = s.ops in
  for p = 0 to n - 1 do
    let o = ops.(p) and slot = ref 0 in
    for q = 0 to n - 1 do
      let o' = ops.(q) in
      if o' < o || (o' = o && q < p) then incr slot
    done;
    s.rho.(p) <- !slot;
    s.cops.(!slot) <- o
  done

(* [bits] renamed through [rho]. *)
let rename s bits =
  let b = ref bits and p = ref 0 and r = ref 0 in
  while !b <> 0 do
    if !b land 1 = 1 then r := !r lor (1 lsl s.rho.(!p));
    b := !b lsr 1;
    incr p
  done;
  !r

(* ------------------------------------------------------------------ *)
(* Evaluation: fold every schedule for the current (u, s.cops).  Node
   values extend their parent's by one transition, so the whole set costs
   one transition per node. *)

let eval_rec_trie k s ~u =
  Array.fill s.rec_mask 0 k.nv 0;
  s.value.(0) <- u;
  if s.track then
    for i = 1 to k.t_nodes - 1 do
      let idx = (s.value.(k.t_parent.(i)) * k.no) + s.cops.(k.t_proc.(i)) in
      s.cur_cells.(idx lsr 5) <- s.cur_cells.(idx lsr 5) lor (1 lsl (idx land 31));
      let v = k.next.(idx) in
      s.value.(i) <- v;
      s.rec_mask.(v) <- s.rec_mask.(v) lor (1 lsl k.t_first.(i))
    done
  else
    for i = 1 to k.t_nodes - 1 do
      let v = k.next.((s.value.(k.t_parent.(i)) * k.no) + s.cops.(k.t_proc.(i))) in
      s.value.(i) <- v;
      s.rec_mask.(v) <- s.rec_mask.(v) lor (1 lsl k.t_first.(i))
    done

(* Discerning needs, per schedule, the set of (process, its response,
   final value) triples: each step on the schedule's root path paired
   with its final value.  Turned around, node [a] pairs its own step's
   (proc, resp) with every final value in its subtree, all under [a]'s
   first process.  So one reverse pass (children before parents)
   completes each node's subtree value set [sub], ORs it into its
   parent's (the root's is never read) and into its row
   [acc.((proc, resp), first)], and clears it for the next eval.  Two
   first processes share a triple iff their rows meet under a common
   (proc, resp).  One more pass over the nodes clears each nonzero row
   and compares it with its key's rows: of two meeting rows, the first
   one visited is compared while the other is still whole.  The
   result is [n] clash rows, bit [f'] of row [f] set iff [f] and [f']
   share a triple. *)
let eval_disc_trie k s ~u =
  let n = k.n and vw = s.vw and value = s.value and row_at = s.row_at in
  value.(0) <- u;
  for i = 1 to k.t_nodes - 1 do
    let idx = (value.(k.t_parent.(i)) * k.no) + s.cops.(k.t_proc.(i)) in
    if s.track then s.cur_cells.(idx lsr 5) <- s.cur_cells.(idx lsr 5) lor (1 lsl (idx land 31));
    value.(i) <- k.next.(idx);
    row_at.(i) <- (k.t_key.(i) + (k.resp.(idx) * n)) * vw
  done;
  let sub = s.sub and acc = s.acc in
  for i = k.t_nodes - 1 downto 1 do
    let v = value.(i) in
    let b = i * vw and vword = v / 63 and vbit = 1 lsl (v mod 63) in
    let row = row_at.(i) and pb = k.t_parent.(i) * vw in
    for w = 0 to vw - 1 do
      let x = if w = vword then sub.(b + w) lor vbit else sub.(b + w) in
      sub.(b + w) <- 0;
      acc.(row + w) <- acc.(row + w) lor x;
      sub.(pb + w) <- sub.(pb + w) lor x
    done
  done;
  let clash = Array.make n 0 in
  for i = 1 to k.t_nodes - 1 do
    let row = row_at.(i) and f = k.t_first.(i) in
    let key = row - (f * vw) in
    for w = 0 to vw - 1 do
      let x = acc.(row + w) in
      if x <> 0 then begin
        acc.(row + w) <- 0;
        for f' = 0 to n - 1 do
          if x land acc.(key + (f' * vw) + w) <> 0 then begin
            clash.(f) <- clash.(f) lor (1 lsl f');
            clash.(f') <- clash.(f') lor (1 lsl f)
          end
        done
      end
    done
  done;
  clash

(* ------------------------------------------------------------------ *)
(* Classification: one evaluation's masks against one partition.

   Recording (reference [check_recording_fast]): every final value must
   be reached only by first-processes of a single team, and if a
   nonempty schedule ends at the initial value [u], the *other* team
   must be a singleton.

   Both read the teams as first-process bitmasks [t0]/[t1] in the
   folded arrangement's process names (the partition's own bits renamed
   through [rho]); team sizes do not change under renaming.  Both are
   symmetric in the two teams. *)

let classify_rec k (masks : int array) ~t0 ~t1 ~u =
  let ok = ref true in
  let v = ref 0 in
  while !ok && !v < k.nv do
    let m = masks.(!v) in
    if m land t0 <> 0 && m land t1 <> 0 then ok := false;
    incr v
  done;
  let singleton t = t land (t - 1) = 0 in
  !ok
  && (masks.(u) land t0 = 0 || singleton t1)
  && (masks.(u) land t1 = 0 || singleton t0)

(* Discerning (reference [check_discerning_fast]): every
   (process, response, final value) triple must be produced only by
   schedules whose first process is on a single team — no T_0 first
   process clashes with a T_1 one. *)
let classify_disc (clash : int array) ~t0 ~t1 =
  let ok = ref true and b = ref t0 and f = ref 0 in
  while !ok && !b <> 0 do
    if !b land 1 = 1 && clash.(!f) land t1 <> 0 then ok := false;
    b := !b lsr 1;
    incr f
  done;
  !ok

let classify k cond masks ~t0 ~t1 ~u =
  match cond with
  | Recording -> classify_rec k masks ~t0 ~t1 ~u
  | Discerning -> classify_disc masks ~t0 ~t1

(* Does some team split of the multiset in [s.cops] witness the
   condition on its [masks]?  Every split of the multiset into two
   nonempty sub-multisets is a candidate (put the first sub-multiset on
   processes [0 ..], the rest after), and swapping two slots that hold
   the same op maps the fold onto itself, so all splits with the same
   per-op counts share a verdict.  One representative each suffices: T_0
   takes a prefix of every op's run of slots ([t0] has no bit [i] of a
   tied slot without bit [i - 1]).  The teams are interchangeable too,
   so T_0 always takes slot 0 ([t0] odd). *)
let some_split_holds k s cond masks ~u =
  let n = k.n and cops = s.cops in
  let full = (1 lsl n) - 1 in
  let tied = ref 0 in
  for i = 1 to n - 1 do
    if cops.(i) = cops.(i - 1) then tied := !tied lor (1 lsl i)
  done;
  let tied = !tied in
  let ok = ref false and t0 = ref 1 in
  while (not !ok) && !t0 < full do
    let t = !t0 in
    if t land tied land lnot (t lsl 1) = 0 then
      ok := classify k cond masks ~t0:t ~t1:(full lxor t) ~u;
    t0 := t + 2
  done;
  !ok

let add_opt c n = match c with Some c when n <> 0 -> Obs.Metrics.Counter.add c n | _ -> ()

(* Move the scratch's tallies into the kernel's counters. *)
let flush k s =
  add_opt k.c_evals s.n_evals;
  add_opt k.c_pruned s.n_pruned;
  add_opt k.c_skipped s.n_skipped;
  add_opt k.c_reused s.n_reused;
  s.n_evals <- 0;
  s.n_pruned <- 0;
  s.n_skipped <- 0;
  s.n_reused <- 0

(* The valid entry of multiset rank [r] under (cond, u), the multiset
   itself in [s.cops]: a memo hit, or a fold of the trie over the
   current (u, cops) recording the cells it reads while tracking.  The
   slot's record is made at its first fold.  A fold that reproduces the
   entry's masks keeps its verdict (verdicts depend only on the masks;
   the read-cell set may still differ). *)
let lookup k s cond ~u r =
  let row_index = row_of k cond ~u in
  if Array.length s.rows.(row_index) = 0 then
    s.rows.(row_index) <- Array.make k.nms dummy_entry;
  let row = s.rows.(row_index) in
  if row.(r) == dummy_entry then
    row.(r) <- { masks = [||]; cells = [||]; valid = false; verdict = Unknown };
  let e = row.(r) in
  if e.valid then begin
    s.n_pruned <- s.n_pruned + 1;
    if s.track then s.n_reused <- s.n_reused + 1
  end
  else begin
    s.n_evals <- s.n_evals + 1;
    if s.track then Array.fill s.cur_cells 0 s.cell_words 0;
    let masks =
      match cond with
      | Recording ->
          eval_rec_trie k s ~u;
          Array.sub s.rec_mask 0 k.nv
      | Discerning -> eval_disc_trie k s ~u
    in
    if e.verdict <> Unknown && e.masks <> masks then e.verdict <- Unknown;
    e.masks <- masks;
    e.cells <- (if s.track then Array.copy s.cur_cells else [||]);
    e.valid <- true
  end;
  e

(* The lex rank of the sorted multiset in [s.cops]. *)
let cops_rank k s =
  let r = ref 0 in
  for pos = 0 to k.n - 1 do
    r := !r + k.rank_step.((pos * k.no) + s.cops.(pos))
  done;
  !r

(* Decide the candidate currently materialized in [s.ops] against
   [part], evaluating or reusing the (u, cops) entry. *)
let check_current k s cond ~u part =
  canonicalize k s;
  let e = lookup k s cond ~u (cops_rank k s) in
  let t0 = rename s part.t0bits in
  classify k cond e.masks ~t0 ~t1:(((1 lsl k.n) - 1) lxor t0) ~u

(* ------------------------------------------------------------------ *)
(* Retargeting and stepping: the same compiled kernel and scratch, a new
   table of the same shape.  Everything shape-dependent (trie,
   partitions, ranks, buffer sizes) carries over; the tables are
   overwritten in place. *)

(* The part both share: check the shape, flush the tallies into the
   old counters and bind the new ones. *)
let rebind ?obs fn k s (ty : Objtype.t) =
  if
    ty.Objtype.num_values <> k.nv || ty.Objtype.num_ops <> k.no
    || ty.Objtype.num_responses <> k.nr
  then
    invalid_arg
      (Printf.sprintf "Kernel.%s: shape %dx%dx%d, kernel compiled for %dx%dx%d" fn
         ty.Objtype.num_values ty.Objtype.num_ops ty.Objtype.num_responses k.nv k.no k.nr);
  k.ty <- ty;
  flush k s;
  match (k.obs, obs) with
  | Some a, Some b when a == b -> ()
  | None, None -> ()
  | _ -> bind_counters k obs

(* Retarget puts the scratch back in its freshly-made state — the
   allocated rows refilled with [dummy_entry] (and kept), tracking off,
   hints reset — at a cost bounded by the rows the previous table's
   decisions touched. *)
let retarget ?obs k s ty =
  rebind ?obs "retarget" k s ty;
  fill_tables ty ~no:k.no k.next k.resp;
  Array.iter (fun row -> Array.fill row 0 (Array.length row) dummy_entry) s.rows;
  s.track <- false;
  s.hint.(0) <- -1;
  s.hint.(1) <- -1

(* Step keeps every entry the new table cannot change.  A valid entry's
   [cells] are the cells its fold read, so a fold on a table that agrees
   with the old one on those cells reads the same cells in the same
   order and yields the same masks — and the verdict is a function of
   the masks.  One pass over the allocated rows drops the valid entries
   whose [cells] meet the changed cells, and never an entry for a cell
   it no longer reads; an untracked scratch has no [cells] to consult,
   so its first step drops every valid entry and switches tracking on.
   The hints stay: [exists] re-verifies them before trusting them. *)
let step ?obs k s ty =
  rebind ?obs "step" k s ty;
  let changed = Array.make s.cell_words 0 and any = ref false in
  for v = 0 to k.nv - 1 do
    for o = 0 to k.no - 1 do
      let r, v' = ty.Objtype.delta v o and c = (v * k.no) + o in
      if k.resp.(c) <> r || k.next.(c) <> v' then begin
        k.resp.(c) <- r;
        k.next.(c) <- v';
        changed.(c lsr 5) <- changed.(c lsr 5) lor (1 lsl (c land 31));
        any := true
      end
    done
  done;
  let all = not s.track and dropped = ref 0 in
  s.track <- true;
  if all || !any then
    for ri = 0 to Array.length s.rows - 1 do
      let row = s.rows.(ri) in
      for j = 0 to Array.length row - 1 do
        let e = row.(j) in
        if e.valid then begin
          let w = ref 0 in
          while (not all) && !w < s.cell_words && e.cells.(!w) land changed.(!w) = 0 do
            incr w
          done;
          if all || !w < s.cell_words then begin
            e.valid <- false;
            incr dropped
          end
        end
      done
    done;
  add_opt k.c_invalidated !dropped

let to_objtype ?name k =
  let name = match name with Some n -> n | None -> k.ty.Objtype.name in
  let next = Array.copy k.next and resp = Array.copy k.resp in
  Objtype.make ~name ~num_values:k.nv ~num_ops:k.no ~num_responses:k.nr (fun v o ->
      (resp.((v * k.no) + o), next.((v * k.no) + o)))

(* ------------------------------------------------------------------ *)
(* Ranked enumeration.  Rank order matches the reference
   [Decide.candidates] exactly: initial value major, then partitions in
   mask order, then T_0's sorted assignment, then T_1's. *)

(* Hand a team's sorted assignment [sorted] to its members [procs]. *)
let fill_team ops procs sorted =
  for j = 0 to Array.length procs - 1 do
    ops.(procs.(j)) <- sorted.(j)
  done

let fill_ops s part =
  fill_team s.ops part.procs0 s.ops0;
  fill_team s.ops part.procs1 s.ops1

(* Index of the partition block holding offset [rem] of a value block. *)
let part_index k rem =
  let pi = ref 0 in
  while k.parts.(!pi).start + k.parts.(!pi).block <= rem do
    incr pi
  done;
  !pi

let candidate k rank =
  if rank < 0 || rank >= k.total then invalid_arg "Kernel.candidate: rank out of range";
  let u = rank / k.per_u and rem = rank mod k.per_u in
  let part = k.parts.(part_index k rem) in
  let i = rem - part.start in
  let ops0 = Array.make (max part.size0 1) 0 and ops1 = Array.make (max part.size1 1) 0 in
  unrank_sorted ~m:k.no ~k:part.size0 (i / part.count1) ops0;
  unrank_sorted ~m:k.no ~k:part.size1 (i mod part.count1) ops1;
  let ops = Array.make k.n 0 in
  fill_team ops part.procs0 ops0;
  fill_team ops part.procs1 ops1;
  (u, Array.copy part.team, ops)

exception Stopped

let search_range k s cond ~lo ~hi ~stop =
  let hi = min hi k.total and lo = max lo 0 in
  if lo >= hi then (None, 0)
  else begin
    let nparts = Array.length k.parts in
    let checked = ref 0 and witness = ref None in
    let rank = ref lo in
    let u = ref (lo / k.per_u) in
    let rem = ref (lo mod k.per_u) in
    (try
       while !witness = None && !rank < hi do
         let pi = ref (part_index k !rem) in
         while !witness = None && !rank < hi && !pi < nparts do
           let part = k.parts.(!pi) in
           let i = !rem - part.start in
           unrank_sorted ~m:k.no ~k:part.size0 (i / part.count1) s.ops0;
           unrank_sorted ~m:k.no ~k:part.size1 (i mod part.count1) s.ops1;
           fill_ops s part;
           let more = ref true in
           while !witness = None && !rank < hi && !more do
             if stop !rank then raise Stopped;
             incr checked;
             if check_current k s cond ~u:!u part then witness := Some !rank
             else begin
               incr rank;
               if next_sorted s.ops1 part.size1 k.no then fill_team s.ops part.procs1 s.ops1
               else if next_sorted s.ops0 part.size0 k.no then begin
                 Array.fill s.ops1 0 part.size1 0;
                 fill_ops s part
               end
               else more := false
             end
           done;
           if !witness = None then begin
             rem := part.start + part.block;
             incr pi
           end
         done;
         if !witness = None then begin
           incr u;
           rem := 0
         end
       done
     with Stopped -> ());
    flush k s;
    (!witness, !checked)
  end

(* Existence of a witness, any rank — decided over the quotient of the
   candidate space by process renaming: each (u, sorted op multiset) is
   one slot, folded once, whose verdict ([some_split_holds]) is kept on
   its entry.  A scan is then one validity check per slot whose entry
   survived the steps since, and the previous witnessing slot is
   re-verified first: a one-cell step rarely breaks it, so on the
   synthesizer's hot path an existence query is usually one probe. *)
let entry_holds k s cond ~u r =
  let e = lookup k s cond ~u r in
  match e.verdict with
  | Holds -> true
  | Fails -> false
  | Unknown ->
      let ok = some_split_holds k s cond e.masks ~u in
      e.verdict <- (if ok then Holds else Fails);
      ok

(* Recording implies discerning candidate by candidate (a final value
   reached from one team only makes every triple holding it one-team),
   so a recording entry whose discerning twin — the same (u, multiset)
   under Discerning — is valid and refuted fails too. *)
let disc_refutes k s cond ~u r =
  cond = Recording
  &&
  let d = entry k s Discerning ~u r in
  d.valid && d.verdict = Fails

(* [s.sub_rank] for [k] (see the field). *)
let sub_ranks k =
  let n = k.n and no = k.no in
  let tab = Array.make (k.nms * no) (-1) in
  let ms = Array.make n 0 and sub = Array.make (n - 1) 0 in
  for r = 0 to k.nms - 1 do
    for j = 0 to n - 1 do
      if j = 0 || ms.(j) <> ms.(j - 1) then begin
        Array.blit ms 0 sub 0 j;
        Array.blit ms (j + 1) sub j (n - 1 - j);
        tab.((r * no) + ms.(j)) <- rank_sorted ~m:no ~k:(n - 1) sub
      end
    done;
    ignore (next_sorted ms n no)
  done;
  tab

(* The ladder.  A split witnessing the entry (u, M) at [n] processes has
   at least [n - 1] of them on a team of size >= 2, and dropping any one
   of those leaves a split of [M] less its op that witnesses at [n - 1]:
   both teams stay nonempty, the schedules of the others are a subset of
   the old ones, and the recording hiding clause still holds (the other
   team is unchanged, and the shrunk team had no schedule of the other's
   ending at [u]).  So the entry can hold only if at most one of the [n]
   slots of [M], counted with multiplicity, leaves a sub-entry that
   fails on [below] ([kb], [sb]), which decides and keeps it lazily.
   [r] is [M]'s lex rank, [M] itself is in [s.cops]. *)
let rec ladder_open k s (kb, sb) cond ~u r =
  let n = k.n and cops = s.cops and sub = sb.cops in
  let misses = ref 0 and j = ref 0 in
  while !misses <= 1 && !j < n do
    let o = cops.(!j) and stop = ref (!j + 1) in
    while !stop < n && cops.(!stop) = o do
      incr stop
    done;
    Array.blit cops 0 sub 0 !j;
    Array.blit cops (!j + 1) sub !j (n - 1 - !j);
    if not (slot_holds kb sb cond ~u s.sub_rank.((r * k.no) + o)) then
      misses := !misses + (!stop - !j);
    j := !stop
  done;
  !misses <= 1

(* The verdict of multiset rank [r] under (cond, u), the multiset in
   [s.cops]: a valid entry answers; otherwise the entry is passed
   without a fold (counted as skipped) when its discerning twin or the
   ladder refutes it, and decided by [entry_holds] when neither does. *)
and slot_holds ?below k s cond ~u r =
  if (entry k s cond ~u r).valid then entry_holds k s cond ~u r
  else if
    disc_refutes k s cond ~u r
    || match below with Some b -> not (ladder_open k s b cond ~u r) | None -> false
  then begin
    s.n_skipped <- s.n_skipped + 1;
    false
  end
  else entry_holds k s cond ~u r

let exists ?below k s cond =
  (match below with
  | None -> ()
  | Some (kb, _) ->
      if kb.n <> k.n - 1 then
        invalid_arg
          (Printf.sprintf "Kernel.exists: below is compiled at n = %d, expected %d" kb.n (k.n - 1));
      let same (a : int array) b =
        let i = ref 0 in
        while !i < Array.length a && a.(!i) = b.(!i) do
          incr i
        done;
        !i = Array.length a
      in
      if not (same kb.next k.next && same kb.resp k.resp) then
        invalid_arg "Kernel.exists: below decides a different table";
      if Array.length s.sub_rank = 0 then s.sub_rank <- sub_ranks k);
  let slot = match cond with Recording -> 0 | Discerning -> 1 in
  let hinted () =
    let h = s.hint.(slot) in
    h >= 0
    && begin
         unrank_sorted ~m:k.no ~k:k.n (h mod k.nms) s.cops;
         entry_holds k s cond ~u:(h / k.nms) (h mod k.nms)
       end
  in
  (* Every (u, multiset) entry in order, multisets stepped in lex order
     through [s.cops]. *)
  let scan () =
    let witness = ref (-1) and u = ref 0 in
    while !witness < 0 && !u < k.nv do
      Array.fill s.cops 0 k.n 0;
      let r = ref 0 and more = ref true in
      while !witness < 0 && !more do
        if slot_holds ?below k s cond ~u:!u !r then witness := (!u * k.nms) + !r
        else begin
          incr r;
          more := next_sorted s.cops k.n k.no
        end
      done;
      incr u
    done;
    s.hint.(slot) <- !witness;
    !witness >= 0
  in
  let found = hinted () || scan () in
  flush k s;
  Option.iter (fun (kb, sb) -> flush kb sb) below;
  found

(* ------------------------------------------------------------------ *)
(* Single-candidate check, for the fixed-partition search: a throwaway
   partition record (rank fields unused) and the scratch's entries
   reused across calls. *)

let check k s cond ~u ~team ~ops =
  if Array.length team <> k.n || Array.length ops <> k.n then
    invalid_arg "Kernel.check: team/ops arity mismatch";
  Array.blit ops 0 s.ops 0 k.n;
  let ok = check_current k s cond ~u (make_part ~no:k.no ~start:0 team) in
  flush k s;
  ok

(* ------------------------------------------------------------------ *)
(* Audit: refold every valid entry on a fresh scratch of the current
   tables and compare. *)

let stale_entries k s =
  let t = scratch k in
  t.track <- s.track;
  let stale = ref 0 in
  Array.iteri
    (fun ri row ->
      let cond = if ri < k.nv then Recording else Discerning and u = ri mod k.nv in
      Array.iteri
        (fun r e ->
          if e.valid then begin
            unrank_sorted ~m:k.no ~k:k.n r t.cops;
            Array.fill t.cur_cells 0 t.cell_words 0;
            let masks =
              match cond with
              | Recording ->
                  eval_rec_trie k t ~u;
                  Array.sub t.rec_mask 0 k.nv
              | Discerning -> eval_disc_trie k t ~u
            in
            if
              masks <> e.masks
              || (s.track && e.cells <> t.cur_cells)
              || (e.verdict <> Unknown && (e.verdict = Holds) <> some_split_holds k t cond masks ~u)
            then incr stale
          end)
        row)
    s.rows;
  !stale
