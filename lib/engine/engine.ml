let default_jobs () =
  match Sys.getenv_opt "RCN_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ ->
          invalid_arg
            (Printf.sprintf "RCN_JOBS=%S: expected a positive integer" s))
  | None -> min 8 (Domain.recommended_domain_count ())

let resolve_jobs = function
  | 0 -> default_jobs ()
  | n when n > 0 -> n
  | n -> invalid_arg (Printf.sprintf "Engine.resolve_jobs: %d" n)

(* The config's [deadline] is a relative wall-clock budget (a wire value
   has no clock origin); resolve it into the absolute monotonic timestamp
   the sweeps poll exactly once, at the public entry point. *)
let resolve_deadline (config : Api.Config.t) =
  Option.map Obs.Clock.after config.Api.Config.deadline

(* The one deadline predicate: absolute monotonic timestamps from
   [Obs.Clock], immune to NTP steps. *)
let expired = Obs.Clock.expired

module Cache = struct
  type stats = {
    sched_hits : int;
    sched_misses : int;
    probes : int;
    hits : int;
    misses : int;
    expired : int;
  }

  (* Counters live in an [Obs.Metrics] registry (the caller's, when the
     cache is created with [?obs]) so the CLI stats export and
     [Cache.stats] read the same numbers — one counter implementation. *)
  type counters = {
    c_sched_hits : Obs.Metrics.Counter.t;
    c_sched_misses : Obs.Metrics.Counter.t;
    c_probes : Obs.Metrics.Counter.t;
    c_hits : Obs.Metrics.Counter.t;
    c_misses : Obs.Metrics.Counter.t;
    c_expired : Obs.Metrics.Counter.t;
  }

  type t = {
    mutex : Mutex.t;
    scheds : (int, Sched.proc list list) Hashtbl.t;
    outcomes : (string * Decide.condition * int, Certificate.t option) Hashtbl.t;
    c : counters;
  }

  let create ?obs () =
    let m = match obs with Some o -> Obs.metrics o | None -> Obs.Metrics.create () in
    {
      mutex = Mutex.create ();
      scheds = Hashtbl.create 8;
      outcomes = Hashtbl.create 64;
      c =
        {
          c_sched_hits = Obs.Metrics.counter m "engine.cache.sched_hits";
          c_sched_misses = Obs.Metrics.counter m "engine.cache.sched_misses";
          c_probes = Obs.Metrics.counter m "engine.cache.probes";
          c_hits = Obs.Metrics.counter m "engine.cache.hits";
          c_misses = Obs.Metrics.counter m "engine.cache.misses";
          c_expired = Obs.Metrics.counter m "engine.cache.expired";
        };
    }

  let stats t =
    {
      sched_hits = Obs.Metrics.Counter.value t.c.c_sched_hits;
      sched_misses = Obs.Metrics.Counter.value t.c.c_sched_misses;
      probes = Obs.Metrics.Counter.value t.c.c_probes;
      hits = Obs.Metrics.Counter.value t.c.c_hits;
      misses = Obs.Metrics.Counter.value t.c.c_misses;
      expired = Obs.Metrics.Counter.value t.c.c_expired;
    }

  let scheds t ~n =
    let hit, s =
      Mutex.protect t.mutex (fun () ->
          match Hashtbl.find_opt t.scheds n with
          | Some s -> (true, s)
          | None ->
              let s = Sched.at_most_once ~nprocs:n in
              Hashtbl.add t.scheds n s;
              (false, s))
    in
    Obs.Metrics.Counter.incr (if hit then t.c.c_sched_hits else t.c.c_sched_misses);
    s

  (* Every probe is eventually accounted to exactly one of hits / misses /
     expired, so the three sum to [probes] once no search is in flight:
     a probe that finds the key is a hit; one that leads to a completed
     sweep is a miss if its publish inserted the outcome and a (late) hit
     if another worker published the same key first — publishing never
     double-counts a miss; and a probe whose sweep the deadline cut is
     recorded by [record_expired]. *)
  let probe t ~key =
    Obs.Metrics.Counter.incr t.c.c_probes;
    match Mutex.protect t.mutex (fun () -> Hashtbl.find_opt t.outcomes key) with
    | Some outcome ->
        Obs.Metrics.Counter.incr t.c.c_hits;
        Some outcome
    | None -> None

  let publish t ~key outcome =
    let inserted =
      Mutex.protect t.mutex (fun () ->
          if Hashtbl.mem t.outcomes key then false
          else begin
            Hashtbl.add t.outcomes key outcome;
            true
          end)
    in
    Obs.Metrics.Counter.incr (if inserted then t.c.c_misses else t.c.c_hits)

  let record_expired t = Obs.Metrics.Counter.incr t.c.c_expired
end

type search_outcome =
  | Found of Certificate.t
  | Refuted
  | Expired

let condition_name = function
  | Decide.Discerning -> "discerning"
  | Decide.Recording -> "recording"

(* Resolve the candidate-throughput counter once per search; [None] keeps
   the uninstrumented paths allocation- and lookup-free. *)
let candidates_counter obs = Option.map (fun o -> Obs.counter o "engine.candidates") obs

let count_checked counter n =
  if n > 0 then Option.iter (fun c -> Obs.Metrics.Counter.add c n) counter

(* Supervision plumbing around one sweep: [quarantine_fence] tells whether
   the sweep poisoned any chunk (so a would-be [Refuted] must honestly
   degrade — a quarantined range was never checked), and [with_watchdog]
   is the cancel-and-retry driver for stalled workers: each watchdog trip
   cancels the level and reruns it with a halved chunk size (sweeps are
   idempotent, so rerunning only re-covers unfinished work), and the final
   round runs without the watchdog so a genuinely slow level still
   completes instead of degrading. *)
let quarantine_fence supervisor =
  match supervisor with
  | None -> fun () -> false
  | Some sup ->
      let q0 = Supervise.quarantine_count sup in
      fun () -> Supervise.quarantine_count sup > q0

let watchdog_rounds = 3

let with_watchdog ?supervisor ~chunk sweep =
  match Option.bind supervisor Supervise.watchdog with
  | None -> sweep ~chunk ~wd_stop:(fun () -> false)
  | Some wd ->
      let rec go round chunk =
        let fired = Atomic.make false in
        let wd_stop =
          if round >= watchdog_rounds then fun () -> false
          else
            fun () ->
              Atomic.get fired
              || Supervise.Watchdog.stalled wd
                 && begin
                      if Atomic.compare_and_set fired false true then
                        Supervise.Watchdog.trip wd;
                      true
                    end
        in
        let r = sweep ~chunk ~wd_stop in
        if Atomic.get fired then go (round + 1) (max 1 (chunk / 2)) else r
      in
      go 1 chunk

let default_chunk pool total = max 1 (total / (8 * Pool.jobs pool))

let search_label condition t ~n =
  Printf.sprintf "search %s %s n=%d" t.Objtype.name (condition_name condition) n

(* The one deterministic first-witness search: domains claim ranges of
   the rank space [\[0, total)] and race to lower [best], the minimal
   witnessing rank found so far; a range past [best] stops early.  Every
   rank below the final minimum has been checked and refuted, so the
   minimum is the sequential first witness.  [check_range] decides one
   claimed range (polling [stop] per candidate) and [candidate] rebuilds a
   rank's [(u, team, ops)].  With a [deadline], every worker polls the
   clock per candidate and abandons the sweep on expiry — a found witness
   is still genuine, but an expired sweep with no witness proves nothing
   and reports [Expired].  At one job without a supervisor the whole
   range is one chunk, so a kernel search keeps one scratch and memo. *)
let race ?obs ?deadline ?supervisor pool condition t ~n ~total ~check_range ~candidate =
  let counter = candidates_counter obs in
  let chunk =
    if Pool.jobs pool = 1 && Option.is_none supervisor then max 1 total
    else default_chunk pool total
  in
  with_watchdog ?supervisor ~chunk @@ fun ~chunk ~wd_stop ->
  let tainted = quarantine_fence supervisor in
  let best = Atomic.make max_int in
  let timed_out = Atomic.make false in
  let completed =
    (* the label only names a chunk in the supervisor's ledger *)
    Pool.parallel_for_until pool ~chunk ?supervisor
      ?label:(Option.map (fun _ -> search_label condition t ~n) supervisor)
      ~should_stop:(fun () -> Atomic.get timed_out || wd_stop ())
      total
      (fun lo hi ->
        let stop rank =
          if expired deadline then begin
            Atomic.set timed_out true;
            true
          end
          else rank >= Atomic.get best
        in
        let witness, checked = check_range ~lo ~hi ~stop in
        count_checked counter checked;
        Option.iter
          (fun r ->
            let rec lower () =
              let b = Atomic.get best in
              if r < b && not (Atomic.compare_and_set best b r) then lower ()
            in
            lower ())
          witness)
  in
  match Atomic.get best with
  | b when b = max_int ->
      if Atomic.get timed_out || not completed || tainted () then Expired else Refuted
  | b ->
      let u, team, ops = candidate b in
      Found (Certificate.make ~objtype:t ~initial:u ~team ~ops)

(* The reference checker: [Decide.check] over the materialized
   [Decide.candidates] array, so the reference path enumerates
   independently of the kernel. *)
let check_candidates condition t scheds cands ~lo ~hi ~stop =
  let rec go i checked =
    if i >= hi || stop i then (None, checked)
    else
      let u, team, ops = cands.(i) in
      if Decide.check condition t scheds ~u ~team ~ops then (Some i, checked + 1)
      else go (i + 1) (checked + 1)
  in
  go lo 0

(* Supervised queries take the chunked fan-out — at [jobs = 1] it
   degenerates to the pool's supervised sequential drain — so retry,
   quarantine and watchdog semantics are identical at every job count.
   The kernel is compiled on the submitting domain, so workers share its
   (immutable) tables and trie; each chunk owns a private scratch. *)
let search_uncached ?scheds ?obs ?deadline ?supervisor ?(kernel = Kernel.Trie) pool
    condition t ~n =
  if expired deadline then Expired
  else
    match kernel with
    | Kernel.Reference ->
        let scheds =
          match scheds with Some s -> s | None -> Sched.at_most_once ~nprocs:n
        in
        let cands = Array.of_seq (Decide.candidates t ~n) in
        race ?obs ?deadline ?supervisor pool condition t ~n ~total:(Array.length cands)
          ~check_range:(check_candidates condition t scheds cands)
          ~candidate:(Array.get cands)
    | Kernel.Trie ->
        let k = Kernel.compile ?obs t ~n in
        race ?obs ?deadline ?supervisor pool condition t ~n ~total:(Kernel.total k)
          ~check_range:(fun ~lo ~hi ~stop ->
            Kernel.search_range k (Kernel.scratch k) condition ~lo ~hi ~stop)
          ~candidate:(Kernel.candidate k)

let outcome_of_option = function Some c -> Found c | None -> Refuted

(* Expired and quarantine-degraded sweeps are never published to the
   cache: they are interrupted computations, not results — but their
   probes are still accounted, so the stats invariant holds.  The
   schedule memo only feeds the reference path; the kernel shares its
   compiled tries internally. *)
let search_within_abs ?cache ?obs ?deadline ?supervisor ?kernel pool condition t ~n =
  match cache with
  | None -> search_uncached ?obs ?deadline ?supervisor ?kernel pool condition t ~n
  | Some c -> (
      let key = (Objtype.to_spec_string t, condition, n) in
      match Cache.probe c ~key with
      | Some outcome -> outcome_of_option outcome
      | None -> (
          let scheds =
            if kernel = Some Kernel.Reference then Some (Cache.scheds c ~n)
            else None
          in
          match
            search_uncached ?scheds ?obs ?deadline ?supervisor ?kernel pool condition t
              ~n
          with
          | Found cert ->
              Cache.publish c ~key (Some cert);
              Found cert
          | Refuted ->
              Cache.publish c ~key None;
              Refuted
          | Expired ->
              Cache.record_expired c;
              Expired))

let search_within ?cache ?obs ?supervisor ~(config : Api.Config.t) pool condition t ~n =
  search_within_abs ?cache ?obs ?deadline:(resolve_deadline config) ?supervisor
    ~kernel:config.Api.Config.kernel pool condition t ~n

(* Only [config.kernel] applies here: a [search] promises a complete
   verdict, which a deadline or quarantine hole could not honor. *)
let search ?cache ?obs ~(config : Api.Config.t) pool condition t ~n =
  match
    search_within_abs ?cache ?obs ~kernel:config.Api.Config.kernel pool condition t ~n
  with
  | Found c -> Some c
  | Refuted -> None
  | Expired -> assert false (* no deadline and no supervisor were given *)

let scan ?cache ?obs ?(cap = Numbers.default_cap) ?deadline ?supervisor ?kernel pool
    condition t =
  if cap < 2 then invalid_arg "Engine: cap must be at least 2";
  let rec loop n best =
    if n > cap then
      { Analysis.value = cap; status = Analysis.At_least; certificate = best }
    else
      let outcome =
        Obs.with_span ?obs "engine.level"
          ~attrs:
            [
              ("type", t.Objtype.name);
              ("condition", condition_name condition);
              ("n", string_of_int n);
            ]
          (fun () ->
            search_within_abs ?cache ?obs ?deadline ?supervisor ?kernel pool condition t
              ~n)
      in
      match outcome with
      | Found c -> loop (n + 1) (Some c)
      | Refuted -> { Analysis.value = n - 1; status = Analysis.Exact; certificate = best }
      | Expired ->
          (* The deadline cut the scan short — or quarantined chunks left
             holes in the sweep: every level up to [n - 1] was
             established, level [n] was not refuted — an honest lower
             bound, never a fabricated [Exact]. *)
          { Analysis.value = n - 1; status = Analysis.At_least; certificate = best }
  in
  loop 2 None

(* [analyze_abs] takes the already-resolved deadline so a batch
   ([analyze_all]) shares one budget instead of restarting it per type. *)
let analyze_abs ?cache ?obs ?deadline ?supervisor ~cap ~kernel pool t =
  Obs.with_span ?obs "engine.analyze" ~attrs:[ ("type", t.Objtype.name) ] @@ fun () ->
  let started = Obs.Clock.now () in
  let scan condition = scan ?cache ?obs ~cap ?deadline ?supervisor ~kernel pool condition t in
  let discerning = scan Decide.Discerning in
  let recording = scan Decide.Recording in
  {
    Analysis.type_name = t.Objtype.name;
    readable = Objtype.is_readable t;
    discerning;
    recording;
    elapsed = Obs.Clock.now () -. started;
  }

let analyze ?cache ?obs ?supervisor ~(config : Api.Config.t) pool t =
  analyze_abs ?cache ?obs ?deadline:(resolve_deadline config) ?supervisor
    ~cap:config.Api.Config.cap ~kernel:config.Api.Config.kernel pool t

let analyze_all ?cache ?obs ?supervisor ~(config : Api.Config.t) pool types =
  let cache = match cache with Some c -> c | None -> Cache.create ?obs () in
  let deadline = resolve_deadline config in
  List.map
    (analyze_abs ~cache ?obs ?deadline ?supervisor ~cap:config.Api.Config.cap
       ~kernel:config.Api.Config.kernel pool)
    types

(* Per-domain census kernels: slot [n] holds one kernel and scratch
   compiled for process count [n], carried to every table this domain
   decides at that [n] (recompiled only when a table's shape differs).
   Slots are domain-local, so a kernel is only ever touched by the
   domain that owns it — the confinement [Kernel.retarget] and
   [Kernel.step] ask for — provided no two systhreads of that domain
   decide at once (see the interface).  A slot remembers the chain it
   last decided in: within that chain it steps to the next table,
   keeping what the table delta spares; the first time a chain uses it,
   it is retargeted, so what a chain counts depends only on its own
   tables. *)
type census_slot = {
  shape : int * int * int;
  k : Kernel.t;
  s : Kernel.scratch;
  mutable chain : int; (* 0: in no chain *)
}

type chain = int

let chains = Atomic.make 0
let census_chain () = 1 + Atomic.fetch_and_add chains 1

let census_slots : census_slot option array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let census_kernel ?obs ?(chain = 0) (ty : Objtype.t) ~n =
  let slots = Domain.DLS.get census_slots in
  if Array.length !slots <= n then
    slots := Array.init (n + 1) (fun i -> if i < Array.length !slots then !slots.(i) else None);
  let shape = (ty.Objtype.num_values, ty.Objtype.num_ops, ty.Objtype.num_responses) in
  match !slots.(n) with
  | Some slot when slot.shape = shape ->
      if chain <> 0 && slot.chain = chain then Kernel.step ?obs slot.k slot.s ty
      else begin
        Kernel.retarget ?obs slot.k slot.s ty;
        slot.chain <- chain
      end;
      slot
  | _ ->
      let k = Kernel.compile ?obs ty ~n in
      let slot = { shape; k; s = Kernel.scratch k; chain } in
      !slots.(n) <- Some slot;
      slot

(* Truncated levels of one census table, [Census.levels]' verdicts.  The
   reference path replays the shared schedule sets, every rung of both
   conditions unpruned: it is the independent decider the compiled path
   is checked against.  The compiled path runs one ladder on this
   domain's reused kernels: each per-[n] slot is retargeted to [ty] at
   most once, the first time a rung needs it, and both conditions share
   it.  Rung [n >= 3] decides with [~below] the [n - 1] slot, which the
   rung below has already retargeted and partly decided, and recording
   is decided only up to the discerning level [d] (recording implies
   discerning), on the scratches that keep the discerning verdicts.
   Per-type outcomes are not cached: census tables are pairwise
   distinct, so an outcome memo would only grow. *)
let census_levels ?obs ?chain cache ~kernel ~cap ty =
  let rec climb holds ~top n =
    if n > top then top else if holds n then climb holds ~top (n + 1) else n - 1
  in
  match kernel with
  | Kernel.Reference ->
      let holds condition n =
        let scheds = Cache.scheds cache ~n in
        Option.is_some (Decide.search ~scheds ~mode:Kernel.Reference condition ty ~n)
      in
      (climb (holds Decide.Discerning) ~top:cap 2, climb (holds Decide.Recording) ~top:cap 2)
  | Kernel.Trie ->
      let slots = Array.make (cap + 1) None in
      let slot n =
        match slots.(n) with
        | Some sl -> sl
        | None ->
            let sl = census_kernel ?obs ?chain ty ~n in
            slots.(n) <- Some sl;
            sl
      in
      let holds condition n =
        let sl = slot n in
        let below =
          if n > 2 then
            let b = slot (n - 1) in
            Some (b.k, b.s)
          else None
        in
        Kernel.exists ?below sl.k sl.s condition
      in
      let d = climb (holds Decide.Discerning) ~top:cap 2 in
      (d, climb (holds Decide.Recording) ~top:d 2)

type census_ranks = {
  ranks : int;
  sym_classes : int option;
  genome : int -> Synth.genome;
  weight : lo:int -> hi:int -> int;
}

(* Three rank spaces, one sweep.  Exhaustive: rank [i] is table index
   [i].  Sampled: rank [i] is the [i]-th [Synth.random_genome] draw of
   [Random.State.make [| seed; count |]] — that order is what makes a
   sampled histogram (and its store record) reproducible — kept flat as
   one [r * nv + v] digit per cell (the digit [Census.genome_of_index]
   decodes), so a space too large to index still samples.  Symmetry
   reduction: enumerate the canonical representative of every
   isomorphism class once, decide only those, and let each verdict count
   [orbit] tables in the histogram.  Every construction is sequential
   and deterministic, so every process that performs it (this engine,
   the distributed coordinator, each worker) derives the identical rank
   space. *)
let census_ranks ?obs ?sample ~sym space =
  let nv = space.Synth.num_values in
  let width ~lo ~hi = hi - lo in
  match sample with
  | Some (count, seed) ->
      let cells = nv * space.Synth.num_rws in
      let digits = Array.make (count * cells) 0 in
      let rng = Random.State.make [| seed; count |] in
      for i = 0 to count - 1 do
        Array.iteri
          (fun c (r, v) -> digits.((i * cells) + c) <- (r * nv) + v)
          (Synth.table (Synth.random_genome rng space))
      done;
      let genome i =
        Synth.of_table space
          (Array.init cells (fun c ->
               let d = digits.((i * cells) + c) in
               (d / nv, d mod nv)))
      in
      { ranks = count; sym_classes = None; genome; weight = width }
  | None when not sym ->
      {
        ranks = Census.space_size space;
        sym_classes = None;
        genome = Census.genome_of_index space;
        weight = width;
      }
  | None ->
      let t0 = Obs.Clock.now () in
      let s =
        Sym.make ~values:nv ~ops:space.Synth.num_rws ~responses:space.Synth.num_responses
      in
      let reps, orbits = Sym.classes s in
      (match obs with
      | None -> ()
      | Some o ->
          Obs.Metrics.Counter.add (Obs.counter o "sym.classes") (Array.length reps);
          Obs.Metrics.Counter.add (Obs.counter o "sym.orbit_max")
            (Array.fold_left max 0 orbits);
          Obs.Metrics.Counter.add (Obs.counter o "sym.canon_ns")
            (int_of_float ((Obs.Clock.now () -. t0) *. 1e9)));
      (* weight-prefix sums: [wsum.(i)] tables live below rank [i] *)
      let ranks = Array.length reps in
      let wsum = Array.make (ranks + 1) 0 in
      Array.iteri (fun i w -> wsum.(i + 1) <- wsum.(i) + w) orbits;
      assert (wsum.(ranks) = Census.space_size space);
      {
        ranks;
        sym_classes = Some ranks;
        genome = (fun i -> Census.genome_of_index space reps.(i));
        weight = (fun ~lo ~hi -> wsum.(hi) - wsum.(lo));
      }

(* Warm the shared per-[n] structures (schedule memo / compiled tries)
   on the submitting domain so workers only read. *)
let warm_census ?obs cache ~kernel ~cap =
  for n = 2 to cap do
    match kernel with
    | Kernel.Reference -> ignore (Cache.scheds cache ~n)
    | Kernel.Trie -> Kernel.warm_trie ?obs ~nprocs:n ()
  done

type census_run = {
  entries : Census.entry list;
  total : int;
  completed : int;
  resumed : int;
  complete : bool;
  storage_error : string option;
}

let census ?cache ?obs ?supervisor ?sample ?checkpoint ?(resume = false)
    ?(durable = false) ?injector ~(config : Api.Config.t) pool space =
  if sample <> None && (checkpoint <> None || resume || durable) then
    invalid_arg "Engine.census: a sampled census takes no checkpoint";
  let cap = config.Api.Config.cap in
  let kernel = config.Api.Config.kernel in
  let deadline = resolve_deadline config in
  Obs.with_span ?obs "engine.census" @@ fun () ->
  let cache = match cache with Some c -> c | None -> Cache.create ?obs () in
  let c_tables = Option.map (fun o -> Obs.counter o "census.tables") obs in
  let c_flushes = Option.map (fun o -> Obs.counter o "census.checkpoint_flushes") obs in
  let c_skips = Option.map (fun o -> Obs.counter o "census.resume_skips") obs in
  (* The sweep below runs over "ranks": table indices, sample draws, or
     class ranks under [--sym].  [resumed]/[completed]/the histogram stay
     in table units either way, so summaries are mode-independent. *)
  let rs = census_ranks ?obs ?sample ~sym:config.Api.Config.sym space in
  let ranks = rs.ranks in
  let size = rs.weight ~lo:0 ~hi:ranks in
  warm_census ?obs cache ~kernel ~cap;
  (* The checkpoint is a census ledger: a header, then one [Done] record
     per run of freshly decided ranks.  Resume trusts exactly what
     [Dist_ledger.replay_done] trusts, so a file written here and one
     written by the distributed coordinator resume each other. *)
  let ledger =
    Option.map
      (fun path ->
        let expected =
          Dist_ledger.header ?sym_classes:rs.sym_classes ~space ~cap ~total:size ()
        in
        Dist_ledger.open_ledger ?obs ?injector ~fsync:durable ~expected ~resume path)
      checkpoint
  in
  (* A fresh census is the resume of an empty ledger.  From here on the
     coordinator's merge: a rank is covered exactly when its levels are
     in [histogram], and every decided run enters both through
     [Dist_ledger.absorb]. *)
  let covered, histogram, resumed, _ =
    Dist_ledger.replay_done ~total:ranks ~weight:rs.weight
      (match ledger with Some (_, records) -> records | None -> [])
  in
  count_checked c_skips resumed;
  let completed = ref resumed in
  let m = Mutex.create () in
  (* Commit the decided run [\[lo, hi)] with its histogram [run]: merge
     it, count it and append its [Done].  A rank is only ever decided by
     the chunk that finds it uncovered, and a chunk re-run by a supervisor
     retry or a watchdog round skips what an earlier attempt committed, so
     [absorb] cannot refuse a run.  A failed append degrades the ledger
     (sticky, counted) instead of raising: the census finishes in memory
     and reports [storage_error]. *)
  let commit lo hi run =
    let entries =
      List.map
        (fun (e : Census.entry) -> (e.Census.discerning, e.Census.recording, e.Census.count))
        (Census.of_histogram run)
    in
    count_checked c_tables (hi - lo);
    Mutex.protect m (fun () ->
        let fresh =
          Dist_ledger.absorb ~covered ~hist:histogram ~weight:rs.weight ~lo ~hi entries
        in
        assert fresh;
        completed := !completed + rs.weight ~lo ~hi;
        Option.iter
          (fun (led, _) ->
            Dist_ledger.append led (Dist_ledger.Done { lo; hi; entries });
            if Dist_ledger.degraded led = None then
              Option.iter Obs.Metrics.Counter.incr c_flushes)
          ledger)
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun (led, _) -> try Dist_ledger.close led with Fsio.Io_error _ -> ())
        ledger)
    (fun () ->
      with_watchdog ?supervisor ~chunk:32 @@ fun ~chunk ~wd_stop ->
      ignore
        (Pool.parallel_for_until pool ~chunk ?supervisor ~label:"census"
           ~should_stop:(fun () -> expired deadline || wd_stop ())
           ranks
           (fun lo hi ->
             (* Decide each maximal run of uncovered ranks into its own
                histogram and commit it whole; a deadline cut commits the
                decided prefix of the run it interrupts. *)
             let chain = census_chain () in
             let i = ref lo in
             while !i < hi && not (expired deadline) do
               if Bytes.get covered !i <> '\000' then incr i
               else begin
                 let a = !i and run = Hashtbl.create 8 in
                 while !i < hi && Bytes.get covered !i = '\000' && not (expired deadline) do
                   let key =
                     census_levels ?obs ~chain cache ~kernel ~cap
                       (Synth.to_objtype (rs.genome !i))
                   in
                   let w = rs.weight ~lo:!i ~hi:(!i + 1) in
                   Hashtbl.replace run key
                     (w + Option.value ~default:0 (Hashtbl.find_opt run key));
                   incr i
                 done;
                 if !i > a then commit a !i run
               end
             done)));
  let completed = !completed in
  {
    entries = Census.of_histogram histogram;
    total = size;
    completed;
    resumed;
    complete = completed = size;
    storage_error = Option.bind ledger (fun (led, _) -> Dist_ledger.degraded led);
  }

let synth_portfolio ?(seed = 0) ?max_iterations ?restart_every ?obs ?supervisor
    ~(config : Api.Config.t) ~portfolio pool ~target space =
  if portfolio < 1 then
    invalid_arg "Engine.synth_portfolio: portfolio must be positive";
  let deadline = resolve_deadline config in
  Obs.with_span ?obs "engine.synth" @@ fun () ->
  let c_climbs = Option.map (fun o -> Obs.counter o "synth.climbs") obs in
  let c_successes = Option.map (fun o -> Obs.counter o "synth.successes") obs in
  let results = Array.make portfolio None in
  let best = Atomic.make max_int in
  ignore
    (Pool.parallel_for_until pool ~chunk:1 ?supervisor ~label:"synth"
       ~should_stop:(fun () -> expired deadline)
       portfolio
       (fun lo hi ->
         for k = lo to hi - 1 do
           (* Skip only seeds above an already-successful one: every seed
              below the final minimum runs to completion, so the portfolio
              returns the first success in seed order.  An expired deadline
              skips the climb entirely (climbs are the cancellation
              granularity — [Synth.search] itself is not interruptible). *)
           if k < Atomic.get best && not (expired deadline) then begin
             Option.iter Obs.Metrics.Counter.incr c_climbs;
             match
               Synth.search ~seed:(seed + k) ?max_iterations ?restart_every
                 ~incremental:config.Api.Config.incremental ?obs ~target space
             with
             | Some w ->
                 Option.iter Obs.Metrics.Counter.incr c_successes;
                 results.(k) <- Some w;
                 let rec lower () =
                   let b = Atomic.get best in
                   if k < b && not (Atomic.compare_and_set best b k) then lower ()
                 in
                 lower ()
             | None -> ()
           end
         done));
  match Atomic.get best with b when b = max_int -> None | b -> results.(b)
