(* perfbench: the benchmark's workload runner.

   One invocation runs one workload in a fresh process, so its peak RSS
   and GC state belong to that workload alone:

     perfbench.exe run WORKLOAD --seed N --seconds S --trace 0|1 --rcn PATH
                       [--units N] [--full-check 1]
     perfbench.exe inputs WORKLOAD --seed N
     perfbench.exe reference

   [run] sets the workload up several times (each set-up timed), then
   repeats the workload's unit of work until [S] seconds are spent,
   timing every unit from outside, and checks every unit's output.  It
   prints one JSON record of raw samples on its last stdout line; the
   driver (run.py) turns the samples into metrics.  With [--trace 1]
   traced and untraced units alternate: traced units pass an [Obs.t] to
   the library (reading back the counters it already exports) and record
   a span around every call the runner makes into a layer, so the span
   tree's self times split the traced wall time, and the untraced units
   of the same process give the tracing overhead.  Probes of single
   layers (codecs, store, ledger, compile) run after the timed phase.

   [inputs] prints a digest of what the seed generates for a workload —
   what the driver's self-test compares across seeds.  [reference] times
   the reference loop once. *)

(* Domains of the census pool.  census-sym runs on one: at two, its CPU
   time was only 1.1 times its wall time, so the second domain added
   little, and each unit waited for whichever vCPU the host was slowing
   (in one set of ten runs, wall_s spread 0.31 against cpu_s 0.17). *)
let census_jobs = 2
let sym_jobs = 1

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* ------------------------------------------------------------------ *)
(* Measurement primitives *)

let now = Obs.Clock.now

let cpu_times () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime, t.Unix.tms_cutime +. t.Unix.tms_cstime)

(* Peak RSS of this process since the last [reset_peak_rss], from the
   kernel's high-water mark.  Writing 5 to clear_refs resets VmHWM, so
   every unit gets its own peak sample. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" float_of_int /. 1024.
        | Some _ -> scan ()
      in
      scan ())

let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let md5 s = Digest.to_hex (Digest.string s)

let counter_of obs name =
  match List.assoc_opt name (Obs.Metrics.snapshot (Obs.metrics obs)) with
  | Some (Obs.Metrics.Count n) -> n
  | _ -> 0

let hist_sum obs name =
  match List.assoc_opt name (Obs.Metrics.snapshot (Obs.metrics obs)) with
  | Some (Obs.Metrics.Summary s) -> (s.count, s.sum)
  | _ -> (0, 0.)

(* ------------------------------------------------------------------ *)
(* Spans: recorded by the runner around its own calls into each layer,
   kept in memory, written out at exit.  A [derived] span is a child
   whose duration the library measured itself and exported as a counter
   (e.g. [sym.canon_ns]); it is marked with its source and placed at its
   parent's start, so it only ever subtracts from the parent's self
   time. *)

module Trace = struct
  type span = {
    id : int;
    parent : int;
    name : string;
    source : string;
    start : float;
    mutable stop : float;
  }

  let on = ref false
  let spans : span list ref = ref []
  let count = ref 0
  let current : span option ref = ref None

  let add ~parent ~name ~source ~start ~stop =
    let s = { id = !count; parent; name; source; start; stop } in
    incr count;
    spans := s :: !spans;
    s

  let with_span name f =
    if not !on then f ()
    else begin
      let parent = match !current with Some p -> p.id | None -> -1 in
      let s = add ~parent ~name ~source:"call" ~start:(now ()) ~stop:nan in
      let saved = !current in
      current := Some s;
      Fun.protect
        ~finally:(fun () ->
          s.stop <- now ();
          current := saved)
        f
    end

  let derived ~name ~counter dur =
    match !current with
    | Some p when !on ->
        ignore
          (add ~parent:p.id ~name ~source:("counter:" ^ counter) ~start:p.start ~stop:(p.start +. dur))
    | _ -> ()

  let dur s = s.stop -. s.start

  (* Self time per span name over the subtrees of every span named
     [root]: a span's duration minus the part its children cover, the
     roots' own self time reported as "unattributed".  Returns the
     per-name sums and the roots' total duration; the sums add up to
     the total by construction. *)
  let self_times ~root =
    let all = !spans in
    let children = Hashtbl.create 64 in
    List.iter (fun s -> Hashtbl.add children s.parent s) all;
    let acc = Hashtbl.create 8 in
    let bump k v = Hashtbl.replace acc k (v +. Option.value ~default:0. (Hashtbl.find_opt acc k)) in
    let rec walk name s =
      let kids = Hashtbl.find_all children s.id in
      bump name (dur s -. List.fold_left (fun a c -> a +. dur c) 0. kids);
      List.iter (fun c -> walk c.name c) kids
    in
    let roots = List.filter (fun s -> s.name = root) all in
    List.iter (walk "unattributed") roots;
    (acc, List.fold_left (fun a s -> a +. dur s) 0. roots)

  let write path =
    Out_channel.with_open_text path (fun oc ->
        List.iter
          (fun s ->
            output_string oc
              (Wire.to_string
                 (Wire.Obj
                    [
                      ("id", Wire.Int s.id);
                      ("parent", Wire.Int s.parent);
                      ("name", Wire.String s.name);
                      ("source", Wire.String s.source);
                      ("start_s", Wire.Float s.start);
                      ("end_s", Wire.Float s.stop);
                    ]));
            output_char oc '\n')
          (List.rev !spans))
end

(* ------------------------------------------------------------------ *)
(* The run record *)

type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  samples : (string, float list) Hashtbl.t;
  layers : (string, float) Hashtbl.t;
  facts : (string, Wire.t) Hashtbl.t;
}

let record =
  {
    attempted = 0;
    failed = 0;
    failures = [];
    samples = Hashtbl.create 16;
    layers = Hashtbl.create 64;
    facts = Hashtbl.create 8;
  }

(* One operation attempted; [ok = false] counts it failed, with a reason. *)
let op ok why =
  record.attempted <- record.attempted + 1;
  if not ok then begin
    record.failed <- record.failed + 1;
    if List.length record.failures < 20 then record.failures <- Lazy.force why :: record.failures
  end

let sample key v =
  Hashtbl.replace record.samples key
    (v :: Option.value ~default:[] (Hashtbl.find_opt record.samples key))

let layer key v = Hashtbl.replace record.layers key v
let fact key v = Hashtbl.replace record.facts key v

(* Set up [reps] times before the timed phase, timing each; every
   set-up but the last is torn down again, the last one is returned for
   the timed phase.  Also returned: a step that sets up and tears down
   [again] more times, timed alike, which the timed phase runs after
   every unit.  A single set-up takes microseconds to milliseconds, and
   on a shared host its time shifts with the host's state from one
   100 ms stretch to the next; spread over the whole run, the samples
   see the same host the units see. *)
let setup ~reps ~again make teardown =
  let timed () =
    let x, dt = time make in
    sample "setup_s" dt;
    x
  in
  for _ = 2 to reps do teardown (timed ()) done;
  let kept = timed () in
  (kept, fun () -> for _ = 1 to again do teardown (timed ()) done)

(* The reference loop: fixed work in no rcn code — 300,001 inserts into
   and lookups in a stdlib [Hashtbl] of int keys, about 0.25-0.4 s.  On
   this benchmark's host the speed of allocation-heavy, cache-missing
   OCaml code drifts by up to 1.8x over minutes.  Timed in its own
   process right before a runner process, this loop drifts with it
   (correlation 0.74 with census-sym units over a 15-minute swing of
   0.63-1.15 s), so the driver scales unit times by it.  Its own process
   keeps its heap out of the runner's peak RSS. *)
let reference_loop () =
  let n = 300_000 in
  let h = Hashtbl.create 16 in
  for i = 0 to n do Hashtbl.replace h (i * 7919) i done;
  let s = ref 0 in
  for i = 0 to n do s := !s + Hashtbl.find h (i * 7919) done;
  ignore (Sys.opaque_identity !s)

(* The timed phase: units until [seconds] are spent (never fewer than
   [min_units]; a unit that would overrun the budget by more than half
   its expected length is not started), or exactly [max_units] units.
   Each unit runs after a full major GC, with the peak-RSS mark reset,
   and is timed for wall and CPU time (this process plus reaped
   children).  Under [trace], units alternate untraced/traced, starting
   untraced.  [between] runs after every unit, outside its timing. *)
let timed_phase ?max_units ~seconds ~min_units ~trace ~between unit_of_work =
  let t_end = now () +. seconds in
  let walls = ref [] in
  let rec loop i =
    let expected = if !walls = [] then 0. else median !walls in
    let stop =
      match max_units with
      | Some n -> i >= n
      | None -> i >= min_units && now () +. (expected /. 2.) >= t_end
    in
    if not stop then begin
      let traced = trace && i mod 2 = 1 in
      Gc.full_major ();
      reset_peak_rss ();
      let s0, c0 = cpu_times () in
      let t0 = now () in
      Trace.on := traced;
      (if traced then Trace.with_span "unit" (fun () -> unit_of_work ~traced i)
       else unit_of_work ~traced i);
      Trace.on := false;
      let wall = now () -. t0 in
      let s1, c1 = cpu_times () in
      let tag = if traced then "traced." else "" in
      walls := wall :: !walls;
      sample (tag ^ "wall_s") wall;
      sample (tag ^ "cpu_s") (s1 -. s0 +. (c1 -. c0));
      sample (tag ^ "peak_rss_mb") (peak_rss_mb ());
      between ();
      loop (i + 1)
    end
  in
  loop 0

(* Per-layer self times of the traced units, averaged per unit, plus
   the tracing overhead against the untraced units of the same run. *)
let trace_summary () =
  let acc, total = Trace.self_times ~root:"unit" in
  let units = float_of_int (List.length (Option.value ~default:[] (Hashtbl.find_opt record.samples "traced.wall_s"))) in
  Hashtbl.iter (fun name v -> layer ("self." ^ name ^ "_s") (v /. units)) acc;
  layer "trace.wall_s" (total /. units);
  layer "trace.spans" (float_of_int !Trace.count);
  let med k = median (Option.value ~default:[] (Hashtbl.find_opt record.samples k)) in
  layer "trace.overhead_s" (med "traced.wall_s" -. med "wall_s")

(* Per-unit counters of a traced unit: the same unit of work is
   deterministic, so the last traced unit's counts stand for all. *)
let counters_to_layers obs names = List.iter (fun n -> layer n (float_of_int (counter_of obs n))) names

let gc_delta f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  layer "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
  layer "gc.promoted_words" (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  layer "gc.major_collections" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  r

(* ------------------------------------------------------------------ *)
(* Shared census inputs and pinned results *)

let entries_string entries =
  Wire.to_string
    (Wire.List
       (List.map
          (fun (e : Census.entry) ->
            Wire.List [ Wire.Int e.Census.discerning; Wire.Int e.Census.recording; Wire.Int e.Census.count ])
          entries))

(* The {3,2,2} cap-4 census: 46,656 tables.  [census] and [dist-census]
   must both produce exactly this histogram. *)
let census_space = { Synth.num_values = 3; num_rws = 2; num_responses = 2 }
let census_cap = 4
let census_digest = "4ce63fbf47e8451fbd368fb639e98adb"

(* The {3,2,4} cap-2 symmetry-reduced census: 2,985,984 tables in 11,676
   classes; the canonicalizing sweep is most of its time. *)
let sym_space = { Synth.num_values = 3; num_rws = 2; num_responses = 4 }
let sym_cap = 2
let sym_digest = "dd645c464066b56e386a16b1adce2844"

let seeded_state seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

(* Time [Kernel.compile] and [Engine.census_levels] over a seeded sample
   of the space's tables, and the first (cold) trie build. *)
let kernel_probes ~seed ~space ~cap =
  let (), trie_s =
    time (fun () -> for n = 2 to cap do Kernel.warm_trie ~nprocs:n () done)
  in
  layer "sched.trie_build_s" trie_s;
  let st = seeded_state seed "kernel-probe" in
  let size = Census.space_size space in
  let tys =
    List.init 200 (fun _ -> Synth.to_objtype (Census.genome_of_index space (Random.State.int st size)))
  in
  let per_call f =
    let (), dt = time (fun () -> List.iter f tys) in
    dt /. float_of_int (List.length tys) *. 1e6
  in
  layer "kernel.compile_us"
    (median (List.init 5 (fun _ ->
         per_call (fun ty -> for n = 2 to cap do ignore (Kernel.compile ty ~n) done))));
  let cache = Engine.Cache.create () in
  layer "decide.levels_us"
    (median (List.init 5 (fun _ ->
         per_call (fun ty -> ignore (Engine.census_levels cache ~kernel:Kernel.Trie ~cap ty)))))

let pool_layers obs ~jobs ~span_s =
  let _, busy = hist_sum obs "pool.chunk_s" in
  counters_to_layers obs [ "pool.chunks"; "decide.kernel_evals"; "decide.partitions_pruned" ];
  let evals = float_of_int (counter_of obs "decide.kernel_evals")
  and pruned = float_of_int (counter_of obs "decide.partitions_pruned") in
  layer "decide.prune_ratio" (if evals +. pruned > 0. then pruned /. (evals +. pruned) else 0.);
  layer "engine.census_s" span_s;
  layer "pool.busy_s" busy;
  layer "pool.idle_s" ((float_of_int jobs *. span_s) -. busy)

(* ------------------------------------------------------------------ *)
(* census / census-sym: Engine.census over a Pool *)

let census_workload ~sym ~seed ~seconds ~min_units ~trace =
  let space, cap, pinned = if sym then (sym_space, sym_cap, sym_digest) else (census_space, census_cap, census_digest) in
  let jobs = if sym then sym_jobs else census_jobs in
  let config = Api.Config.v ~jobs ~cap ~kernel:Kernel.Trie ~sym () in
  let size = Census.space_size space in
  (* Set-up: what a census pays before its first table — the pool, a
     schedule trie for every process count up to the cap (built fresh
     here; the census itself draws them from the kernel's shared memo). *)
  let pool, between =
    setup ~reps:11 ~again:31
      (fun () ->
        let pool = Pool.create ~jobs () in
        for n = 2 to cap do ignore (Sched.Trie.of_nprocs ~nprocs:n) done;
        pool)
      Pool.shutdown
  in
  if trace then kernel_probes ~seed ~space ~cap;
  let digests = ref [] in
  let unit_of_work ~traced _ =
    let obs = if traced then Some (Obs.create ()) else None in
    (* A traced unit gets its own instrumented pool: a pool's counters
       are bound at creation. *)
    let pool = match obs with Some o -> Pool.create ~obs:o ~jobs () | None -> pool in
    let run =
      Trace.with_span "engine" (fun () ->
          let t0 = now () in
          let run = gc_delta (fun () -> Engine.census ?obs ~config pool space) in
          (match obs with
          | Some o ->
              let canon_s = float_of_int (counter_of o "sym.canon_ns") /. 1e9 in
              if sym then Trace.derived ~name:"sym" ~counter:"sym.canon_ns" canon_s;
              let span_s = now () -. t0 in
              pool_layers o ~jobs ~span_s;
              counters_to_layers o [ "sym.classes"; "sym.canon_ns" ];
              let classes = counter_of o "sym.classes" in
              layer "sym.reduction" (if classes > 0 then float_of_int size /. float_of_int classes else 0.);
              layer "decide.reps_s" (if sym then span_s -. canon_s else 0.)
          | None -> ());
          run)
    in
    if traced then Pool.shutdown pool;
    let digest = md5 (entries_string run.Engine.entries) in
    digests := digest :: !digests;
    let weight = List.fold_left (fun a (e : Census.entry) -> a + e.Census.count) 0 run.Engine.entries in
    op (run.Engine.complete && weight = size && digest = pinned)
      (lazy (Printf.sprintf "census: complete=%b weights=%d/%d digest=%s (pinned %s)"
               run.Engine.complete weight size digest pinned))
  in
  timed_phase ~seconds ~min_units ~trace ~between unit_of_work;
  if trace && sym then begin
    let (reps, orbits), classes_s =
      time (fun () ->
          Sym.classes (Sym.make ~values:space.Synth.num_values ~ops:space.Synth.num_rws
                         ~responses:space.Synth.num_responses))
    in
    layer "sym.classes_s" classes_s;
    op (Array.fold_left ( + ) 0 orbits = size && Array.length reps > 0)
      (lazy "sym: orbit sizes do not sum to the space size")
  end;
  Pool.shutdown pool;
  fact "digest" (Wire.String (List.hd !digests))

(* ------------------------------------------------------------------ *)
(* synth: Synth.search on the E6 space {11,3,11}, target 4 *)

let synth_space = { Synth.num_values = 11; num_rws = 3; num_responses = 11 }
let synth_target = 4
let synth_budget = 400

(* Climb seeds whose climb leaves the warm-start regime within 100-200
   candidates and finds no witness within [synth_budget]; the three
   together do 483k decide.kernel_evals and 4.9k kernel.patches.  Each
   comes with the MD5 of its full on_score trajectory.  Climb cost on this space depends on
   the seed by about 100x (a warm-start climb scores 3,000 candidates in
   50 ms, a plateau climb takes seconds, some seeds find a witness), so
   a unit of work runs all three climbs, and the driver's seed only sets
   the order they run in: every unit does the same work whatever the
   seed. *)
let synth_climbs =
  [|
    (24, "e671942e0666675d1f88392e94b7ce7b");
    (28, "4918bc5de17e4648b7b8f98f7270d5f9");
    (50, "7a7fa7badcfc2ee4e52c40862dc62898");
  |]

let synth_order seed =
  let n = Array.length synth_climbs in
  let k = abs seed mod n and flip = abs seed / n mod 2 = 1 in
  List.init n (fun i -> synth_climbs.((k + if flip then n - i else i) mod n))

let synth_trajectory ?obs ?incremental ?(on_time = fun _ -> ()) ~iterations climb_seed =
  let buf = Buffer.create (4 * iterations) in
  let on_score s =
    on_time (now ());
    Buffer.add_string buf (string_of_int s);
    Buffer.add_char buf ','
  in
  let w =
    Synth.search ~seed:climb_seed ~max_iterations:iterations ?incremental ?obs ~on_score
      ~target:synth_target synth_space
  in
  (w, Buffer.contents buf)

let synth_workload ~seed ~seconds ~min_units ~trace ~full_check =
  let order = synth_order seed in
  fact "climb_order" (Wire.List (List.map (fun (c, _) -> Wire.Int c) order));
  (* Set-up: what a search pays before its first mutation — scoring its
     starting genome, the ladder seed. *)
  let (), between =
    setup ~reps:5 ~again:21
      (fun () -> ignore (Synth.fitness ~target:synth_target (Synth.seed_ladder synth_space)))
      ignore
  in
  let digests = ref [] in
  let unit_of_work ~traced _ =
    let obs = if traced then Some (Obs.create ()) else None in
    List.iter
      (fun (climb_seed, pinned) ->
        let last = ref (now ()) in
        let on_time t =
          sample "synth.eval_us" ((t -. !last) *. 1e6);
          last := t
        in
        let w, traj =
          Trace.with_span "synth" (fun () ->
              synth_trajectory ?obs ~on_time ~iterations:synth_budget climb_seed)
        in
        let digest = md5 traj in
        digests := digest :: !digests;
        op (w = None && digest = pinned)
          (lazy (Printf.sprintf "synth: climb seed %d trajectory %s (pinned %s), witness=%b" climb_seed
                   digest pinned (w <> None))))
      order;
    match obs with
    | None -> ()
    | Some o ->
        counters_to_layers o [ "synth.evals"; "synth.sym_skips"; "kernel.patches"; "decide.kernel_evals" ];
        let evals = float_of_int (counter_of o "synth.evals")
        and skips = float_of_int (counter_of o "synth.sym_skips")
        and reused = float_of_int (counter_of o "kernel.masks_reused")
        and inval = float_of_int (counter_of o "kernel.masks_invalidated") in
        layer "synth.skip_ratio" (if evals +. skips > 0. then skips /. (evals +. skips) else 0.);
        layer "kernel.mask_reuse_ratio" (if reused +. inval > 0. then reused /. (reused +. inval) else 0.)
  in
  timed_phase ~seconds ~min_units ~trace ~between unit_of_work;
  (* The patched-kernel exactness contract, checked against the
     from-scratch reference on a prefix of the first climb.  It takes
     about 2 s, so only a run's first process pays it ([--full-check 1]):
     an untraced run is many short processes. *)
  if full_check then begin
    let prefix = 250 and climb_seed = fst (List.hd order) in
    let _, reference = synth_trajectory ~incremental:false ~iterations:prefix climb_seed in
    let _, incremental = synth_trajectory ~iterations:prefix climb_seed in
    op (reference = incremental) (lazy "synth: incremental trajectory diverges from the from-scratch search")
  end;
  fact "digest" (Wire.String (md5 (String.concat "," (List.rev !digests))))

(* ------------------------------------------------------------------ *)
(* serve-mix: an in-process daemon, one closed-loop client *)

let serve_space = { Synth.num_values = 3; num_rws = 3; num_responses = 2 }
let serve_cap = 4
let serve_batch = 500

type kind = Cold | Hit | Meta

(* The seeded request stream: 40% cold analyses of distinct random
   tables, 40% repeats of an earlier table (a store hit), 20% Metrics
   and Ping. *)
let request_stream seed =
  let st = seeded_state seed "serve-mix" in
  let seen = Hashtbl.create 4096 in
  let specs = ref [||] and n_specs = ref 0 in
  let config = Api.Config.v ~cap:serve_cap () in
  let fresh () =
    let rec draw () =
      let spec =
        Objtype.to_spec_string (Synth.to_objtype (Synth.random_genome st serve_space))
      in
      if Hashtbl.mem seen spec then draw () else spec
    in
    let spec = draw () in
    Hashtbl.add seen spec ();
    if !n_specs = Array.length !specs then
      specs := Array.append !specs (Array.make (max 64 !n_specs) "");
    !specs.(!n_specs) <- spec;
    incr n_specs;
    spec
  in
  fun () ->
    let r = Random.State.int st 10 in
    if r < 4 || !n_specs = 0 then (Cold, Api.Request.Analyze { spec = fresh (); config })
    else if r < 8 then (Hit, Api.Request.Analyze { spec = !specs.(Random.State.int st !n_specs); config })
    else if r = 8 then (Meta, Api.Request.Metrics)
    else (Meta, Api.Request.Ping)

let start_daemon dir =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let socket = Filename.concat dir "d.sock" in
  let daemon = Serve.create ~jobs:1 ~socket ~store:(Filename.concat dir "store.log") () in
  let thread = Thread.create Serve.run daemon in
  let client = Client.connect socket in
  (match Client.call client Api.Request.Ping with
  | Ok { Api.Response.body = Api.Response.Pong; _ } -> ()
  | _ -> fail "serve-mix: the daemon did not answer the first ping");
  (daemon, thread, client, socket)

(* The daemon's accept loop sees the stop flag only when its select
   returns, after up to 0.25 s; one more connection wakes it at once. *)
let stop_daemon (daemon, thread, client, socket) =
  Client.close client;
  Serve.stop daemon;
  (try Client.close (Client.connect socket) with _ -> ());
  Thread.join thread

let analysis_bytes a = Wire.to_string (Api.analysis_to_json a)

let serve_workload ~seed ~seconds ~min_units ~trace =
  let n_setup = ref 0 in
  let ((daemon, _, client, _) as d), between =
    setup ~reps:5 ~again:20
      (fun () ->
        incr n_setup;
        start_daemon (Printf.sprintf "serve%d" !n_setup))
      stop_daemon
  in
  let dobs = Serve.obs daemon in
  let next = request_stream seed in
  let cold_bytes = Hashtbl.create 4096 in
  let sampled = ref [] in
  let check_st = seeded_state seed "serve-check" in
  let captured_req = ref [] and captured_resp = ref [] and n_captured = ref 0 in
  let requests = ref 0 and busy_s = ref 0. in
  let unit_of_work ~traced _ =
    let t_batch = now () in
    for _ = 1 to serve_batch do
      let kind, req = next () in
      let t0 = now () in
      let reply =
        if not traced then Client.call client req
        else
          Trace.with_span "serve" (fun () ->
              let _, e0 = hist_sum dobs "span.engine.analyze" in
              let r = Client.call client req in
              let _, e1 = hist_sum dobs "span.engine.analyze" in
              if e1 > e0 then Trace.derived ~name:"engine" ~counter:"span.engine.analyze" (e1 -. e0);
              r)
      in
      let ms = (now () -. t0) *. 1e3 in
      incr requests;
      sample "serve.op_ms" ms;
      sample
        (match kind with Cold -> "serve.cold_ms" | Hit -> "serve.hit_ms" | Meta -> "serve.meta_ms")
        ms;
      if !n_captured < 2000 then begin
        incr n_captured;
        captured_req := Api.Request.to_string req :: !captured_req;
        match reply with Ok r -> captured_resp := r :: !captured_resp | Error _ -> ()
      end;
      match (req, reply) with
      | _, Error e -> op false (lazy ("serve-mix: transport/decode failure: " ^ e))
      | Api.Request.Analyze { spec; _ }, Ok { Api.Response.body = Api.Response.Analysis { analysis; from_store }; _ } ->
          let bytes = analysis_bytes analysis in
          (match Hashtbl.find_opt cold_bytes spec with
          | None ->
              Hashtbl.add cold_bytes spec bytes;
              if Random.State.int check_st 32 = 0 then sampled := (spec, analysis) :: !sampled;
              op (kind = Cold && not from_store) (lazy "serve-mix: a cold analysis was served from the store")
          | Some cold ->
              op (bytes = cold && from_store)
                (lazy "serve-mix: a warm reply differs from its cold bytes or missed the store"))
      | Api.Request.Ping, Ok { Api.Response.body = Api.Response.Pong; _ } -> op true (lazy "")
      | Api.Request.Metrics, Ok { Api.Response.body = Api.Response.Metrics _; _ } -> op true (lazy "")
      | _, Ok r ->
          op false
            (lazy (Printf.sprintf "serve-mix: unexpected reply (exit code %d)" (Api.Response.exit_code r)))
    done;
    busy_s := !busy_s +. (now () -. t_batch)
  in
  (* A fixed number of batches, two per requested second (a batch takes
     about 0.3 s): every cold reply stays in the daemon's store, so a
     time-bound run's peak RSS would follow the host's speed. *)
  let batches = max min_units (2 * int_of_float seconds) in
  timed_phase ~max_units:batches ~seconds ~min_units ~trace ~between:ignore unit_of_work;
  layer "serve.ops_per_s" (float_of_int !requests /. !busy_s);
  layer "serve.requests" (float_of_int !requests);
  counters_to_layers dobs [ "serve.busy"; "store.puts"; "store.dropped_puts" ];
  let hits = counter_of dobs "store.hits" and misses = counter_of dobs "store.misses" in
  layer "store.hit_ratio" (if hits + misses > 0 then float_of_int hits /. float_of_int (hits + misses) else 0.);
  let n_engine, engine_s = hist_sum dobs "span.engine.analyze" in
  let cold = Option.value ~default:[] (Hashtbl.find_opt record.samples "serve.cold_ms") in
  if n_engine > 0 && cold <> [] then
    layer "serve.queue_ms"
      ((List.fold_left ( +. ) 0. cold /. float_of_int (List.length cold))
      -. (engine_s /. float_of_int n_engine *. 1e3));
  stop_daemon d;
  (* The rest of the set-ups come after the timed phase: a daemon
     started and stopped between batches slowed the batches after it
     (0.35 s per batch at the start of a run, 1.0 s by the end). *)
  between ();
  (* A seeded sample of cold replies against the in-process engine. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      List.iter
        (fun (spec, served) ->
          let local =
            Engine.analyze ~config:(Api.Config.v ~cap:serve_cap ()) pool (Objtype.of_spec_string spec)
          in
          op
            (analysis_bytes { local with Analysis.elapsed = 0. }
            = analysis_bytes { served with Analysis.elapsed = 0. })
            (lazy "serve-mix: a served analysis differs from in-process Engine.analyze"))
        !sampled);
  fact "cold_checked" (Wire.Int (List.length !sampled));
  if trace then begin
    let per_op l f =
      let n = List.length l in
      median
        (List.init 5 (fun _ ->
             let (), dt = time (fun () -> List.iter f l) in
             dt /. float_of_int (max 1 n) *. 1e6))
    in
    layer "api.request_decode_us" (per_op !captured_req (fun s -> ignore (Api.Request.of_string s)));
    layer "api.response_encode_us" (per_op !captured_resp (fun r -> ignore (Api.Response.to_string r)));
    (* The run's keys and cold bytes, replayed against a private store. *)
    let cfg_cap = serve_cap in
    let pairs =
      Hashtbl.fold
        (fun spec bytes acc -> (Api.query_digest (Objtype.of_spec_string spec) ~cap:cfg_cap, bytes) :: acc)
        cold_bytes []
    in
    let store = Store.open_store "probe-store.log" in
    let (), put_s = time (fun () -> List.iter (fun (key, b) -> Store.put store ~key b) pairs) in
    let n = float_of_int (max 1 (List.length pairs)) in
    layer "store.put_us" (put_s /. n *. 1e6);
    layer "store.find_us" (per_op pairs (fun (key, _) -> ignore (Store.find store key)));
    Store.close store
  end

(* ------------------------------------------------------------------ *)
(* dist-census: Dist.census over 2 worker processes with one crash *)

let dist_workers = 2

let dist_crash seed = 1500 + (abs (Hashtbl.hash (seed, "dist-crash")) mod 1001)

let dist_config = Api.Config.v ~jobs:1 ~cap:census_cap ~kernel:Kernel.Trie ()

(* Spawn one [rcn worker] and wait for its Hello, then shut it down —
   the per-process start-up every (re)spawn of the census pays. *)
let spawn_to_hello rcn =
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec ours;
  let argv =
    [|
      rcn; "worker";
      "--values"; string_of_int census_space.Synth.num_values;
      "--rws"; string_of_int census_space.Synth.num_rws;
      "--responses"; string_of_int census_space.Synth.num_responses;
      "--config"; Wire.to_string (Api.Config.to_json dist_config);
    |]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let t0 = now () in
  let pid = Unix.create_process rcn argv theirs devnull Unix.stderr in
  Unix.close theirs;
  Unix.close devnull;
  let hello =
    match Frame.read ours with
    | Frame.Frame s -> (match Api.Worker.msg_of_string s with Ok (Api.Worker.Hello _) -> true | _ -> false)
    | Frame.Eof | Frame.Bad _ -> false
  in
  let dt = now () -. t0 in
  (try Frame.write ours (Api.Worker.reply_to_string Api.Worker.Shutdown) with Unix.Unix_error _ -> ());
  Unix.close ours;
  ignore (Unix.waitpid [] pid);
  if not hello then fail "dist-census: %s worker did not say Hello" rcn;
  dt

let dist_workload ~rcn ~seed ~seconds ~min_units ~trace =
  let crash_after = dist_crash seed in
  fact "crash_after" (Wire.Int crash_after);
  let (), between = setup ~reps:5 ~again:5 (fun () -> ignore (spawn_to_hello rcn)) ignore in
  let digests = ref [] in
  let unit_of_work ~traced _ =
    let obs = if traced then Some (Obs.create ()) else None in
    let s0, c0 = cpu_times () in
    let out =
      Trace.with_span "dist" (fun () ->
          Dist.census ?obs ~rcn ~ledger:"ledger.log" ~crash:[ (1, crash_after) ] ~workers:dist_workers
            ~config:dist_config census_space)
    in
    let s1, c1 = cpu_times () in
    let digest = md5 (entries_string out.Dist.entries) in
    digests := digest :: !digests;
    op (out.Dist.complete && out.Dist.deaths >= 1 && digest = census_digest)
      (lazy (Printf.sprintf "dist-census: complete=%b deaths=%d digest=%s (pinned %s)"
               out.Dist.complete out.Dist.deaths digest census_digest));
    match obs with
    | None -> ()
    | Some o ->
        counters_to_layers o [ "dist.leases_granted"; "dist.leases_stolen"; "dist.workers_respawned" ];
        layer "dist.coordinator_cpu_s" (s1 -. s0);
        layer "dist.workers_cpu_s" (c1 -. c0)
  in
  timed_phase ~seconds ~min_units ~trace ~between unit_of_work;
  if trace then begin
    layer "dist.spawn_s" (median (List.init 5 (fun _ -> spawn_to_hello rcn)));
    let entries =
      [ { Census.discerning = 2; recording = 1; count = 1000 }; { Census.discerning = 4; recording = 2; count = 24 } ]
    in
    let pairs = 20_000 in
    let (), frame_s =
      time (fun () ->
          for i = 1 to pairs do
            let a = Api.Worker.reply_to_string (Api.Worker.Assign { lease = i; lo = i; hi = i + 5832; budget = None }) in
            let r = Api.Worker.msg_to_string (Api.Worker.Result { lease = i; lo = i; hi = i + 5832; entries }) in
            ignore (Api.Worker.reply_of_string a);
            ignore (Api.Worker.msg_of_string r)
          done)
    in
    layer "dist.frame_us" (frame_s /. float_of_int pairs *. 1e6);
    let expected = Dist_ledger.header ~space:census_space ~cap:census_cap ~total:(Census.space_size census_space) () in
    let ledger, _ = Dist_ledger.open_ledger ~expected ~resume:false "probe-ledger.log" in
    let appends = 200 in
    let (), append_s =
      time (fun () ->
          for i = 1 to appends do
            Dist_ledger.append ledger (Dist_ledger.Grant { lease = i; lo = i; hi = i + 1; worker = 0 })
          done)
    in
    Dist_ledger.close ledger;
    layer "dist.ledger_append_us" (append_s /. float_of_int appends *. 1e6)
  end;
  fact "digest" (Wire.String (List.hd !digests))

(* ------------------------------------------------------------------ *)
(* inputs: what the seed generates, digested *)

let inputs workload seed =
  match workload with
  | "census" | "census-sym" ->
      let space, cap = if workload = "census" then (census_space, census_cap) else (sym_space, sym_cap) in
      Printf.sprintf "space=%d,%d,%d cap=%d" space.Synth.num_values space.Synth.num_rws
        space.Synth.num_responses cap
  | "serve-mix" ->
      let next = request_stream seed in
      md5 (String.concat "\n" (List.init 500 (fun _ -> Api.Request.to_string (snd (next ())))))
  | "synth" ->
      let trajs = List.map (fun (c, _) -> snd (synth_trajectory ~iterations:300 c)) (synth_order seed) in
      md5 (String.concat ";" trajs)
  | "dist-census" -> Printf.sprintf "crash_after=%d" (dist_crash seed)
  | w -> fail "unknown workload %s" w

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let int_opt name default =
    match opt name args with
    | None -> default
    | Some v -> (match int_of_string_opt v with Some n -> n | None -> fail "%s wants an integer" name)
  in
  let seed = int_opt "--seed" 1 in
  match args with
  | "reference" :: _ ->
      print_endline (Wire.to_string (Wire.Obj [ ("ref_s", Wire.Float (snd (time reference_loop))) ]))
  | "inputs" :: workload :: _ ->
      print_endline (Wire.to_string (Wire.Obj [ ("workload", Wire.String workload); ("inputs", Wire.String (inputs workload seed)) ]))
  | "run" :: workload :: _ ->
      let seconds = float_of_int (int_opt "--seconds" 10) in
      let trace = int_opt "--trace" 0 = 1 in
      (* Under trace, traced and untraced units alternate: at least three of each. *)
      let min_units = int_opt "--units" (if trace then 6 else 3) in
      let full_check = int_opt "--full-check" 0 = 1 in
      let rcn = match opt "--rcn" args with Some p -> p | None -> fail "run wants --rcn PATH" in
      let dir = match opt "--dir" args with Some d -> d | None -> fail "run wants --dir DIR" in
      Sys.chdir dir;
      let t0 = now () in
      (match workload with
      | "census" -> census_workload ~sym:false ~seed ~seconds ~min_units ~trace
      | "census-sym" -> census_workload ~sym:true ~seed ~seconds ~min_units ~trace
      | "synth" -> synth_workload ~seed ~seconds ~min_units ~trace ~full_check
      | "serve-mix" -> serve_workload ~seed ~seconds ~min_units ~trace
      | "dist-census" -> dist_workload ~rcn ~seed ~seconds ~min_units ~trace
      | w -> fail "unknown workload %s" w);
      if trace then begin
        trace_summary ();
        Trace.write "spans.jsonl"
      end;
      List.iter (fun f -> prerr_endline ("perfbench: FAILED " ^ f)) (List.rev record.failures);
      let floats l = Wire.List (List.rev_map (fun v -> Wire.Float v) l) in
      let obj tbl f = Wire.Obj (List.sort compare (Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl [])) in
      print_endline
        (Wire.to_string
           (Wire.Obj
              [
                ("workload", Wire.String workload);
                ("seed", Wire.Int seed);
                ("trace", Wire.Bool trace);
                ("elapsed_s", Wire.Float (now () -. t0));
                ("attempted", Wire.Int record.attempted);
                ("failed", Wire.Int record.failed);
                ("facts", obj record.facts Fun.id);
                ("samples", obj record.samples floats);
                ("layers", obj record.layers (fun v -> Wire.Float v));
              ]))
  | _ -> fail "usage: perfbench.exe (run|inputs) WORKLOAD | reference --seed N [--seconds S --trace 0|1 --rcn PATH --dir DIR]"
