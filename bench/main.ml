(* Benchmark harness: regenerates every experiment artifact (the paper has
   no empirical tables — its "results" are theorem statements about
   concrete objects; see DESIGN.md / EXPERIMENTS.md for the mapping) and
   times the machinery with bechamel, one Test.make per experiment plus the
   DESIGN.md ablations.

   Run with:  dune exec bench/main.exe *)

open Bechamel
open Toolkit

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let binary_inputs n = List.init (1 lsl n) (fun mask -> Array.init n (fun i -> (mask lsr i) land 1))

(* All wall timings below are on the monotonic clock: an NTP step during a
   bench run must not produce negative or inflated durations. *)
let time f =
  let t0 = Obs.Clock.now () in
  let r = f () in
  (r, Obs.Clock.now () -. t0)


(* ================================================================== *)
(* Part 1 — regenerate the experiment artifacts                        *)
(* ================================================================== *)

let e1_figure3 () =
  section "E1 — Figure 3: state machine of T_{5,2}";
  let t = Gallery.tnn ~n:5 ~n':2 in
  print_string (Dot.to_ascii t);
  Printf.printf "values: %d (paper: 2n = 10), merged edges: %d\n" t.Objtype.num_values
    (Dot.edge_count t)

let e2_wait_free () =
  section "E2 — wait-free n-consensus on T_{n,n'} (Lemma 15 lower bound)";
  List.iter
    (fun (n, n') ->
      let p = Tnn_protocol.wait_free ~n ~n' in
      let runs = ref 0 and bad = ref 0 in
      List.iter
        (fun inputs ->
          List.iter
            (fun sched ->
              incr runs;
              let final, _ = Exec.run_schedule p (Config.initial p ~inputs) sched in
              if not (Checker.is_ok (Checker.consensus p final)) then incr bad)
            (Sched.interleavings ~nprocs:n ~steps_per_proc:1))
        (binary_inputs n);
      Printf.printf "T_{%d,%d}: %5d exhaustive runs, %d violations\n" n n' !runs !bad)
    [ (2, 1); (3, 1); (4, 2); (5, 2) ]

let e3_recoverable () =
  section "E3 — recoverable n'-consensus on T_{n,n'} (Lemma 16 lower bound)";
  List.iter
    (fun (n, n') ->
      let p = Tnn_protocol.recoverable ~n ~n' in
      match Counterexample.certify ~z:1 ~inputs_list:(binary_inputs n') p with
      | Ok (), truncated ->
          Printf.printf "T_{%d,%d}: certified over E_1^* executions (exhaustive: %b)\n" n n'
            (not truncated)
      | Error r, _ ->
          Printf.printf "T_{%d,%d}: VIOLATION %s\n" n n' (Sched.to_string r.Counterexample.schedule))
    [ (2, 1); (3, 1); (4, 2); (3, 2) ]

let e4_overload () =
  section "E4 — the recoverable protocol breaks at n' + 1 processes (Lemma 16 upper bound)";
  List.iter
    (fun (n, n') ->
      let p = Tnn_protocol.recoverable_overloaded ~procs:(n' + 1) ~n ~n' in
      match Counterexample.search ~z:1 ~inputs_list:(binary_inputs (n' + 1)) p with
      | Some r ->
          Printf.printf "T_{%d,%d} with %d procs: violation, schedule [%s], inputs %s\n" n n'
            (n' + 1)
            (Sched.to_string r.Counterexample.schedule)
            (String.concat "" (List.map string_of_int (Array.to_list r.Counterexample.inputs)))
      | None -> Printf.printf "T_{%d,%d}: no violation found (UNEXPECTED)\n" n n')
    [ (3, 1); (4, 2) ]

let e5_gallery () =
  section "E5 — the hierarchy table: consensus vs recoverable consensus numbers";
  Printf.printf "%-18s %-9s %-6s %-6s %-6s %-6s\n" "type" "readable" "disc" "rec" "cons" "rcons";
  Pool.with_pool ~jobs:(Engine.default_jobs ()) @@ fun pool ->
  List.iter
    (fun a -> Format.printf "%a@." Analysis.pp a)
    (Engine.analyze_all ~config:(Api.Config.v ~cap:5 ()) pool
       (List.map snd (Gallery.all ())))

let e6_witness () =
  section "E6 — the X_4 gap witness (corollary to Theorem 13)";
  let space = { Synth.num_values = 5; num_rws = 4; num_responses = 5 } in
  (match Synth.search ~seed:1 ~max_iterations:2_000 ~target:4 space with
  | Some w ->
      Printf.printf "search found a witness after %d evaluations\n" w.Synth.iterations
  | None -> Printf.printf "search failed (UNEXPECTED)\n");
  Printf.printf "gallery witness verified: %b (cn 4, rcn 2; paper: X_4 has cn 4, rcn 2)\n"
    (Synth.verify_witness ~target:4 Gallery.x4_witness);
  (* The generalized crossing family: explicit witnesses for every n >= 4. *)
  List.iter
    (fun n ->
      let ty = Gallery.crossing_witness ~n in
      Printf.printf "crossing-x%d (%d values): verified cn %d / rcn %d: %b\n" n
        ty.Objtype.num_values n (n - 2)
        (Synth.verify_witness ~target:n ty))
    [ 4; 5; 6; 7 ]

let e7_robustness () =
  section "E7 — robustness of the recoverable hierarchy (Theorem 14)";
  let r =
    Robustness.analyze ~cap:4
      [ Gallery.test_and_set; Gallery.team_ladder ~cap:2; Gallery.x4_witness; Gallery.register 2 ]
  in
  Format.printf "%a@." Robustness.pp_report r;
  (* Theorem 14 on combined objects: decide the product type directly. *)
  List.iter
    (fun (a, b) ->
      Format.printf "%a@." Robustness.pp_product_report (Robustness.check_product ~cap:4 a b))
    [
      (Gallery.test_and_set, Gallery.test_and_set);
      (Gallery.test_and_set, Gallery.team_ladder ~cap:2);
      (Gallery.register 2, Gallery.team_ladder ~cap:2);
    ]

let e11_census () =
  section "E11 — census of the small-type landscape";
  let space = { Synth.num_values = 3; num_rws = 2; num_responses = 2 } in
  Printf.printf "all %d readable types with 3 values, 2 RMW ops, 2 responses (cap 4):\n"
    (Census.space_size space);
  let run jobs =
    Pool.with_pool ~jobs @@ fun pool ->
    time (fun () -> Engine.census ~config:(Api.Config.v ~cap:4 ()) pool space)
  in
  let run1, t1 = run 1 in
  let run4, t4 = run 4 in
  let entries = run1.Engine.entries and entries4 = run4.Engine.entries in
  Format.printf "%a@." Census.pp entries;
  Printf.printf "gap-1 share at level 3 (disc 3, rec 2): %.3f%%\n"
    (100.0 *. Census.gap_share entries ~levels:(3, 2));
  assert (run1.Engine.complete && run4.Engine.complete);
  assert (entries = entries4);
  Printf.printf
    "engine census: jobs=1 %.2fs, jobs=4 %.2fs (speedup %.2fx on %d cores), histograms identical: %b\n"
    t1 t4 (t1 /. t4)
    (Domain.recommended_domain_count ())
    (entries = entries4)

let e8_valency () =
  section "E8 — valency machinery on a live protocol (Lemmas 6-9, Obs. 11)";
  let p = Classic.sticky_consensus ~nprocs:2 in
  let ctx = Explore.create ~z:1 p in
  let root = Explore.root ctx ~inputs:[| 0; 1 |] in
  (match Explore.find_critical ctx root with
  | Some crit ->
      Printf.printf "critical execution: [%s]\n" (Sched.to_string (Explore.schedule_to crit));
      List.iter (fun (p, v) -> Printf.printf "  p%d on team %d\n" p v) (Explore.teams ctx crit);
      Printf.printf "  classification: %s\n"
        (match Explore.classify ctx crit with
        | Explore.N_recording -> "n-recording"
        | Explore.Hiding v -> Printf.sprintf "%d-hiding" v
        | Explore.Neither -> "neither")
  | None -> Printf.printf "no critical execution (UNEXPECTED)\n");
  let nodes, truncated = Explore.count_nodes ctx root ~max_nodes:1_000_000 in
  Printf.printf "explored E_1^* nodes: %d (truncated: %b)\n" nodes truncated;
  (* Theorem 13's chain on the paper's own protocol: the critical execution
     passes through crashes before reaching an n-recording configuration. *)
  let p = Tnn_protocol.recoverable ~n:4 ~n':2 in
  let ctx = Explore.create ~z:1 ~max_events:80 p in
  (match Explore.theorem13_chain ctx (Explore.root ctx ~inputs:[| 1; 0 |]) with
  | steps, Explore.Reached_recording ->
      List.iter
        (fun (s : Explore.chain_step) ->
          Printf.printf "T_{4,2} chain: critical [%s] -> %s\n"
            (Sched.to_string s.Explore.schedule)
            (match s.Explore.step_classification with
            | Explore.N_recording -> "n-recording"
            | Explore.Hiding v -> Printf.sprintf "%d-hiding" v
            | Explore.Neither -> "neither"))
        steps
  | _, Explore.Exhausted i -> Printf.printf "T_{4,2} chain exhausted at %d\n" i
  | _, Explore.Stuck m -> Printf.printf "T_{4,2} chain stuck: %s\n" m)

let e9_decider_scaling () =
  section "E9 — cost of the determining procedure";
  Printf.printf "%-18s %3s %12s %12s\n" "type" "n" "candidates" "naive";
  List.iter
    (fun (name, ty, n) ->
      Printf.printf "%-18s %3d %12d %12d\n" name n
        (Decide.count_candidates ty ~n)
        (Decide.count_candidates ~naive:true ty ~n))
    [
      ("test-and-set", Gallery.test_and_set, 3);
      ("team-ladder-2", Gallery.team_ladder ~cap:2, 3);
      ("team-ladder-2", Gallery.team_ladder ~cap:2, 4);
      ("x4-witness", Gallery.x4_witness, 4);
      ("T_{4,2}", Gallery.tnn ~n:4 ~n':2, 4);
    ];
  (* Engine ablations: domain fan-out and the shared closure cache.  The
     refutation of 5-recording on x4-witness scans the whole candidate
     space — the engine's best case. *)
  let x4 = Gallery.x4_witness in
  let jobs_hi = max 2 (Engine.default_jobs ()) in
  let run jobs =
    Pool.with_pool ~jobs @@ fun pool ->
    time (fun () -> Engine.search ~config:Api.Config.default pool Decide.Recording x4 ~n:5)
  in
  let r1, t1 = run 1 in
  let rn, tn = run jobs_hi in
  Printf.printf
    "engine refute 5-recording(x4): jobs=1 %.3fs, jobs=%d %.3fs (speedup %.2fx, same outcome: %b)\n"
    t1 jobs_hi tn (t1 /. tn)
    (Option.is_none r1 = Option.is_none rn);
  let cache = Engine.Cache.create () in
  Pool.with_pool ~jobs:1 @@ fun pool ->
  let cap4 = Api.Config.v ~cap:4 () in
  let _, cold = time (fun () -> Engine.analyze ~cache ~config:cap4 pool x4) in
  let _, warm = time (fun () -> Engine.analyze ~cache ~config:cap4 pool x4) in
  let stats = Engine.Cache.stats cache in
  Printf.printf
    "engine closure cache analyze(x4, cap 4): cold %.3fs, warm %.6fs; outcome probes %d = hits %d + misses %d + expired %d, schedule hits %d, misses %d\n"
    cold warm stats.Engine.Cache.probes stats.Engine.Cache.hits
    stats.Engine.Cache.misses stats.Engine.Cache.expired
    stats.Engine.Cache.sched_hits stats.Engine.Cache.sched_misses

let e10_universal () =
  section "E10 — universality: a crash-recoverable linearizable queue";
  let base = Gallery.bounded_queue () in
  let workload = [| [ 0; 2; 1 ]; [ 1; 2 ]; [ 2; 2; 0 ] |] in
  let p = Universal.build ~base ~base_initial:0 workload in
  let total = ref 0 and ok = ref 0 in
  for seed = 1 to 300 do
    incr total;
    let adv = Adversary.random ~crash_prob:0.3 ~seed ~nprocs:3 in
    let c0 = Config.initial p ~inputs:[| 0; 0; 0 |] in
    let final, _, out =
      Exec.run_adversary p c0
        ~pick:(fun ~decided b -> adv ~decided b)
        ~budget:(Budget.counter ~z:1 ~nprocs:3)
        ~fuel:3000 ()
    in
    let report = Universal.check_linearizable p ~base ~base_initial:0 workload final in
    if out.Exec.all_decided && report.Universal.ok then incr ok
  done;
  Printf.printf "crashing adversaries: %d/%d runs complete and linearizable\n" !ok !total

let e14_open_question_probe () =
  section "E14 — probe of the paper's open question (robustness for all deterministic types)";
  print_endline
    "The paper leaves open whether the recoverable hierarchy is robust for\n\
     non-readable deterministic types.  The necessary condition (recording\n\
     levels) can be measured on products of non-readable types — data, not\n\
     a resolution: recording is not sufficient without readability.";
  let level name ty =
    let d = Numbers.max_discerning ~cap:4 ty in
    let r = Numbers.max_recording ~cap:4 ty in
    Printf.printf "%-30s disc=%s rec=%s\n" name
      (Analysis.level_to_string d) (Analysis.level_to_string r)
  in
  let t31 = Gallery.tnn ~n:3 ~n':1 in
  level "T_{3,1}" t31;
  level "T_{3,1} x test-and-set" (Objtype.product ~joint_read:false t31 Gallery.test_and_set);
  level "T_{3,1} x T_{3,1}" (Objtype.product ~joint_read:false t31 t31);
  print_endline "no boost observed at these instances."

let e15_tournament () =
  section "E15 — n-process recoverable consensus via certificate tournaments";
  List.iter
    (fun (cap, n) ->
      match Tournament.plan (Gallery.team_ladder ~cap) ~nprocs:n with
      | Error m -> Printf.printf "n=%d on team-ladder-%d: plan failed (%s)\n" n cap m
      | Ok plan ->
          let p = Tournament.consensus plan in
          let bad = ref 0 and incomplete = ref 0 and runs = ref 0 in
          for seed = 1 to 40 do
            let inputs = Array.init n (fun i -> (seed + i) mod 2) in
            incr runs;
            let adv = Adversary.random ~crash_prob:0.25 ~seed ~nprocs:n in
            let c0 = Config.initial p ~inputs in
            let final, _, out =
              Exec.run_adversary p c0
                ~pick:(fun ~decided b -> adv ~decided b)
                ~budget:(Budget.counter ~z:1 ~nprocs:n)
                ~fuel:4000 ()
            in
            if not out.Exec.all_decided then incr incomplete
            else if not (Checker.is_ok (Checker.consensus p final)) then incr bad
          done;
          Printf.printf
            "n=%d on team-ladder-%d: %d nodes, %d crash-storm runs, %d violations, %d incomplete\n"
            n cap (Tournament.node_count plan) !runs !bad !incomplete)
    [ (3, 3); (4, 4); (5, 5) ];
  (match Tournament.plan (Gallery.team_ladder ~cap:4) ~nprocs:5 with
  | Error m -> Printf.printf "n=5 on team-ladder-4 (rcn 4): correctly unplannable (%s)\n" m
  | Ok _ -> Printf.printf "n=5 on team-ladder-4: UNEXPECTEDLY plannable\n")

let e16_inject () =
  section "E16 — fault injection: shrinking cost and deadline-cutoff fidelity";
  (* Shrinking cost over the known-broken trio: raw vs minimal schedule
     lengths and the replay validations spent getting there. *)
  let targets =
    [
      ("race", Inject.Target (Classic.register_race ~nprocs:2));
      ("tas2", Inject.Target Classic.tas_consensus_2);
      ( "tnn-overloaded",
        Inject.Target (Tnn_protocol.recoverable_overloaded ~procs:2 ~n:3 ~n':1) );
    ]
  in
  let grid = Inject.default_grid ~seeds:3 () in
  let report, campaign_time = time (fun () -> Inject.run ~grid targets) in
  let fs = Inject.findings report in
  Printf.printf "campaign: %d violations, %d shrunk findings, %.2fs total\n"
    (Inject.total_violations report)
    (List.length fs) campaign_time;
  List.iter
    (fun (f : Inject.finding) ->
      Printf.printf "  %-15s %-22s seed %d: %3d -> %2d events, %4d replays\n"
        f.Inject.protocol f.Inject.adversary f.Inject.seed
        (Sched.length f.Inject.raw) (Sched.length f.Inject.shrunk) f.Inject.replays)
    fs;
  (* Deadline-cutoff fidelity: a cut analysis never reports more than the
     uncut one established, and always flags itself as a lower bound. *)
  Pool.with_pool ~jobs:(Engine.default_jobs ()) @@ fun pool ->
  let x4 = Gallery.x4_witness in
  let full = Engine.analyze ~config:(Api.Config.v ~cap:4 ()) pool x4 in
  let honest (tag : string) (a : Analysis.t) =
    let sub (cut : Analysis.level) (ref_ : Analysis.level) =
      cut.Analysis.value <= ref_.Analysis.value
      && (cut.Analysis.status = Analysis.Exact || cut.Analysis.value < ref_.Analysis.value
          || cut.Analysis.status = Analysis.At_least)
    in
    Printf.printf
      "deadline %s: disc %s, rec %s — within the uncut result: %b\n" tag
      (Analysis.level_to_string a.Analysis.discerning)
      (Analysis.level_to_string a.Analysis.recording)
      (sub a.Analysis.discerning full.Analysis.discerning
      && sub a.Analysis.recording full.Analysis.recording)
  in
  honest "expired"
    (Engine.analyze ~config:(Api.Config.v ~cap:4 ~deadline:(-1.0) ()) pool x4);
  honest "50ms" (Engine.analyze ~config:(Api.Config.v ~cap:4 ~deadline:0.05 ()) pool x4);
  (* Census cut by a deadline, checkpointed, resumed: the stitched-together
     histogram must equal the uninterrupted sequential one. *)
  let space = { Synth.num_values = 3; num_rws = 2; num_responses = 2 } in
  let ckpt = Filename.temp_file "rcn-census" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists ckpt then Sys.remove ckpt)
    (fun () ->
      let cap3 = Api.Config.v ~cap:3 () in
      let cut =
        Engine.census ~checkpoint:ckpt
          ~config:(Api.Config.v ~cap:3 ~deadline:0.1 ())
          pool space
      in
      let resumed = Engine.census ~checkpoint:ckpt ~resume:true ~config:cap3 pool space in
      let seq = Pool.with_pool ~jobs:1 @@ fun p1 -> Engine.census ~config:cap3 p1 space in
      Printf.printf
        "census cut at 100ms: %d/%d decided; resume recomputed %d; stitched \
         histogram identical to uninterrupted jobs=1: %b\n"
        cut.Engine.completed cut.Engine.total
        (resumed.Engine.completed - resumed.Engine.resumed)
        (resumed.Engine.complete && resumed.Engine.entries = seq.Engine.entries))

let e17_obs_overhead () =
  section "E17 — observability overhead on the E9 workload (null-sink budget: < 5%)";
  (* The E9 ablation workload: refute 5-recording on x4-witness, a full
     candidate sweep through the fan-out path.  Instrumented = a live
     [Obs.t] with the null sink (metrics accumulate, nothing is emitted) —
     the mode a production run with [--stats] but no [--trace] pays for.
     Best-of-3 each to damp scheduler noise. *)
  let x4 = Gallery.x4_witness in
  let jobs = max 2 (Engine.default_jobs ()) in
  let sweep ?obs () =
    Pool.with_pool ?obs ~jobs @@ fun pool ->
    ignore (Engine.search ?obs ~config:Api.Config.default pool Decide.Recording x4 ~n:5)
  in
  let best_of k f =
    sweep ?obs:None () |> ignore;
    (* warm-up: page in schedules *)
    let best = ref infinity in
    for _ = 1 to k do
      let (), t = time f in
      if t < !best then best := t
    done;
    !best
  in
  let bare = best_of 3 (fun () -> sweep ()) in
  let obs = Obs.create () in
  let instrumented = best_of 3 (fun () -> sweep ~obs ()) in
  let overhead = 100.0 *. ((instrumented -. bare) /. bare) in
  Printf.printf
    "refute 5-recording(x4) at jobs=%d: bare %.3fs, null-sink obs %.3fs, overhead %+.2f%% (budget 5%%)\n"
    jobs bare instrumented overhead;
  let candidates =
    Obs.Metrics.Counter.value (Obs.counter obs "engine.candidates")
  in
  Printf.printf "candidates counted: %d across %d instrumented sweeps\n" candidates 3

let reproduce () =
  e1_figure3 ();
  e2_wait_free ();
  e3_recoverable ();
  e4_overload ();
  e5_gallery ();
  e6_witness ();
  e7_robustness ();
  e8_valency ();
  e9_decider_scaling ();
  e10_universal ();
  e11_census ();
  e14_open_question_probe ();
  e15_tournament ();
  e16_inject ();
  e17_obs_overhead ();
  ignore (Kernel_ablation.run ())

(* ================================================================== *)
(* Part 2 — bechamel timings, one test per experiment + ablations      *)
(* ================================================================== *)

let bench_tests () =
  let t52 = Gallery.tnn ~n:5 ~n':2 in
  let ladder2 = Gallery.team_ladder ~cap:2 in
  let x4 = Gallery.x4_witness in
  let e1 = Test.make ~name:"e1/fig3-render" (Staged.stage (fun () -> Dot.to_dot t52)) in
  let e2 =
    let p = Tnn_protocol.wait_free ~n:4 ~n':2 in
    let scheds = Sched.interleavings ~nprocs:4 ~steps_per_proc:1 in
    let inputs = [| 0; 1; 0; 1 |] in
    Test.make ~name:"e2/tnn-waitfree"
      (Staged.stage (fun () ->
           List.iter
             (fun s -> ignore (Exec.run_schedule p (Config.initial p ~inputs) s))
             scheds))
  in
  let e3 =
    let p = Tnn_protocol.recoverable ~n:4 ~n':2 in
    Test.make ~name:"e3/tnn-recoverable-certify"
      (Staged.stage (fun () ->
           ignore (Counterexample.certify ~z:1 ~inputs_list:[ [| 0; 1 |] ] p)))
  in
  let e4 =
    let p = Tnn_protocol.recoverable_overloaded ~procs:2 ~n:3 ~n':1 in
    Test.make ~name:"e4/tnn-break-search"
      (Staged.stage (fun () ->
           ignore (Counterexample.search ~z:1 ~inputs_list:[ [| 0; 1 |] ] p)))
  in
  let e5 =
    Test.make ~name:"e5/analyze-tas" (Staged.stage (fun () -> Numbers.analyze ~cap:4 Gallery.test_and_set))
  in
  let e6 =
    Test.make ~name:"e6/witness-fitness"
      (Staged.stage
         (let g = Synth.seed_crossing { Synth.num_values = 5; num_rws = 4; num_responses = 5 } in
          fun () -> Synth.fitness ~target:4 g))
  in
  let e7 =
    Test.make ~name:"e7/robustness-3types"
      (Staged.stage (fun () ->
           Robustness.analyze ~cap:3 [ Gallery.test_and_set; ladder2; Gallery.register 2 ]))
  in
  let e8 =
    let p = Classic.sticky_consensus ~nprocs:2 in
    Test.make ~name:"e8/critical-search"
      (Staged.stage (fun () ->
           let ctx = Explore.create ~z:1 p in
           Explore.find_critical ctx (Explore.root ctx ~inputs:[| 0; 1 |])))
  in
  let e9_pruned =
    Test.make ~name:"e9/recording-x4-n4"
      (Staged.stage (fun () -> Decide.search Decide.Recording x4 ~n:4))
  in
  let e9_naive =
    Test.make ~name:"e9/recording-x4-n4-naive"
      (Staged.stage (fun () -> Decide.search ~naive:true Decide.Recording x4 ~n:4))
  in
  let e9_disc =
    Test.make ~name:"e9/discerning-x4-n4"
      (Staged.stage (fun () -> Decide.search Decide.Discerning x4 ~n:4))
  in
  let e10 =
    let base = Gallery.bounded_queue () in
    let workload = [| [ 0; 2 ]; [ 1; 2 ] |] in
    let p = Universal.build ~base ~base_initial:0 workload in
    Test.make ~name:"e10/universal-queue-run"
      (Staged.stage (fun () ->
           let adv = Adversary.round_robin ~nprocs:2 in
           Exec.run_adversary p
             (Config.initial p ~inputs:[| 0; 0 |])
             ~pick:(fun ~decided b -> adv ~decided b)
             ~budget:(Budget.counter ~z:1 ~nprocs:2)
             ~fuel:200 ()))
  in
  let e11 =
    Test.make ~name:"e11/census-sample-100"
      (Staged.stage (fun () ->
           Pool.with_pool ~jobs:1 @@ fun pool ->
           Engine.census ~sample:(100, 5) ~config:(Api.Config.v ~cap:3 ()) pool
             { Synth.num_values = 3; num_rws = 2; num_responses = 2 }))
  in
  let e7_product =
    Test.make ~name:"e7/product-decider"
      (Staged.stage (fun () ->
           Robustness.check_product ~cap:3 Gallery.test_and_set ladder2))
  in
  let e12_sim =
    let p = Classic.cas_consensus ~nprocs:2 in
    Test.make ~name:"e12/simultaneous-certify"
      (Staged.stage (fun () ->
           Simultaneous.certify ~max_crashes:2 ~inputs_list:[ [| 0; 1 |] ] p))
  in
  let e10_helping =
    let base = Gallery.bounded_queue () in
    let workload = [| [ 0; 2 ]; [ 1; 2 ] |] in
    let p = Universal.build_helping ~base ~base_initial:0 workload in
    Test.make ~name:"e10/universal-helping-run"
      (Staged.stage (fun () ->
           let adv = Adversary.round_robin ~nprocs:2 in
           Exec.run_adversary p
             (Config.initial p ~inputs:[| 0; 0 |])
             ~pick:(fun ~decided b -> adv ~decided b)
             ~budget:(Budget.counter ~z:1 ~nprocs:2)
             ~fuel:400 ()))
  in
  let e15 =
    Test.make ~name:"e15/tournament-plan-3"
      (Staged.stage (fun () -> Tournament.plan (Gallery.team_ladder ~cap:3) ~nprocs:3))
  in
  let e16_shrink =
    (* One campaign at staging time pins a concrete violating schedule; the
       benchmark then times the shrink alone. *)
    let tgt = Inject.Target Classic.tas_consensus_2 in
    let report = Inject.run ~grid:(Inject.default_grid ~seeds:3 ()) [ ("tas2", tgt) ] in
    match Inject.findings report with
    | f :: _ ->
        Test.make ~name:"e16/shrink-tas2"
          (Staged.stage (fun () ->
               Inject.shrink tgt ~inputs:f.Inject.inputs ~z:1 ~fuel:2000
                 ~violation:f.Inject.violation f.Inject.raw))
    | [] -> Test.make ~name:"e16/shrink-tas2" (Staged.stage (fun () -> (([] : Sched.t), 0)))
  in
  let ablation_schedules =
    Test.make ~name:"ablation/s5-enumeration"
      (Staged.stage (fun () -> Sched.at_most_once ~nprocs:5))
  in
  let ablation_frontier_ez_star =
    let p = Tnn_protocol.recoverable ~n:3 ~n':1 in
    Test.make ~name:"ablation/frontier-z1"
      (Staged.stage (fun () ->
           let ctx = Explore.create ~z:1 p in
           Explore.count_nodes ctx (Explore.root ctx ~inputs:[| 0 |]) ~max_nodes:100_000))
  in
  Test.make_grouped ~name:"rcn"
    [
      e1; e2; e3; e4; e5; e6; e7; e7_product; e8; e9_pruned; e9_naive; e9_disc; e10;
      e10_helping; e11; e12_sim; e15; e16_shrink; ablation_schedules;
      ablation_frontier_ez_star;
    ]

let run_benchmarks () =
  section "Timings (bechamel, monotonic clock)";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances (bench_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Printf.printf "%-34s %16s %8s\n" "benchmark" "ns/run" "r^2";
  List.iter
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
      in
      let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
      Printf.printf "%-34s %16.1f %8.4f\n" name estimate r2)
    rows

let () =
  reproduce ();
  run_benchmarks ()
