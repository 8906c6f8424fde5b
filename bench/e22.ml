(* E22: incremental decision kernel (make bench-e22).

   Two runs of the same E6 witness search — the target-4 (X_4-class)
   synthesis climb, space {11,3,11}, fixed seed, fixed candidate
   budget:

     incremental  Synth.search ~incremental:true — one long-lived
                  kernel + scratch per fitness level held across the
                  whole climb, each level Kernel.step'ped to a
                  candidate's table at its first consultation (delta
                  invalidation of the per-(u, ops) evaluation memo: only
                  the entries that read a changed cell are refolded, and
                  a rejected candidate is left by stepping to the next
                  one), the two upper levels deciding through
                  Kernel.exists ~below, as a census climbs its ladder;
     from-scratch Synth.search ~incremental:false — kernels recompiled
                  and memos rebuilt on every candidate (the baseline
                  the pre-incremental synthesizer always paid).

   Both modes draw identically from the RNG and score identical
   candidate sequences, so the fitness trajectory (every candidate's
   score, in order) and the final outcome must be bit-identical — any
   divergence means the stepped kernels answered a query differently
   from a fresh compile, and the bench fails hard on it (exactness is
   the contract, never waived).  Writes BENCH_e22.json and exits
   nonzero on divergence, on a speedup below [speedup_floor], or if
   the incremental run never exercised the step memo (no entry
   invalidated by a step, or none reused after one).

   The workload is the search's warm-start regime and says so: one
   ladder-seeded climb (the candidate budget stays below the restart
   threshold), where the fitness cascade short-circuits early and a
   candidate costs a few delta-driven recording evaluations against a
   recompile-plus-fresh-sweep.  In this regime a candidate folds few
   entries, so its fixed costs — building the candidate's type and
   stepping each consulted level to it — weigh as much as the folds.
   Once a climb parks on the not-(target-1)-recording plateau, every
   candidate pays a discerning refutation sweep whose incremental cost
   is bounded below by the invalidation fraction f (the share of memo
   entries whose folds read a random edited cell), so the deep-budget
   ratio is ~1/f — EXPERIMENTS.md E6 and E24 report the budget/space
   table for both regimes, and E31 the ratios of this bench.

   Timing: [reps] pairs, the two modes alternating run by run (the mode
   that runs first alternates per pair), gated on the median of the
   per-pair ratios.  A run takes ~20 ms, so a scheduler stall or clock
   change lands on neighbouring runs of both modes alike instead of on
   one mode's whole block of reps. *)

let speedup_floor = 3.0

let space = { Synth.num_values = 11; num_rws = 3; num_responses = 11 }
let target = 4
let seed = 1
let iterations = 2_000
let reps = 11

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let counter_value obs name =
  match List.assoc_opt name (Obs.Metrics.snapshot (Obs.metrics obs)) with
  | Some (Obs.Metrics.Count n) -> n
  | _ -> 0

(* One timed run of one mode. *)
let run ~incremental =
  let obs = Obs.create () in
  let trajectory = ref [] in
  let w, s =
    time (fun () ->
        Synth.search ~seed ~max_iterations:iterations ~incremental ~obs
          ~on_score:(fun sc -> trajectory := sc :: !trajectory)
          ~target space)
  in
  (w, s, List.rev !trajectory, obs)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let () =
  Printf.printf "e22: synth {%d,%d,%d} target %d seed %d, %d candidates\n%!"
    space.Synth.num_values space.Synth.num_rws space.Synth.num_responses target seed
    iterations;
  (* The schedule tries for n = 2 .. target are process-count-global and
     memoized; warm them so neither timed run pays the one-time build. *)
  for n = 2 to target do
    Kernel.warm_trie ~nprocs:n ()
  done;

  let pairs =
    List.init reps (fun i ->
        if i mod 2 = 0 then
          let inc = run ~incremental:true in
          (inc, run ~incremental:false)
        else
          let scr = run ~incremental:false in
          (run ~incremental:true, scr))
  in
  let (w_inc, _, traj_inc, obs_inc), (w_scr, _, traj_scr, obs_scr) = List.hd pairs in
  let inc_s = median (List.map (fun ((_, s, _, _), _) -> s) pairs) in
  let scr_s = median (List.map (fun (_, (_, s, _, _)) -> s) pairs) in
  let speedup = median (List.map (fun ((_, i, _, _), (_, s, _, _)) -> s /. i) pairs) in
  let evals = counter_value obs_inc "synth.evals" in
  let skips = counter_value obs_inc "synth.sym_skips" in
  let skipped = counter_value obs_inc "decide.entries_skipped" in
  let invalidated = counter_value obs_inc "kernel.masks_invalidated" in
  let reused = counter_value obs_inc "kernel.masks_reused" in
  Printf.printf
    "e22: incremental  %6.3f s — %d evals, %d sym skips, %d entries skipped, %d masks invalidated, %d reused\n%!"
    inc_s evals skips skipped invalidated reused;
  let evals_scr = counter_value obs_scr "synth.evals" in
  Printf.printf "e22: from-scratch %6.3f s — %d evals\n%!" scr_s evals_scr;

  let witness_spec = function
    | None -> "none"
    | Some w -> Objtype.to_spec_string w.Synth.objtype
  in
  (* Every repetition's trajectory is compared — a divergence in any run
     fails the bench, not just the first pair's. *)
  let trajectory_identical =
    traj_inc = traj_scr
    && List.for_all (fun ((_, _, ti, _), (_, _, ts, _)) -> ti = traj_inc && ts = traj_inc) pairs
  in
  let witness_identical =
    evals = evals_scr && String.equal (witness_spec w_inc) (witness_spec w_scr)
  in
  let stepped = invalidated > 0 && reused > 0 in
  let evals_per_s s = float_of_int evals /. s in
  let json =
    Wire.Obj
      [
        ("bench", Wire.String "e22");
        ( "space",
          Wire.List
            [
              Wire.Int space.Synth.num_values;
              Wire.Int space.Synth.num_rws;
              Wire.Int space.Synth.num_responses;
            ] );
        ("target", Wire.Int target);
        ("seed", Wire.Int seed);
        ("iterations", Wire.Int iterations);
        ("reps", Wire.Int reps);
        ("evals", Wire.Int evals);
        ("sym_skips", Wire.Int skips);
        ("entries_skipped", Wire.Int skipped);
        ("masks_invalidated", Wire.Int invalidated);
        ("masks_reused", Wire.Int reused);
        ("incremental_s", Wire.Float inc_s);
        ("scratch_s", Wire.Float scr_s);
        ("incremental_evals_per_s", Wire.Float (evals_per_s inc_s));
        ("scratch_evals_per_s", Wire.Float (evals_per_s scr_s));
        ("speedup", Wire.Float speedup);
        ("speedup_floor", Wire.Float speedup_floor);
        ("trajectory_identical", Wire.Bool trajectory_identical);
        ("witness_identical", Wire.Bool witness_identical);
      ]
  in
  Out_channel.with_open_bin "BENCH_e22.json" (fun oc ->
      Out_channel.output_string oc (Wire.to_string json);
      Out_channel.output_char oc '\n');
  Printf.printf
    "e22: %.0f vs %.0f evals/s, median pair speedup %.2fx (floor %.1fx), trajectory_identical=%b → BENCH_e22.json\n%!"
    (evals_per_s inc_s) (evals_per_s scr_s) speedup speedup_floor
    trajectory_identical;
  if not trajectory_identical then begin
    Printf.eprintf "e22: fitness trajectories diverged between incremental and from-scratch\n";
    exit 1
  end;
  if not witness_identical then begin
    Printf.eprintf "e22: search outcomes diverged between incremental and from-scratch\n";
    exit 1
  end;
  if not stepped then begin
    Printf.eprintf
      "e22: incremental run never exercised the step memo (masks_invalidated=%d masks_reused=%d)\n"
      invalidated reused;
    exit 1
  end;
  if speedup < speedup_floor then begin
    Printf.eprintf "e22: incremental speedup %.2fx below the %.1fx floor\n" speedup
      speedup_floor;
    exit 1
  end
