(* Tests for the witness synthesizer (experiment E6). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let space = { Synth.num_values = 5; num_rws = 4; num_responses = 5 }

let test_space_validation () =
  let bad f = check_bool "rejected" true (try ignore (f ()); false with Invalid_argument _ -> true) in
  bad (fun () -> Synth.seed_ladder { Synth.num_values = 1; num_rws = 2; num_responses = 2 });
  bad (fun () -> Synth.seed_ladder { Synth.num_values = 4; num_rws = 1; num_responses = 2 });
  bad (fun () -> Synth.seed_crossing { Synth.num_values = 4; num_rws = 4; num_responses = 5 });
  bad (fun () -> Synth.of_table space [| (0, 0) |]);
  bad (fun () -> Synth.of_table { space with Synth.num_values = 2 } (Array.make 8 (9, 0)))

let test_to_objtype_readable () =
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 20 do
    let ty = Synth.to_objtype (Synth.random_genome rng space) in
    check_bool "readable by construction" true (Objtype.is_readable ty);
    check_int "ops = rws + read" (space.Synth.num_rws + 1) ty.Objtype.num_ops
  done

let test_table_roundtrip () =
  let rng = Random.State.make [| 3 |] in
  let g = Synth.random_genome rng space in
  let g' = Synth.of_table space (Synth.table g) in
  check_bool "same type" true
    (Objtype.equal_behaviour (Synth.to_objtype g) (Synth.to_objtype g'));
  check_bool "space preserved" true (Synth.space_of g' = space)

let test_mutate_stays_in_space () =
  let rng = Random.State.make [| 11 |] in
  let g = ref (Synth.seed_crossing space) in
  for _ = 1 to 100 do
    g := Synth.mutate rng !g;
    (* of_table re-validates all entries *)
    ignore (Synth.of_table space (Synth.table !g))
  done

let test_mutate_never_noop () =
  (* The climb relies on this: a mutation that reproduced its argument
     would burn an iteration re-scoring the same table (and, with the
     symmetry memo, always replay as a skip).  Every draw must change
     exactly one cell, to a different entry. *)
  let rng = Random.State.make [| 23 |] in
  let g = ref (Synth.random_genome rng space) in
  for _ = 1 to 500 do
    let g' = Synth.mutate rng !g in
    let t = Synth.table !g and t' = Synth.table g' in
    let diffs = ref 0 in
    Array.iteri (fun i e -> if e <> t.(i) then incr diffs) t';
    check_int "exactly one cell changed" 1 !diffs;
    g := g'
  done

let small = { Synth.num_values = 5; num_rws = 3; num_responses = 5 }

let run_search ~incremental ?obs () =
  let trajectory = ref [] in
  let w =
    Synth.search ~seed:3 ~max_iterations:300 ~incremental ?obs
      ~on_score:(fun sc -> trajectory := sc :: !trajectory)
      ~target:4 small
  in
  (w, List.rev !trajectory)

let witness_spec = function
  | None -> "none"
  | Some w -> Objtype.to_spec_string w.Synth.objtype

let test_search_seeded_determinism () =
  (* Same seed, same space, same budget: the candidate stream, every
     score, and the outcome replay bit-identically across runs.  This is
     what lets the store memoize synth results by digest. *)
  let w1, t1 = run_search ~incremental:true () in
  let w2, t2 = run_search ~incremental:true () in
  check_bool "trajectories identical" true (t1 = t2);
  Alcotest.(check string) "outcomes identical" (witness_spec w1) (witness_spec w2)

let counter obs name =
  match List.assoc_opt name (Obs.Metrics.snapshot (Obs.metrics obs)) with
  | Some (Obs.Metrics.Count n) -> n
  | _ -> 0

let test_incremental_scratch_parity () =
  (* The e22 exactness contract, in-suite: warm-start stepped kernels
     and per-candidate recompilation draw identically from the RNG and
     must score every candidate identically — any divergence means a
     stepped kernel answered a query differently from a fresh compile.
     The incremental run must also actually exercise the machinery:
     evaluations, ladder skips, invalidated and surviving memo entries
     and symmetry skips all nonzero. *)
  let obs = Obs.create () in
  let w_inc, t_inc = run_search ~incremental:true ~obs () in
  let w_scr, t_scr = run_search ~incremental:false () in
  check_bool "trajectories identical" true (t_inc = t_scr);
  Alcotest.(check string) "outcomes identical" (witness_spec w_scr) (witness_spec w_inc);
  check_bool "evals counted" true (counter obs "synth.evals" > 0);
  check_bool "ladder skipped entries" true (counter obs "decide.entries_skipped" > 0);
  check_bool "memo entries survived steps" true (counter obs "kernel.masks_reused" > 0);
  check_bool "masks invalidated" true (counter obs "kernel.masks_invalidated" > 0);
  check_bool "symmetry memo hit" true (counter obs "synth.sym_skips" > 0)

let test_fitness_orbit_invariant () =
  (* The soundness condition behind the symmetry memo's score replay:
     fitness is an orbit invariant — relabeling values, RMW operations
     and responses cannot change any is-discerning / is-recording
     verdict (Read stays the fixed extra operation; its responses
     relabel with the values). *)
  let sp = { Synth.num_values = 4; num_rws = 2; num_responses = 3 } in
  let rng = Random.State.make [| 31 |] in
  let permutation n =
    let p = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = p.(i) in
      p.(i) <- p.(j);
      p.(j) <- t
    done;
    p
  in
  for _trial = 1 to 8 do
    let g = Synth.random_genome rng sp in
    let t = Synth.table g in
    let pv = permutation sp.Synth.num_values in
    let po = permutation sp.Synth.num_rws in
    let pr = permutation sp.Synth.num_responses in
    let t' = Array.make (Array.length t) (0, 0) in
    Array.iteri
      (fun i (r, v') ->
        let v = i / sp.Synth.num_rws and op = i mod sp.Synth.num_rws in
        t'.((pv.(v) * sp.Synth.num_rws) + po.(op)) <- (pr.(r), pv.(v')))
      t;
    let g' = Synth.of_table sp t' in
    check_int "fitness invariant under relabeling"
      (Synth.fitness ~target:4 g)
      (Synth.fitness ~target:4 g')
  done

let test_crossing_seed_is_witness () =
  (* The crossing seed embeds the verified x4 witness: full fitness. *)
  let g = Synth.seed_crossing space in
  check_int "full fitness" Synth.max_fitness (Synth.fitness ~target:4 g);
  check_bool "verifies" true (Synth.verify_witness ~target:4 (Synth.to_objtype g))

let test_ladder_seed_partial_fitness () =
  (* The ladder seed is a gap-1 type: it must score below max. *)
  let g = Synth.seed_ladder { Synth.num_values = 6; num_rws = 2; num_responses = 2 } in
  let f = Synth.fitness ~target:4 g in
  check_bool "partial" true (f < Synth.max_fitness)

let test_search_finds_witness () =
  match Synth.search ~seed:1 ~max_iterations:2_000 ~target:4 space with
  | Some w ->
      check_int "level 4" 4 w.Synth.discerning_level;
      check_int "level 2" 2 w.Synth.recording_level;
      check_bool "verified" true (Synth.verify_witness ~target:4 w.Synth.objtype)
  | None -> Alcotest.fail "seeded search must find the witness"

let test_verify_witness_rejects () =
  check_bool "ladder is not a gap-2 witness" false
    (Synth.verify_witness ~target:4 (Gallery.team_ladder ~cap:3));
  check_bool "non-readable rejected" false
    (Synth.verify_witness ~target:4 (Gallery.tnn ~n:4 ~n':2));
  check_bool "x4 gallery entry verifies" true (Synth.verify_witness ~target:4 Gallery.x4_witness)

let test_gallery_matches_crossing_seed () =
  (* The hard-coded gallery witness and the synthesizer's seed agree on the
     transition structure (value successor function); responses differ only
     in naming conventions. *)
  let seed_ty = Synth.to_objtype (Synth.seed_crossing space) in
  let gallery_ty = Gallery.x4_witness in
  for v = 0 to 4 do
    for op = 0 to 3 do
      check_int
        (Printf.sprintf "successor of v%d under op%d" v op)
        (snd (Objtype.apply gallery_ty v op))
        (snd (Objtype.apply seed_ty v op))
    done
  done

let test_fitness_requires_target_4 () =
  check_bool "target 3 rejected" true
    (try
       ignore (Synth.fitness ~target:3 (Synth.seed_crossing space));
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "space and table validation" `Quick test_space_validation;
    Alcotest.test_case "synthesized types are readable" `Quick test_to_objtype_readable;
    Alcotest.test_case "table round trip" `Quick test_table_roundtrip;
    Alcotest.test_case "mutation stays in the space" `Quick test_mutate_stays_in_space;
    Alcotest.test_case "mutation never reproduces its argument" `Quick test_mutate_never_noop;
    Alcotest.test_case "seeded search is deterministic" `Slow test_search_seeded_determinism;
    Alcotest.test_case "incremental and from-scratch search agree" `Slow
      test_incremental_scratch_parity;
    Alcotest.test_case "fitness is an orbit invariant" `Slow test_fitness_orbit_invariant;
    Alcotest.test_case "crossing seed is a full-fitness witness" `Quick test_crossing_seed_is_witness;
    Alcotest.test_case "ladder seed scores partial fitness" `Quick test_ladder_seed_partial_fitness;
    Alcotest.test_case "search finds a verified witness (E6)" `Slow test_search_finds_witness;
    Alcotest.test_case "verify_witness rejects non-witnesses" `Quick test_verify_witness_rejects;
    Alcotest.test_case "gallery witness matches the seed structure" `Quick test_gallery_matches_crossing_seed;
    Alcotest.test_case "fitness target validation" `Quick test_fitness_requires_target_4;
  ]
