(* Tests for the deciders and the consensus-number computations — the
   paper's "determining" procedure, validated against every anchor the
   literature provides. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let bound = Alcotest.testable Numbers.pp_bound Numbers.equal_bound

let disc ?cap t = Numbers.bound_of_level (Numbers.max_discerning ?cap t)
let record ?cap t = Numbers.bound_of_level (Numbers.max_recording ?cap t)

(* ------------------------------------------------------------------ *)
(* Certificates *)

let ladder_cert () =
  match Decide.search Decide.Recording (Gallery.team_ladder ~cap:2) ~n:2 with
  | Some c -> c
  | None -> Alcotest.fail "team-ladder-2 must be 2-recording"

let test_certificate_validation () =
  let ty = Gallery.test_and_set in
  let mk team ops = Certificate.make ~objtype:ty ~initial:0 ~team ~ops in
  Alcotest.check_raises "empty team"
    (Invalid_argument "Certificate.make: both teams must be nonempty") (fun () ->
      ignore (mk [| false; false |] [| 0; 0 |]));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Certificate.make: team and ops lengths differ") (fun () ->
      ignore (mk [| false; true |] [| 0 |]));
  Alcotest.check_raises "op out of range"
    (Invalid_argument "Certificate.make: operation out of range") (fun () ->
      ignore (mk [| false; true |] [| 0; 9 |]));
  Alcotest.check_raises "initial out of range"
    (Invalid_argument "Certificate.make: initial value out of range") (fun () ->
      ignore (Certificate.make ~objtype:ty ~initial:7 ~team:[| false; true |] ~ops:[| 0; 0 |]))

let test_certificate_replay () =
  let c = ladder_cert () in
  let responses, final = Certificate.replay c [ 0; 1 ] in
  check_bool "responses present" true (responses <> None);
  (* first op is team 0's op_0 -> chain stays on side 0 *)
  check_bool "final on side 0" true (Certificate.first_team_of_value c final = Some false);
  let _, final_empty = Certificate.replay c [] in
  check_int "empty replay is initial" c.Certificate.initial final_empty

let test_tas_2_discerning_certificate () =
  (* The classical TAS certificate: u = unset, both processes apply TAS. *)
  let cert =
    Certificate.make ~objtype:Gallery.test_and_set ~initial:0 ~team:[| false; true |]
      ~ops:[| 0; 0 |]
  in
  check_bool "tas is 2-discerning via tas/tas" true (Certificate.check_discerning cert);
  check_bool "but not 2-recording via tas/tas" false (Certificate.check_recording cert)

let test_search_results_validate () =
  (* Every certificate the search returns must replay-validate with the
     independent checker. *)
  List.iter
    (fun (name, ty) ->
      (match Decide.search Decide.Discerning ty ~n:2 with
      | Some c -> check_bool (name ^ " discerning validates") true (Certificate.check_discerning c)
      | None -> ());
      match Decide.search Decide.Recording ty ~n:2 with
      | Some c -> check_bool (name ^ " recording validates") true (Certificate.check_recording c)
      | None -> ())
    (Gallery.all ())

let test_u_sets () =
  let c = ladder_cert () in
  let u0 = Certificate.u_set c ~first_team:false in
  let u1 = Certificate.u_set c ~first_team:true in
  check_bool "disjoint" true (List.for_all (fun v -> not (List.mem v u1)) u0);
  check_bool "u not reachable" true (Certificate.is_clean c);
  check_bool "u has no team" true
    (Certificate.first_team_of_value c c.Certificate.initial = None)

(* ------------------------------------------------------------------ *)
(* Known anchors from the literature (experiment E5's table). *)

let test_register_level_1 () =
  Alcotest.check bound "register cn 1" (Numbers.Exact 1) (disc (Gallery.register 2));
  Alcotest.check bound "register rcn 1" (Numbers.Exact 1) (record (Gallery.register 2))

let test_herlihy_level_2_types () =
  List.iter
    (fun ty ->
      Alcotest.check bound (ty.Objtype.name ^ " cn 2") (Numbers.Exact 2) (disc ty))
    [ Gallery.test_and_set; Gallery.swap 3; Gallery.fetch_and_add 3 ]

let test_golab_tas_rcn_1 () =
  (* Golab (2020): test-and-set cannot solve 2-process recoverable
     consensus. *)
  Alcotest.check bound "tas rcn 1" (Numbers.Exact 1) (record Gallery.test_and_set)

let test_interfering_rmw_rcn_1 () =
  List.iter
    (fun ty ->
      Alcotest.check bound (ty.Objtype.name ^ " rcn 1") (Numbers.Exact 1) (record ty))
    [ Gallery.swap 3; Gallery.fetch_and_add 3 ]

let test_unbounded_types () =
  List.iter
    (fun ty ->
      Alcotest.check bound (ty.Objtype.name ^ " disc unbounded") (Numbers.At_least 5) (disc ty);
      Alcotest.check bound (ty.Objtype.name ^ " rec unbounded") (Numbers.At_least 5) (record ty))
    [ Gallery.sticky_bit; Gallery.consensus_object 2; Gallery.compare_and_swap 3 ]

let test_new_gallery_anchors () =
  (* max-register: commuting writes, level 1/1 like a register. *)
  Alcotest.check bound "max-register cn 1" (Numbers.Exact 1) (disc ~cap:3 (Gallery.max_register 3));
  Alcotest.check bound "max-register rcn 1" (Numbers.Exact 1) (record ~cap:3 (Gallery.max_register 3));
  (* write-once register: sticky, unbounded in both hierarchies. *)
  Alcotest.check bound "write-once disc" (Numbers.At_least 4) (disc ~cap:4 (Gallery.write_once 2));
  Alcotest.check bound "write-once rec" (Numbers.At_least 4) (record ~cap:4 (Gallery.write_once 2));
  (* opaque counter: ack-only responses, no reads: level 1. *)
  Alcotest.check bound "opaque counter disc" (Numbers.Exact 1) (disc ~cap:3 (Gallery.opaque_counter 3));
  check_bool "opaque counter is not readable" false (Objtype.is_readable (Gallery.opaque_counter 3))

let test_binary_cas_is_level_2 () =
  (* CAS over a 2-value domain cannot hold a proposal and a bottom: its
     consensus number is 2, unlike the 3-value CAS. *)
  Alcotest.check bound "cas-2 cn 2" (Numbers.Exact 2) (disc (Gallery.compare_and_swap 2))

let test_team_ladder_levels () =
  List.iter
    (fun cap ->
      let ty = Gallery.team_ladder ~cap in
      Alcotest.check bound
        (Printf.sprintf "ladder-%d cn %d" cap (cap + 1))
        (Numbers.Exact (cap + 1))
        (disc ~cap:(cap + 2) ty);
      Alcotest.check bound
        (Printf.sprintf "ladder-%d rcn %d" cap cap)
        (Numbers.Exact cap)
        (record ~cap:(cap + 2) ty))
    [ 1; 2; 3 ]

let test_tnn_levels () =
  (* For T_{n,n'}: max-discerning = n; max-recording = n-1 (recording is
     necessary but NOT sufficient for non-readable types: true rcn is n'). *)
  List.iter
    (fun (n, n') ->
      let ty = Gallery.tnn ~n ~n' in
      Alcotest.check bound
        (Printf.sprintf "T_{%d,%d} discerning" n n')
        (Numbers.Exact n)
        (disc ~cap:(n + 1) ty);
      Alcotest.check bound
        (Printf.sprintf "T_{%d,%d} recording" n n')
        (Numbers.Exact (n - 1))
        (record ~cap:(n + 1) ty);
      let a = Numbers.analyze ~cap:2 ty in
      check_bool "non-readable: numbers not claimed" true
        (Analysis.consensus_number a = None
        && Analysis.recoverable_consensus_number a = None))
    [ (3, 1); (4, 2); (4, 1); (5, 2) ]

let test_crossing_family_levels () =
  (* The generalized witness family: consensus number n, recoverable
     consensus number n-2, for every n — checked exactly for n = 4..6
     (n = 7 runs in the bench harness). *)
  List.iter
    (fun n ->
      let ty = Gallery.crossing_witness ~n in
      Alcotest.check bound
        (Printf.sprintf "crossing-x%d cn" n)
        (Numbers.Exact n)
        (disc ~cap:(n + 1) ty);
      Alcotest.check bound
        (Printf.sprintf "crossing-x%d rcn" n)
        (Numbers.Exact (n - 2))
        (record ~cap:(n + 1) ty))
    [ 4; 5; 6 ];
  check_bool "n < 4 rejected" true
    (try
       ignore (Gallery.crossing_witness ~n:3);
       false
     with Invalid_argument _ -> true)

let test_x4_witness_levels () =
  (* The paper's corollary instantiated: consensus number 4, recoverable
     consensus number 2. *)
  let ty = Gallery.x4_witness in
  Alcotest.check bound "x4 cn 4" (Numbers.Exact 4) (disc ty);
  Alcotest.check bound "x4 rcn 2" (Numbers.Exact 2) (record ty);
  let a = Numbers.analyze ~cap:5 ty in
  check_bool "claimed as numbers (readable)" true
    (match (Analysis.consensus_number a, Analysis.recoverable_consensus_number a) with
    | Some cn, Some rcn ->
        Numbers.equal_bound (Numbers.bound_of_level cn) (Numbers.Exact 4)
        && Numbers.equal_bound (Numbers.bound_of_level rcn) (Numbers.Exact 2)
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Structural properties of the conditions *)

let test_downward_closure () =
  (* n-discerning implies (n-1)-discerning; same for recording.  Checked on
     representative types at every level below the cap. *)
  List.iter
    (fun ty ->
      List.iter
        (fun n ->
          if Decide.is_discerning ty ~n then
            check_bool
              (Printf.sprintf "%s: %d-discerning implies %d" ty.Objtype.name n (n - 1))
              true
              (n = 2 || Decide.is_discerning ty ~n:(n - 1));
          if Decide.is_recording ty ~n then
            check_bool
              (Printf.sprintf "%s: %d-recording implies %d" ty.Objtype.name n (n - 1))
              true
              (n = 2 || Decide.is_recording ty ~n:(n - 1)))
        [ 2; 3; 4; 5 ])
    [ Gallery.team_ladder ~cap:3; Gallery.tnn ~n:4 ~n':2; Gallery.x4_witness; Gallery.sticky_bit ]

let test_naive_vs_pruned_search () =
  (* The within-team sorting prune must not change decidability. *)
  List.iter
    (fun ty ->
      List.iter
        (fun n ->
          let pruned = Decide.search Decide.Recording ty ~n <> None in
          let naive = Decide.search ~naive:true Decide.Recording ty ~n <> None in
          check_bool (Printf.sprintf "%s recording n=%d" ty.Objtype.name n) pruned naive;
          let pruned = Decide.search Decide.Discerning ty ~n <> None in
          let naive = Decide.search ~naive:true Decide.Discerning ty ~n <> None in
          check_bool (Printf.sprintf "%s discerning n=%d" ty.Objtype.name n) pruned naive)
        [ 2; 3 ])
    [ Gallery.test_and_set; Gallery.team_ladder ~cap:2; Gallery.register 2 ]

let test_candidate_counts () =
  (* Pruning strictly reduces the candidate space. *)
  let ty = Gallery.team_ladder ~cap:2 in
  let pruned = Decide.count_candidates ty ~n:3 in
  let naive = Decide.count_candidates ~naive:true ty ~n:3 in
  check_bool "prune reduces" true (pruned < naive);
  (* naive count is values * partitions * ops^n = 6 * 3 * 27 *)
  check_int "naive closed form" (6 * 3 * 27) naive

let test_count_closed_form () =
  (* count_candidates is computed in closed form (binomial products); pin
     it against an actual fold over the enumeration, pruned and naive, on
     types spanning value/op/n shapes. *)
  let len s = Seq.fold_left (fun acc _ -> acc + 1) 0 s in
  List.iter
    (fun (ty, n) ->
      check_int
        (Printf.sprintf "%s n=%d pruned count" ty.Objtype.name n)
        (len (Decide.candidates ty ~n))
        (Decide.count_candidates ty ~n);
      check_int
        (Printf.sprintf "%s n=%d naive count" ty.Objtype.name n)
        (len (Decide.candidates ~naive:true ty ~n))
        (Decide.count_candidates ~naive:true ty ~n))
    [
      (Gallery.test_and_set, 2);
      (Gallery.test_and_set, 3);
      (Gallery.test_and_set, 4);
      (Gallery.register 2, 3);
      (Gallery.team_ladder ~cap:2, 3);
      (Gallery.team_ladder ~cap:2, 4);
    ]

let test_kernel_rank_enumeration () =
  (* The kernel's rank/unrank must walk exactly the reference enumeration:
     same total, and candidate i = the i-th element of Decide.candidates.
     This is the invariant the deterministic chunked fan-out rests on. *)
  List.iter
    (fun (ty, n) ->
      let k = Kernel.compile ty ~n in
      check_int
        (Printf.sprintf "%s n=%d total = closed form" ty.Objtype.name n)
        (Decide.count_candidates ty ~n) (Kernel.total k);
      let last =
        Seq.fold_left
          (fun i (u, team, ops) ->
            let u', team', ops' = Kernel.candidate k i in
            check_bool
              (Printf.sprintf "%s n=%d rank %d matches" ty.Objtype.name n i)
              true
              (u = u' && team = team' && ops = ops');
            i + 1)
          0 (Decide.candidates ty ~n)
      in
      check_int "enumeration exhausts the rank space" (Kernel.total k) last)
    [ (Gallery.test_and_set, 3); (Gallery.team_ladder ~cap:2, 3); (Gallery.register 2, 4) ]

let test_decider_rejects_small_n () =
  check_bool "n=1 rejected" true
    (try
       ignore (Decide.search Decide.Recording Gallery.test_and_set ~n:1);
       false
     with Invalid_argument _ -> true)

let test_certificates_seq () =
  (* All certificates stream lazily; the first equals the search result. *)
  let ty = Gallery.team_ladder ~cap:2 in
  let first_search = Option.get (Decide.search Decide.Recording ty ~n:2) in
  match (Decide.certificates Decide.Recording ty ~n:2) () with
  | Seq.Cons (c, _) ->
      check_bool "same first certificate" true
        (c.Certificate.initial = first_search.Certificate.initial
        && c.Certificate.team = first_search.Certificate.team
        && c.Certificate.ops = first_search.Certificate.ops)
  | Seq.Nil -> Alcotest.fail "expected certificates"

(* ------------------------------------------------------------------ *)
(* Robustness (Theorem 14) *)

let test_robustness_report () =
  let r =
    Robustness.analyze ~cap:4
      [ Gallery.test_and_set; Gallery.team_ladder ~cap:2; Gallery.register 2 ]
  in
  Alcotest.check bound "combined = strongest individual" (Numbers.Exact 2) r.Robustness.combined;
  check_bool "strongest named" true (r.Robustness.strongest = "team-ladder-2");
  check_int "all types reported" 3 (List.length r.Robustness.per_type);
  check_bool "witness validates" true
    (match r.Robustness.witness with
    | Some c -> Certificate.check_recording c
    | None -> false)

let test_robustness_rejects_non_readable () =
  Alcotest.check_raises "non-readable rejected"
    (Invalid_argument "Robustness.analyze: T_{4,2} is not readable") (fun () ->
      ignore (Robustness.analyze [ Gallery.tnn ~n:4 ~n':2 ]));
  Alcotest.check_raises "empty set rejected"
    (Invalid_argument "Robustness.analyze: empty type set") (fun () ->
      ignore (Robustness.analyze []))

let test_product_robustness () =
  (* Theorem 14 checked on the combined object itself: the recording level
     of a readable product never exceeds the strongest component. *)
  let pairs =
    [
      (Gallery.test_and_set, Gallery.test_and_set);
      (Gallery.test_and_set, Gallery.register 2);
      (Gallery.test_and_set, Gallery.team_ladder ~cap:2);
      (Gallery.register 2, Gallery.team_ladder ~cap:2);
    ]
  in
  List.iter
    (fun (a, b) ->
      let r = Robustness.check_product ~cap:4 a b in
      check_bool
        (Printf.sprintf "%s x %s robust" r.Robustness.left r.Robustness.right)
        true r.Robustness.robust)
    pairs;
  (* And the exact level: tas x ladder2 has recording level exactly 2. *)
  let r = Robustness.check_product ~cap:4 Gallery.test_and_set (Gallery.team_ladder ~cap:2) in
  check_bool "product level = max component" true
    (Numbers.equal_bound r.Robustness.product_level (Numbers.Exact 2))

let test_product_structure () =
  let p = Objtype.product Gallery.test_and_set (Gallery.register 2) in
  check_int "values multiply" 4 p.Objtype.num_values;
  check_bool "readable via joint read" true (Objtype.is_readable p);
  (* Left TAS acts on the left component only. *)
  let r, v = Objtype.apply p (Objtype.product_value Gallery.test_and_set (Gallery.register 2) (0, 1)) 0 in
  check_int "left tas response" 0 r;
  check_int "left component set, right untouched"
    (Objtype.product_value Gallery.test_and_set (Gallery.register 2) (1, 1))
    v;
  let bare = Objtype.product ~joint_read:false Gallery.test_and_set (Gallery.bounded_queue ()) in
  check_bool "no joint read: not readable" false (Objtype.is_readable bare);
  check_bool "non-readable product rejected by check_product" true
    (try
       ignore (Robustness.check_product Gallery.test_and_set (Gallery.bounded_queue ()));
       false
     with Invalid_argument _ -> true)

let test_nonreadable_product_probe () =
  (* The paper's open question (robustness for all deterministic types)
     cannot be settled by the deciders, but the necessary-condition levels
     of non-readable products are measurable: at these instances, products
     do not exceed the strongest component. *)
  let t31 = Gallery.tnn ~n:3 ~n':1 in
  let level ty = Numbers.bound_of_level (Numbers.max_recording ~cap:4 ty) in
  let v = function Numbers.Exact n | Numbers.At_least n -> n in
  List.iter
    (fun (a, b) ->
      let combined = v (level (Objtype.product ~joint_read:false a b)) in
      check_bool "no recording boost" true (combined <= max (v (level a)) (v (level b))))
    [ (t31, Gallery.test_and_set); (t31, t31); (Gallery.bounded_queue (), Gallery.test_and_set) ]

let test_census_sample_properties () =
  (* On a random sample of the small-type landscape: recording never
     exceeds discerning, and the DFFR gap bound holds everywhere. *)
  let space = { Synth.num_values = 3; num_rws = 2; num_responses = 2 } in
  let run =
    Pool.with_pool ~jobs:1 @@ fun pool ->
    Engine.census ~sample:(500, 42) ~config:(Api.Config.v ~cap:4 ()) pool space
  in
  let entries = run.Engine.entries in
  List.iter
    (fun (e : Census.entry) ->
      check_bool "rec <= disc" true (e.Census.recording <= e.Census.discerning);
      check_bool "disc - rec <= 2" true (e.Census.discerning - e.Census.recording <= 2))
    entries;
  check_int "census covers the sample" 500
    (List.fold_left (fun acc (e : Census.entry) -> acc + e.Census.count) 0 entries);
  check_bool "space size" true (Census.space_size space = 46656)

(* ------------------------------------------------------------------ *)
(* Cross-theorem properties on the whole gallery *)

let level_value = function Numbers.Exact n -> n | Numbers.At_least n -> n

let test_recording_at_most_discerning () =
  (* rcn <= cn, so for the deciders: max-recording <= max-discerning.
     This holds for all deterministic types (both conditions are about the
     same certificates, recording being stronger on values). *)
  List.iter
    (fun (name, ty) ->
      check_bool (name ^ ": recording <= discerning") true
        (level_value (record ty) <= level_value (disc ty)))
    (Gallery.all ())

let test_dffr_gap_at_most_2 () =
  (* DFFR (2022): a readable deterministic type with consensus number
     n >= 4 is (n-2)-recording.  Hence max-recording >= max-discerning - 2
     for readable gallery types (their Theorem 5 also covers n = 2, 3 with
     n - 1 >= ... we check the conservative -2 bound). *)
  List.iter
    (fun (name, ty) ->
      if Objtype.is_readable ty then
        check_bool (name ^ ": discerning - recording <= 2") true
          (level_value (disc ty) - level_value (record ty) <= 2))
    (Gallery.all ())

let prop_decider_certificates_replay =
  (* On random small types: whatever the search returns must validate under
     the independent replay checker, for both conditions, at n = 2 and 3. *)
  let space = { Synth.num_values = 3; num_rws = 2; num_responses = 2 } in
  let arbitrary =
    QCheck.make
      ~print:(fun g -> Format.asprintf "%a" Objtype.pp_table (Synth.to_objtype g))
      (QCheck.Gen.map
         (fun seed -> Synth.random_genome (Random.State.make [| seed |]) space)
         QCheck.Gen.int)
  in
  QCheck.Test.make ~name:"decider certificates always replay-validate" ~count:150 arbitrary
    (fun g ->
      let ty = Synth.to_objtype g in
      List.for_all
        (fun n ->
          (match Decide.search Decide.Recording ty ~n with
          | Some c -> Certificate.check_recording c
          | None -> true)
          &&
          match Decide.search Decide.Discerning ty ~n with
          | Some c -> Certificate.check_discerning c
          | None -> true)
        [ 2; 3 ])

let cert_equal (a : Certificate.t option) (b : Certificate.t option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
      a.Certificate.initial = b.Certificate.initial
      && a.Certificate.team = b.Certificate.team
      && a.Certificate.ops = b.Certificate.ops
  | _ -> false

(* Both deciders on one query: the kernel's certificate (or refutation)
   must be byte-identical to the reference checker's. *)
let kernel_agrees condition ty ~n =
  cert_equal
    (Decide.search ~mode:Kernel.Reference condition ty ~n)
    (Decide.search ~mode:Kernel.Trie condition ty ~n)

let prop_kernel_matches_reference =
  (* The differential pin for the compiled kernel: on random small types
     (up to 4 values, 3 RMW operations) the trie kernel agrees with the
     reference checkers on is_discerning / is_recording at n = 2, 3 and
     4, and when a witness exists the certificates are byte-identical. *)
  let space = { Synth.num_values = 4; num_rws = 3; num_responses = 3 } in
  let arbitrary =
    QCheck.make
      ~print:(fun g -> Format.asprintf "%a" Objtype.pp_table (Synth.to_objtype g))
      (QCheck.Gen.map
         (fun seed -> Synth.random_genome (Random.State.make [| seed |]) space)
         QCheck.Gen.int)
  in
  QCheck.Test.make ~name:"kernel modes match the reference decider" ~count:60 arbitrary
    (fun g ->
      let ty = Synth.to_objtype g in
      List.for_all
        (fun n ->
          List.for_all
            (fun condition -> kernel_agrees condition ty ~n)
            [ Decide.Discerning; Decide.Recording ])
        [ 2; 3; 4 ])

let test_kernel_multiword_values () =
  (* Value sets wider than one machine word (63 values each).  A
     fetch-and-add-65 over 70 values, plus a read: from 0 its first
     steps reach 65 and 60, on both sides of the word boundary; like
     any fetch-and-add it is 2-discerning and not 3-discerning, so the
     kernel has to match the reference on a witness and on a
     refutation.  Two silent writes over 70 values: from 0, op 0 then
     op 1 ends at 3 and op 1 then op 0 at 66 = 3 + 63, and that
     difference alone makes (0, op 0 | op 1) a 2-discerning witness —
     value sets that wrapped at one word would merge the two.  Random
     64-value types add unstructured coverage. *)
  let nv = 70 in
  let faa =
    Objtype.make ~name:"faa65" ~num_values:nv ~num_ops:2 ~num_responses:nv (fun v o ->
        if o = 0 then (v, (v + 65) mod nv) else (v, v))
  in
  let writes =
    Objtype.make ~name:"writes-3-66" ~num_values:nv ~num_ops:2 ~num_responses:1 (fun v o ->
        match (o, v) with
        | 0, 0 -> (0, 1)
        | 0, 2 -> (0, 66)
        | 1, 0 -> (0, 2)
        | 1, 1 -> (0, 3)
        | _ -> (0, v))
  in
  check_bool "faa65 is 2-discerning" true
    (Decide.search Decide.Discerning faa ~n:2 <> None);
  check_bool "faa65 is not 3-discerning" true
    (Decide.search Decide.Discerning faa ~n:3 = None);
  check_bool "writes-3-66 has a 2-discerning witness from 0" true
    (match Decide.search ~mode:Kernel.Reference Decide.Discerning writes ~n:2 with
    | Some c -> c.Certificate.initial = 0
    | None -> false);
  let space = { Synth.num_values = 64; num_rws = 2; num_responses = 3 } in
  let randoms =
    List.init 4 (fun seed -> Synth.to_objtype (Synth.random_genome (Random.State.make [| seed |]) space))
  in
  List.iter
    (fun ty ->
      List.iter
        (fun n ->
          List.iter
            (fun condition ->
              check_bool
                (Printf.sprintf "%s n=%d: kernel matches the reference" ty.Objtype.name n)
                true (kernel_agrees condition ty ~n))
            [ Decide.Discerning; Decide.Recording ])
        [ 2; 3 ])
    (faa :: writes :: randoms)

let prop_reference_verdict_is_process_symmetric =
  (* The symmetry the kernel's memo is keyed on, pinned on the reference
     checkers alone (they share no code with the kernel): renaming the
     processes maps the at-most-once schedule set onto itself, so a
     candidate and its renamed copy — [team] and [ops] permuted jointly
     — get the same verdict, both conditions, at n = 2, 3 and 4. *)
  let space = { Synth.num_values = 3; num_rws = 2; num_responses = 2 } in
  let scheds = Array.init 5 (fun n -> if n < 2 then [] else Sched.at_most_once ~nprocs:n) in
  let arbitrary = QCheck.make ~print:string_of_int QCheck.Gen.int in
  QCheck.Test.make ~name:"reference verdicts are invariant under process renaming" ~count:100
    arbitrary (fun case_seed ->
      let rng = Random.State.make [| case_seed; 0x5e7 |] in
      let ty = Synth.to_objtype (Synth.random_genome rng space) in
      List.for_all
        (fun n ->
          let u = Random.State.int rng ty.Objtype.num_values in
          (* a two-team split: process [split] on T_1 and the next one
             on T_0 keep both teams nonempty whatever the other draws *)
          let split = Random.State.int rng n in
          let team = Array.init n (fun p -> p = split || Random.State.bool rng) in
          team.((split + 1) mod n) <- false;
          let ops = Array.init n (fun _ -> Random.State.int rng ty.Objtype.num_ops) in
          let sigma = Array.init n Fun.id in
          for i = n - 1 downto 1 do
            let j = Random.State.int rng (i + 1) in
            let t = sigma.(i) in
            sigma.(i) <- sigma.(j);
            sigma.(j) <- t
          done;
          let team' = Array.make n false and ops' = Array.make n 0 in
          Array.iteri
            (fun p q ->
              team'.(q) <- team.(p);
              ops'.(q) <- ops.(p))
            sigma;
          List.for_all
            (fun cond ->
              Decide.check cond ty scheds.(n) ~u ~team ~ops
              = Decide.check cond ty scheds.(n) ~u ~team:team' ~ops:ops')
            [ Decide.Discerning; Decide.Recording ])
        [ 2; 3; 4 ])

let test_kernel_folds_per_multiset () =
  (* The kernel folds the trie once per (initial value, sorted op
     multiset): a scan that refutes the condition visits every candidate,
     and every multiset of [n] ops occurs among them, so it folds exactly
     [nv * C(no + n - 1, n)] times — not once per arrangement.  The rank
     scan and [exists] share one evaluation table: an [exists] on the same
     scratch afterwards refutes too, folding nothing and answering every
     entry from the table. *)
  let space = { Synth.num_values = 4; num_rws = 2; num_responses = 2 } in
  let binomial a b =
    let acc = ref 1 in
    for i = 1 to b do
      acc := !acc * (a - b + i) / i
    done;
    !acc
  in
  let refuted = Array.make 5 0 in
  for seed = 0 to 11 do
    let ty = Synth.to_objtype (Synth.random_genome (Random.State.make [| seed; 0xf01d |]) space) in
    let nv = ty.Objtype.num_values and no = ty.Objtype.num_ops in
    List.iter
      (fun n ->
        List.iter
          (fun cond ->
            let obs = Obs.create () in
            let k = Kernel.compile ~obs ty ~n in
            let s = Kernel.scratch k in
            let count name = Obs.Metrics.Counter.value (Obs.counter obs name) in
            let evals () = count "decide.kernel_evals" and pruned () = count "decide.partitions_pruned" in
            match Kernel.search_range k s cond ~lo:0 ~hi:(Kernel.total k) ~stop:(fun _ -> false) with
            | Some _, _ -> ()
            | None, checked ->
                refuted.(n) <- refuted.(n) + 1;
                let evals0 = evals () and pruned0 = pruned () in
                let multisets = binomial (no + n - 1) n in
                let label = Printf.sprintf "seed %d n=%d" seed n in
                check_int (label ^ ": one fold per (u, multiset)") (nv * multisets) evals0;
                check_int (label ^ ": every candidate classified") (Kernel.total k)
                  (evals0 + pruned0);
                check_int (label ^ ": full scan") (Kernel.total k) checked;
                check_bool (label ^ ": exists refutes too") false (Kernel.exists k s cond);
                check_int (label ^ ": exists folds nothing") evals0 (evals ());
                check_int (label ^ ": exists hits every entry")
                  (pruned0 + (nv * multisets))
                  (pruned ()))
          [ Kernel.Discerning; Kernel.Recording ])
      [ 2; 3; 4 ]
  done;
  List.iter
    (fun n -> check_bool (Printf.sprintf "some scans refute at n = %d" n) true (refuted.(n) > 0))
    [ 2; 3; 4 ]

let cond_name = function Kernel.Discerning -> "disc" | Kernel.Recording -> "rec"

let test_exists_matches_full_scan () =
  (* [Kernel.exists] decides over (u, sorted op multiset) entries, one
     representative team split per sub-multiset; [search_range] walks
     every candidate rank.  On a fresh compile the two must agree, and
     so must [exists ~below] the same table at n - 1, which folds an
     entry only when the ladder leaves it open and skips a recording
     entry whose discerning twin was refuted on the same scratch.  Every
     {2,2,2} table at n = 2..5 and 500 seeded draws each from {3,2,2}
     and {4,3,3} at n = 2..4, both conditions: plain [exists] on its own
     scratch per condition, the pruned one discerning first on one
     scratch, as in the census.  Every other table has its [below]
     scanned first (the census state); the rest start it fresh, so every
     sub-entry is decided lazily. *)
  let skipped = ref 0 in
  let agree label i ty ns =
    List.iter
      (fun n ->
        let obs = Obs.create () in
        let k = Kernel.compile ~obs ty ~n in
        let below =
          if n < 3 then None
          else begin
            let kb = Kernel.compile ~obs ty ~n:(n - 1) in
            let sb = Kernel.scratch kb in
            if i mod 2 = 0 then begin
              ignore (Kernel.exists kb sb Kernel.Discerning);
              ignore (Kernel.exists kb sb Kernel.Recording)
            end;
            Some (kb, sb)
          end
        in
        let pruned = Kernel.scratch k in
        List.iter
          (fun cond ->
            let scan =
              Kernel.search_range k (Kernel.scratch k) cond ~lo:0 ~hi:(Kernel.total k)
                ~stop:(fun _ -> false)
            in
            let label = Printf.sprintf "%s n=%d %s" label n (cond_name cond) in
            check_bool label (fst scan <> None) (Kernel.exists k (Kernel.scratch k) cond);
            check_bool (label ^ " ~below") (fst scan <> None) (Kernel.exists ?below k pruned cond))
          [ Kernel.Discerning; Kernel.Recording ];
        skipped := !skipped + Obs.Metrics.Counter.value (Obs.counter obs "decide.entries_skipped"))
      ns
  in
  let small = { Synth.num_values = 2; num_rws = 2; num_responses = 2 } in
  for i = 0 to Census.space_size small - 1 do
    agree (Printf.sprintf "{2,2,2} #%d" i) i
      (Synth.to_objtype (Census.genome_of_index small i))
      [ 2; 3; 4; 5 ]
  done;
  List.iter
    (fun (space, seed) ->
      let rng = Random.State.make [| seed |] in
      for i = 0 to 499 do
        agree
          (Printf.sprintf "{%d,%d,%d} draw %d" space.Synth.num_values space.Synth.num_rws
             space.Synth.num_responses i)
          i
          (Synth.to_objtype (Synth.random_genome rng space))
          [ 2; 3; 4 ]
      done)
    [
      ({ Synth.num_values = 3; num_rws = 2; num_responses = 2 }, 0x9a17);
      ({ Synth.num_values = 4; num_rws = 3; num_responses = 3 }, 0x1ade);
    ];
  check_bool "some entries skipped" true (!skipped > 0)

let test_exists_one_visit_per_entry () =
  (* A refuting [exists] on a fresh scratch folds each (u, multiset)
     once and visits nothing else; a second one answers from the
     verdicts kept on the memo entries: one memo hit per entry, no fold,
     and the same answer. *)
  let space = { Synth.num_values = 4; num_rws = 2; num_responses = 2 } in
  let binomial a b =
    let acc = ref 1 in
    for i = 1 to b do
      acc := !acc * (a - b + i) / i
    done;
    !acc
  in
  let refuted = ref 0 in
  for seed = 0 to 11 do
    let ty = Synth.to_objtype (Synth.random_genome (Random.State.make [| seed; 0xe1 |]) space) in
    let entries n = ty.Objtype.num_values * binomial (ty.Objtype.num_ops + n - 1) n in
    List.iter
      (fun n ->
        List.iter
          (fun cond ->
            let obs = Obs.create () in
            let k = Kernel.compile ~obs ty ~n in
            let s = Kernel.scratch k in
            let value name = Obs.Metrics.Counter.value (Obs.counter obs name) in
            if not (Kernel.exists k s cond) then begin
              incr refuted;
              let label = Printf.sprintf "seed %d n=%d" seed n in
              check_int (label ^ ": one fold per (u, multiset)") (entries n)
                (value "decide.kernel_evals");
              check_int (label ^ ": no memo hit") 0 (value "decide.partitions_pruned");
              check_bool (label ^ ": rescan refutes") false (Kernel.exists k s cond);
              check_int (label ^ ": rescan folds nothing") (entries n)
                (value "decide.kernel_evals");
              check_int (label ^ ": rescan hits every entry") (entries n)
                (value "decide.partitions_pruned")
            end)
          [ Kernel.Discerning; Kernel.Recording ])
      [ 2; 3; 4 ]
  done;
  check_bool "some scans refute" true (!refuted > 0)

let test_census_recording_at_most_discerning () =
  (* The paper's rec <= disc, per table: a recording candidate is a
     discerning one (a final value reached only by one team's first
     processes makes every triple containing it one-team too).  The
     engine's census bounds recording by the discerning level by
     construction, so the pin runs on [Census.exhaustive], which decides
     both conditions independently: every histogram entry of the {2,2,2}
     cap-4 census honours it. *)
  let space = { Synth.num_values = 2; num_rws = 2; num_responses = 2 } in
  let entries = Census.exhaustive ~cap:4 space in
  check_int "every table decided" (Census.space_size space)
    (List.fold_left (fun acc (e : Census.entry) -> acc + e.Census.count) 0 entries);
  List.iter
    (fun (e : Census.entry) ->
      check_bool
        (Printf.sprintf "(%d,%d): recording <= discerning" e.Census.discerning e.Census.recording)
        true
        (e.Census.recording <= e.Census.discerning))
    entries

(* Every sorted op multiset of size [n] over [no] ops, in lex order. *)
let sorted_multisets ~no n =
  let rec go n lo =
    if n = 0 then [ [] ]
    else
      List.concat_map
        (fun o -> List.map (List.cons o) (go (n - 1) o))
        (List.init (no - lo) (( + ) lo))
  in
  List.map Array.of_list (go n 0)

(* Does some team split of the sorted multiset [ops] witness [cond] at
   initial value [u]?  Every split, p_0 on T_0, through [Kernel.check]. *)
let entry_holds k s cond ~u ops =
  let n = Array.length ops in
  let full = (1 lsl n) - 1 in
  let rec go t0 =
    t0 < full
    && (Kernel.check k s cond ~u ~team:(Array.init n (fun i -> (t0 lsr i) land 1 = 0)) ~ops
       || go (t0 + 2))
  in
  go 1

let test_ladder_entry_level () =
  (* The entry-level facts [exists ~below] prunes by, checked split by
     split through [Kernel.check]: every holding (u, M) entry at n has at
     least n - 1 slots of M (with multiplicity) whose removal leaves a
     holding entry at n - 1, and every holding recording entry has a
     holding discerning entry.  Entries with exactly n - 1 such slots
     exist (level-4 recording on the {3,2,2} census space among them), so
     demanding all n slots would refute true entries. *)
  let tight = ref 0 in
  let check_table ?(tally = false) label ty ns =
    let no = ty.Objtype.num_ops in
    List.iter
      (fun n ->
        let k = Kernel.compile ty ~n and kb = Kernel.compile ty ~n:(n - 1) in
        let s = Kernel.scratch k and sb = Kernel.scratch kb in
        for u = 0 to ty.Objtype.num_values - 1 do
          List.iter
            (fun ms ->
              let holds cond = entry_holds k s cond ~u ms in
              let rec_holds = holds Kernel.Recording in
              if rec_holds then
                check_bool
                  (Printf.sprintf "%s n=%d u=%d: recording entry implies discerning" label n u)
                  true (holds Kernel.Discerning);
              List.iter
                (fun cond ->
                  if holds cond then begin
                    let open_slots = ref 0 in
                    Array.iteri
                      (fun j _ ->
                        let sub =
                          Array.init (n - 1) (fun j' -> ms.(if j' < j then j' else j' + 1))
                        in
                        if entry_holds kb sb cond ~u sub then incr open_slots)
                      ms;
                    check_bool
                      (Printf.sprintf "%s n=%d u=%d %s: >= n - 1 holding sub-entries" label n u
                         (cond_name cond))
                      true (!open_slots >= n - 1);
                    if tally && n = 4 && cond = Kernel.Recording && !open_slots = n - 1 then
                      incr tight
                  end)
                [ Kernel.Discerning; Kernel.Recording ])
            (sorted_multisets ~no n)
        done)
      ns
  in
  let small = { Synth.num_values = 2; num_rws = 2; num_responses = 2 } in
  for i = 0 to Census.space_size small - 1 do
    check_table (Printf.sprintf "{2,2,2} #%d" i)
      (Synth.to_objtype (Census.genome_of_index small i))
      [ 3; 4 ]
  done;
  let space = { Synth.num_values = 3; num_rws = 2; num_responses = 2 } in
  let rng = Random.State.make [| 0x7197 |] in
  for i = 0 to 299 do
    check_table ~tally:true (Printf.sprintf "{3,2,2} draw %d" i)
      (Synth.to_objtype (Synth.random_genome rng space))
      [ 3; 4 ]
  done;
  check_bool "tight level-4 recording entries on {3,2,2}" true (!tight > 0)

let test_exists_below_rejects () =
  let ty = Gallery.test_and_set in
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  let k3 = Kernel.compile ty ~n:3 and k4 = Kernel.compile ty ~n:4 in
  let s3 = Kernel.scratch k3 and s4 = Kernel.scratch k4 in
  let k2 = Kernel.compile ty ~n:2 in
  let s2 = Kernel.scratch k2 in
  check_bool "below at n - 2 rejected" true
    (raises (fun () -> Kernel.exists ~below:(k2, s2) k4 s4 Kernel.Discerning));
  let k3' = Kernel.compile ty ~n:3 in
  check_bool "below at n rejected" true
    (raises (fun () -> Kernel.exists ~below:(k3', Kernel.scratch k3') k3 s3 Kernel.Recording));
  let nv = ty.Objtype.num_values and nr = ty.Objtype.num_responses in
  let r0, v0 = ty.Objtype.delta 0 0 in
  let edit ~resp =
    Objtype.make ~name:"edited" ~num_values:nv ~num_ops:ty.Objtype.num_ops ~num_responses:nr
      (fun v o ->
        if v = 0 && o = 0 then if resp then ((r0 + 1) mod nr, v0) else (r0, (v0 + 1) mod nv)
        else ty.Objtype.delta v o)
  in
  List.iter
    (fun resp ->
      let kb = Kernel.compile (edit ~resp) ~n:2 in
      check_bool
        (Printf.sprintf "below with another %s table rejected" (if resp then "resp" else "next"))
        true
        (raises (fun () -> Kernel.exists ~below:(kb, Kernel.scratch kb) k3 s3 Kernel.Discerning)))
    [ true; false ];
  check_bool "the same table at n - 1 is accepted"
    (Kernel.exists k3 (Kernel.scratch k3) Kernel.Discerning)
    (Kernel.exists ~below:(k2, s2) k3 s3 Kernel.Discerning)

let test_exists_recording_implies_discerning () =
  (* The same implication at the decision point: on seeded random types
     at n <= 4, [exists Recording] implies [exists Discerning]. *)
  let spaces =
    [
      { Synth.num_values = 3; num_rws = 2; num_responses = 2 };
      { Synth.num_values = 4; num_rws = 3; num_responses = 3 };
    ]
  in
  let recording = ref 0 in
  List.iteri
    (fun si space ->
      for seed = 0 to 99 do
        let ty = Synth.to_objtype (Synth.random_genome (Random.State.make [| seed; si; 0x4ec |]) space) in
        List.iter
          (fun n ->
            let k = Kernel.compile ty ~n in
            let s = Kernel.scratch k in
            if Kernel.exists k s Kernel.Recording then begin
              incr recording;
              check_bool
                (Printf.sprintf "space %d seed %d n=%d: recording implies discerning" si seed n)
                true (Kernel.exists k s Kernel.Discerning)
            end)
          [ 2; 3; 4 ]
      done)
    spaces;
  check_bool "some types are recording" true (!recording > 0)

let prop_stepped_back_and_forth_matches_fresh_compile =
  (* The synthesizer's contract: kernels at n = 2 and 3, stepped in
     lockstep ([Kernel.step]) along a walk of same-shape tables — each
     one cell away from the last (a candidate), or back to a randomly
     chosen earlier table of the walk (a rejected candidate's return,
     in any order) — answer every query after every step
     byte-identically to a fresh compile of the table: [exists] at both
     n, at n = 3 with and without [~below] in a random order, and full
     [search_range] scans.  Every entry a step keeps valid must hold
     what a fresh fold gives ([Kernel.stale_entries] is 0 right after
     the step and again after the queries).  The memos are populated
     before the first step, which drops the untracked entries. *)
  let arbitrary = QCheck.make ~print:string_of_int QCheck.Gen.int in
  QCheck.Test.make ~name:"kernel stepped back and forth matches a fresh compile" ~count:40
    arbitrary (fun case_seed ->
      let rng = Random.State.make [| case_seed; 0xe22 |] in
      let nv = 2 + Random.State.int rng 3 in
      let no = 2 + Random.State.int rng 2 in
      let nr = 2 + Random.State.int rng 2 in
      let mk t =
        let t = Array.copy t in
        Objtype.make ~name:"stepped" ~num_values:nv ~num_ops:no ~num_responses:nr (fun v o ->
            t.((v * no) + o))
      in
      let tbl = Array.init (nv * no) (fun _ -> (Random.State.int rng nr, Random.State.int rng nv)) in
      let k2 = Kernel.compile (mk tbl) ~n:2 and k3 = Kernel.compile (mk tbl) ~n:3 in
      let s2 = Kernel.scratch k2 and s3 = Kernel.scratch k3 in
      let conds = [ Kernel.Discerning; Kernel.Recording ] in
      List.iter
        (fun cond ->
          ignore (Kernel.exists k2 s2 cond);
          ignore (Kernel.exists k3 s3 cond))
        conds;
      let agrees ty =
        let scan n cond =
          let f = Kernel.compile ty ~n in
          Kernel.search_range f (Kernel.scratch f) cond ~lo:0 ~hi:(Kernel.total f)
            ~stop:(fun _ -> false)
        in
        List.for_all
          (fun cond ->
            let scan2 = scan 2 cond and scan3 = scan 3 cond in
            let with_below () = Kernel.exists ~below:(k2, s2) k3 s3 cond = (fst scan3 <> None) in
            let without () = Kernel.exists k3 s3 cond = (fst scan3 <> None) in
            Kernel.exists k2 s2 cond = (fst scan2 <> None)
            && (if Random.State.bool rng then with_below () && without ()
                else without () && with_below ())
            && Kernel.search_range k3 s3 cond ~lo:0 ~hi:(Kernel.total k3) ~stop:(fun _ -> false)
               = scan3
            && Kernel.search_range k2 s2 cond ~lo:0 ~hi:(Kernel.total k2) ~stop:(fun _ -> false)
               = scan2)
          conds
      in
      let walk = ref [ tbl ] and ok = ref true in
      for _step = 0 to 31 do
        let next =
          if List.length !walk > 1 && Random.State.int rng 3 = 0 then
            List.nth !walk (1 + Random.State.int rng (List.length !walk - 1))
          else begin
            let t = Array.copy (List.hd !walk) in
            let c = Random.State.int rng (nv * no) in
            let old = t.(c) in
            while t.(c) = old do
              t.(c) <- (Random.State.int rng nr, Random.State.int rng nv)
            done;
            t
          end
        in
        walk := next :: !walk;
        let ty = mk next in
        Kernel.step k2 s2 ty;
        Kernel.step k3 s3 ty;
        ok :=
          !ok
          && Objtype.equal_behaviour (Kernel.to_objtype k3) ty
          && Kernel.stale_entries k2 s2 = 0
          && Kernel.stale_entries k3 s3 = 0
          && agrees ty
          && Kernel.stale_entries k2 s2 = 0
          && Kernel.stale_entries k3 s3 = 0
      done;
      !ok)

let prop_retargeted_kernel_matches_fresh_compile =
  (* The census reuse contract: one kernel and scratch, retargeted
     through a random sequence of same-shape tables — with steps and
     queries interleaved before some of the retargets — answer every
     query after each retarget byte-identically to a fresh compile, and
     count the decide.* counters identically into the context the
     retarget names.  The first step after each retarget must
     invalidate as many memo entries as the same step on the fresh
     compile: an entry the retarget failed to forget would inflate the
     count. *)
  let arbitrary = QCheck.make ~print:string_of_int QCheck.Gen.int in
  QCheck.Test.make ~name:"retargeted kernel matches a fresh compile" ~count:40 arbitrary
    (fun case_seed ->
      let rng = Random.State.make [| case_seed; 0xc15 |] in
      let nv = 2 + Random.State.int rng 3 in
      let no = 2 + Random.State.int rng 2 in
      let nr = 2 + Random.State.int rng 2 in
      let mk () =
        let t =
          Array.init (nv * no) (fun _ -> (Random.State.int rng nr, Random.State.int rng nv))
        in
        Objtype.make ~name:"retargeted" ~num_values:nv ~num_ops:no ~num_responses:nr
          (fun v o -> t.((v * no) + o))
      in
      let counts obs =
        List.map
          (fun name -> Obs.Metrics.Counter.value (Obs.counter obs name))
          [ "decide.kernel_evals"; "decide.partitions_pruned" ]
      in
      (* One fixed interrogation, per condition: exists, a full scan, and
         single-candidate checks at the probe ranks. *)
      let answers k s probes =
        List.map
          (fun cond ->
            let exists = Kernel.exists k s cond in
            let scan =
              Kernel.search_range k s cond ~lo:0 ~hi:(Kernel.total k) ~stop:(fun _ -> false)
            in
            let checks =
              List.map
                (fun rank ->
                  let u, team, ops = Kernel.candidate k rank in
                  Kernel.check k s cond ~u ~team ~ops)
                probes
            in
            (exists, scan, checks))
          [ Kernel.Discerning; Kernel.Recording ]
      in
      List.for_all
        (fun n ->
          let k = Kernel.compile (mk ()) ~n in
          let s = Kernel.scratch k in
          let ok = ref true in
          for _step = 0 to 11 do
            (* Dirty the scratch first, sometimes: a warm memo with
               verdicts on its entries, tracked cells from steps. *)
            if Random.State.bool rng then ignore (Kernel.exists k s Kernel.Recording);
            for _ = 1 to Random.State.int rng 4 do
              Kernel.step k s (mk ());
              ignore (Kernel.exists k s Kernel.Discerning)
            done;
            let ty = mk () in
            let obs = Obs.create () and fresh_obs = Obs.create () in
            Kernel.retarget ~obs k s ty;
            let fresh = Kernel.compile ~obs:fresh_obs ty ~n in
            let fs = Kernel.scratch fresh in
            let probes = List.init 3 (fun _ -> Random.State.int rng (Kernel.total k)) in
            ok :=
              !ok
              && Objtype.equal_behaviour (Kernel.to_objtype k) ty
              && answers k s probes = answers fresh fs probes
              && counts obs = counts fresh_obs;
            let next = mk () in
            Kernel.step ~obs k s next;
            Kernel.step ~obs:fresh_obs fresh fs next;
            let invalidated o = Obs.Metrics.Counter.value (Obs.counter o "kernel.masks_invalidated") in
            ok := !ok && invalidated obs = invalidated fresh_obs
          done;
          !ok)
        [ 2; 3 ])

let prop_stepped_kernels_match_fresh_compile =
  (* The census chain contract: an (n - 1, n) pair of kernels stepped in
     lockstep ([Kernel.step]) along a random walk of same-shape tables,
     each differing from the last in 1-3 cells and sometimes in all of
     them, answers every query after each step byte-identically to a
     fresh compile of the table: [exists] with and without [~below],
     full and partial [search_range] scans and single-candidate
     [check]s, interleaved in a random order.  Every entry a step keeps
     valid must hold what a fresh fold of the new table gives
     ([Kernel.stale_entries] is 0 right after the step, before any query
     refolds it).  The first step of each pair drops the untracked
     entries the first table's queries made. *)
  let arbitrary = QCheck.make ~print:string_of_int QCheck.Gen.int in
  QCheck.Test.make ~name:"stepped kernels match a fresh compile" ~count:100 arbitrary
    (fun case_seed ->
      let rng = Random.State.make [| case_seed; 0x57e9 |] in
      let nv = 2 + Random.State.int rng 3 in
      let no = 2 + Random.State.int rng 2 in
      let nr = 2 + Random.State.int rng 2 in
      let n = 3 + Random.State.int rng 2 in
      let cells = nv * no in
      let draw () = (Random.State.int rng nr, Random.State.int rng nv) in
      let tbl = Array.init cells (fun _ -> draw ()) in
      let mk () =
        let t = Array.copy tbl in
        Objtype.make ~name:"stepped" ~num_values:nv ~num_ops:no ~num_responses:nr (fun v o ->
            t.((v * no) + o))
      in
      let k = Kernel.compile (mk ()) ~n and kb = Kernel.compile (mk ()) ~n:(n - 1) in
      let s = Kernel.scratch k and sb = Kernel.scratch kb in
      let conds = [ Kernel.Discerning; Kernel.Recording ] in
      (* One query, drawn at random, on the stepped pair and on fresh
         compiles of the current table. *)
      let query () =
        let cond = List.nth conds (Random.State.int rng 2) in
        let fresh n =
          let f = Kernel.compile (mk ()) ~n in
          (f, Kernel.scratch f)
        in
        let stop _ = false in
        let full (f, fs) = Kernel.search_range f fs cond ~lo:0 ~hi:(Kernel.total f) ~stop in
        match Random.State.int rng 5 with
        | 0 -> Kernel.exists ~below:(kb, sb) k s cond = (fst (full (fresh n)) <> None)
        | 1 -> Kernel.exists k s cond = (fst (full (fresh n)) <> None)
        | 2 -> Kernel.exists kb sb cond = (fst (full (fresh (n - 1))) <> None)
        | 3 ->
            let lo = Random.State.int rng (Kernel.total k) in
            let hi = lo + 1 + Random.State.int rng (Kernel.total k - lo) in
            let f, fs = fresh n in
            Kernel.search_range k s cond ~lo ~hi ~stop = Kernel.search_range f fs cond ~lo ~hi ~stop
        | _ ->
            let f, fs = fresh n in
            List.for_all
              (fun _ ->
                let u, team, ops = Kernel.candidate k (Random.State.int rng (Kernel.total k)) in
                Kernel.check k s cond ~u ~team ~ops = Kernel.check f fs cond ~u ~team ~ops)
              [ (); (); () ]
      in
      let ok = ref true in
      for _ = 1 to 1 + Random.State.int rng 3 do
        ok := !ok && query ()
      done;
      for _step = 1 to 12 do
        (if Random.State.int rng 6 = 0 then Array.iteri (fun c _ -> tbl.(c) <- draw ()) tbl
         else
           for _ = 1 to 1 + Random.State.int rng 3 do
             let c = Random.State.int rng cells in
             let old = tbl.(c) in
             while tbl.(c) = old do
               tbl.(c) <- draw ()
             done
           done);
        let ty = mk () in
        Kernel.step kb sb ty;
        Kernel.step k s ty;
        ok :=
          !ok
          && Objtype.equal_behaviour (Kernel.to_objtype k) ty
          && Kernel.stale_entries k s = 0
          && Kernel.stale_entries kb sb = 0;
        for _ = 1 to Random.State.int rng 5 do
          ok := !ok && query ()
        done
      done;
      !ok && Kernel.stale_entries k s = 0 && Kernel.stale_entries kb sb = 0)

let test_rank_steps () =
  (* The kernels rank sorted op multisets through [Kernel.rank_steps];
     it must agree with [Kernel.rank_sorted] and with the lex position
     on every nondecreasing sequence of length n <= 6 over no <= 4 ops. *)
  for n = 1 to 6 do
    for no = 1 to 4 do
      let steps = Kernel.rank_steps ~m:no ~k:n in
      let buf = Array.make n 0 and index = ref 0 and more = ref true in
      while !more do
        let label = Printf.sprintf "n=%d no=%d #%d" n no !index in
        let via_table = ref 0 in
        Array.iteri (fun pos o -> via_table := !via_table + steps.((pos * no) + o)) buf;
        check_int (label ^ " rank_sorted") !index (Kernel.rank_sorted ~m:no ~k:n buf);
        check_int (label ^ " table") !index !via_table;
        incr index;
        let j = ref (n - 1) in
        while !j >= 0 && buf.(!j) = no - 1 do
          decr j
        done;
        if !j < 0 then more := false else Array.fill buf !j (n - !j) (buf.(!j) + 1)
      done;
      (* C(no + n - 1, n) sequences in all *)
      let count = ref 1 in
      for i = 1 to n do
        count := !count * (no - 1 + i) / i
      done;
      check_int (Printf.sprintf "n=%d no=%d: every multiset ranked" n no) !count !index
    done
  done

let test_retarget_rejects () =
  let tas = Gallery.test_and_set in
  let k = Kernel.compile tas ~n:2 in
  let s = Kernel.scratch k in
  let raises f = try f (); false with Invalid_argument _ -> true in
  let other =
    Objtype.make ~name:"wider" ~num_values:(tas.Objtype.num_values + 1)
      ~num_ops:tas.Objtype.num_ops ~num_responses:tas.Objtype.num_responses (fun _ _ -> (0, 0))
  in
  Alcotest.(check bool) "different shape rejected" true (raises (fun () -> Kernel.retarget k s other));
  Alcotest.(check bool) "different shape rejected by step" true
    (raises (fun () -> Kernel.step k s other));
  Alcotest.(check bool) "tables untouched by the rejected calls" true
    (Objtype.equal_behaviour (Kernel.to_objtype k) tas)

let suite =
  [
    Alcotest.test_case "certificate validation" `Quick test_certificate_validation;
    Alcotest.test_case "certificate replay" `Quick test_certificate_replay;
    Alcotest.test_case "classical TAS certificate" `Quick test_tas_2_discerning_certificate;
    Alcotest.test_case "search results replay-validate" `Slow test_search_results_validate;
    Alcotest.test_case "U_0/U_1 sets and cleanliness" `Quick test_u_sets;
    Alcotest.test_case "registers are level 1/1" `Quick test_register_level_1;
    Alcotest.test_case "TAS, swap, FAA have consensus number 2" `Quick test_herlihy_level_2_types;
    Alcotest.test_case "Golab: TAS has recoverable consensus number 1" `Quick test_golab_tas_rcn_1;
    Alcotest.test_case "interfering RMW types have rcn 1" `Quick test_interfering_rmw_rcn_1;
    Alcotest.test_case "sticky/CAS/consensus are unbounded" `Slow test_unbounded_types;
    Alcotest.test_case "binary CAS is level 2" `Quick test_binary_cas_is_level_2;
    Alcotest.test_case "max-register / write-once / opaque counter anchors" `Quick test_new_gallery_anchors;
    Alcotest.test_case "team ladders: cn cap+1, rcn cap" `Slow test_team_ladder_levels;
    Alcotest.test_case "T_{n,n'}: discerning n, recording n-1" `Slow test_tnn_levels;
    Alcotest.test_case "x4 witness: cn 4, rcn 2 (paper corollary)" `Quick test_x4_witness_levels;
    Alcotest.test_case "crossing family: cn n, rcn n-2 for n=4..6" `Slow test_crossing_family_levels;
    Alcotest.test_case "discerning/recording downward closure" `Slow test_downward_closure;
    Alcotest.test_case "naive and pruned search agree" `Quick test_naive_vs_pruned_search;
    Alcotest.test_case "candidate counting" `Quick test_candidate_counts;
    Alcotest.test_case "closed-form counts match enumeration" `Quick test_count_closed_form;
    Alcotest.test_case "kernel rank/unrank walks the reference enumeration" `Quick
      test_kernel_rank_enumeration;
    Alcotest.test_case "retarget rejects a different shape, keeps its tables" `Quick
      test_retarget_rejects;
    Alcotest.test_case "decider rejects n < 2" `Quick test_decider_rejects_small_n;
    Alcotest.test_case "lazy certificate stream" `Quick test_certificates_seq;
    Alcotest.test_case "product type structure" `Quick test_product_structure;
    Alcotest.test_case "robustness report (Theorem 14)" `Quick test_robustness_report;
    Alcotest.test_case "robustness input validation" `Quick test_robustness_rejects_non_readable;
    Alcotest.test_case "Theorem 14 on product objects" `Slow test_product_robustness;
    Alcotest.test_case "census sample properties" `Slow test_census_sample_properties;
    Alcotest.test_case "open-question probe: non-readable products" `Slow test_nonreadable_product_probe;
    Alcotest.test_case "recording never exceeds discerning" `Slow test_recording_at_most_discerning;
    Alcotest.test_case "DFFR: readable gap at most 2" `Slow test_dffr_gap_at_most_2;
    QCheck_alcotest.to_alcotest prop_decider_certificates_replay;
    QCheck_alcotest.to_alcotest prop_kernel_matches_reference;
    Alcotest.test_case "kernel matches the reference on multi-word value sets" `Quick
      test_kernel_multiword_values;
    QCheck_alcotest.to_alcotest prop_stepped_back_and_forth_matches_fresh_compile;
    QCheck_alcotest.to_alcotest prop_retargeted_kernel_matches_fresh_compile;
    QCheck_alcotest.to_alcotest prop_stepped_kernels_match_fresh_compile;
    Alcotest.test_case "rank steps agree with rank_sorted" `Quick test_rank_steps;
    QCheck_alcotest.to_alcotest prop_reference_verdict_is_process_symmetric;
    Alcotest.test_case "kernel folds once per sorted op multiset" `Quick
      test_kernel_folds_per_multiset;
    Alcotest.test_case "exists agrees with the full rank scan" `Quick test_exists_matches_full_scan;
    Alcotest.test_case "exists visits each (u, multiset) entry once" `Quick
      test_exists_one_visit_per_entry;
    Alcotest.test_case "census entries: recording <= discerning" `Quick
      test_census_recording_at_most_discerning;
    Alcotest.test_case "exists: recording implies discerning" `Quick
      test_exists_recording_implies_discerning;
    Alcotest.test_case "ladder and rec => disc hold entry by entry" `Quick
      test_ladder_entry_level;
    Alcotest.test_case "exists ~below rejects a mismatched below" `Quick
      test_exists_below_rejects;
  ]
