(* Canonical labeling: the canonizer against brute-force orbit
   enumeration on small spaces, the qcheck invariance property, and the
   closed-form partition pin (orbit sizes sum to the candidate count). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let spaces = [ (2, 2, 2); (3, 2, 2); (2, 3, 2); (2, 2, 3) ]

(* --- hand-pinned orbits ---------------------------------------------- *)

(* The constant table T(x,op) = (0,0) on {2,2,2}: its stabilizer is
   {(id, sigma, rho) | rho 0 = 0}, order 2!*1 = 2 with both responses
   used... response 1 is unused, so rho is free on it: order 2!*1! = 2
   from sigma alone times 1! for the unused response — |Aut| = 4,
   orbit = 8/4... brute: images are the 4 constant tables (r,v), so
   orbit = 4 and |Aut| = 2. *)
let test_constant_table () =
  let t = Sym.make ~values:2 ~ops:2 ~responses:2 in
  let tbl = Array.make 4 (0, 0) in
  let c = Sym.canonize t tbl in
  check_int "orbit" (Sym.orbit_brute t tbl) c.Sym.orbit;
  check_int "orbit is 4" 4 c.Sym.orbit;
  check_int "aut * orbit = group" (Sym.group_order t) (c.Sym.aut * c.Sym.orbit);
  (* the constant table is fully determined by one cell: canonical form
     must itself be constant *)
  Array.iter
    (fun (r, v) ->
      check_int "form resp" (fst c.Sym.form.(0)) r;
      check_int "form val" (snd c.Sym.form.(0)) v)
    c.Sym.form

(* A rigid table: distinct rows and columns leave no symmetry, so the
   orbit is the whole group. *)
let test_rigid_table () =
  let t = Sym.make ~values:2 ~ops:2 ~responses:2 in
  (* T(0,0)=(0,0) T(0,1)=(1,0) T(1,0)=(0,0) T(1,1)=(0,1) *)
  let tbl = [| (0, 0); (1, 0); (0, 0); (0, 1) |] in
  let c = Sym.canonize t tbl in
  check_int "orbit" (Sym.orbit_brute t tbl) c.Sym.orbit;
  check_int "orbit is the group" (Sym.group_order t) c.Sym.orbit;
  check_int "aut trivial" 1 c.Sym.aut

(* The constant table of {2,2,r} is fixed by the op swap and by every
   permutation of its r - 1 unused response labels: |Aut| = 2 * (r - 1)!,
   which overflows [max_int] from r = 21 on.  The canonizer reports it
   as [-1], like the orbit, never as a wrapped product. *)
let test_constant_table_overflow () =
  List.iter
    (fun r ->
      let c = Sym.canonize (Sym.make ~values:2 ~ops:2 ~responses:r) (Array.make 4 (0, 0)) in
      check_int (Printf.sprintf "{2,2,%d} aut" r) (-1) c.Sym.aut;
      check_int (Printf.sprintf "{2,2,%d} orbit" r) (-1) c.Sym.orbit)
    [ 22; 181 ];
  (* At r = 20 the group order (4 * 20!) overflows but |Aut| does not. *)
  let c = Sym.canonize (Sym.make ~values:2 ~ops:2 ~responses:20) (Array.make 4 (0, 0)) in
  check_int "{2,2,20} aut = 2 * 19!" (2 * 121645100408832000) c.Sym.aut;
  check_int "{2,2,20} orbit" (-1) c.Sym.orbit

(* --- bijection ------------------------------------------------------- *)

let test_bijection () =
  List.iter
    (fun (v, o, r) ->
      let t = Sym.make ~values:v ~ops:o ~responses:r in
      let size = Sym.space_size t in
      check_int "space size matches census"
        (Census.space_size { Synth.num_values = v; num_rws = o; num_responses = r })
        size;
      for idx = 0 to min (size - 1) 500 do
        check_int "unrank . rank" idx (Sym.index_of_table t (Sym.table_of_index t idx))
      done;
      (* the bijection is the census genome layout *)
      for idx = 0 to min (size - 1) 200 do
        let g =
          Census.genome_of_index { Synth.num_values = v; num_rws = o; num_responses = r } idx
        in
        check_bool "same layout as genome_of_index" true
          (Sym.table_of_index t idx = Synth.table g)
      done)
    spaces

(* --- exhaustive agreement with the brute oracle on {2,2,2} ----------- *)

let test_brute_agreement () =
  let t = Sym.make ~values:2 ~ops:2 ~responses:2 in
  for idx = 0 to Sym.space_size t - 1 do
    let tbl = Sym.table_of_index t idx in
    let c = Sym.canonize t tbl in
    check_int "orbit matches brute enumeration" (Sym.orbit_brute t tbl) c.Sym.orbit;
    (* idempotence: the canonical form canonizes to itself *)
    let c' = Sym.canonize t c.Sym.form in
    check_int "canonical form is a fixpoint" c.Sym.index c'.Sym.index
  done

(* --- classes: partition of the space --------------------------------- *)

let test_classes_partition () =
  List.iter
    (fun (v, o, r) ->
      let t = Sym.make ~values:v ~ops:o ~responses:r in
      let reps, orbits = Sym.classes t in
      let n = Array.length reps in
      check_int "reps and orbits align" n (Array.length orbits);
      check_bool "strictly fewer classes than candidates" true (n < Sym.space_size t);
      check_int "orbit sizes sum to the closed-form candidate count" (Sym.space_size t)
        (Array.fold_left ( + ) 0 orbits);
      Array.iteri
        (fun i rep ->
          if i > 0 then check_bool "reps ascend" true (reps.(i - 1) < rep);
          check_bool "rep is its own canonical index" true (Sym.is_rep t rep))
        reps)
    spaces

(* Every index canonizes to a rep of its class, and class membership is
   consistent: members counted per rep equal the rep's orbit.  All
   46,656 indices of {3,2,2}, so the sweep's orbit images and the
   canonizer's class-respecting search are checked against each other
   on a space with three values for refinement to split; and every
   index of {2,2,3} and {2,3,3}, where many tables leave a response
   label unused, so the sweep's r! / (r - k)! renaming factor is
   checked against the canonizer class by class. *)
let test_classes_cover () =
  List.iter
    (fun (v, o, r) ->
      let t = Sym.make ~values:v ~ops:o ~responses:r in
      let name = Printf.sprintf "{%d,%d,%d}" v o r in
      let reps, orbits = Sym.classes t in
      let count = Hashtbl.create 4096 in
      for idx = 0 to Sym.space_size t - 1 do
        let c = Sym.canonize_index t idx in
        Hashtbl.replace count c.Sym.index
          (1 + Option.value ~default:0 (Hashtbl.find_opt count c.Sym.index))
      done;
      check_int (name ^ " every index lands on a rep") (Array.length reps) (Hashtbl.length count);
      Array.iteri
        (fun i rep ->
          check_int (name ^ " class population = orbit size") orbits.(i)
            (Option.value ~default:0 (Hashtbl.find_opt count rep)))
        reps)
    [ (3, 2, 2); (2, 2, 3); (2, 3, 3) ]

(* The sweep never forms the group order, so it runs on a rankable
   shape whose values! * ops! * responses! overflows: {2,2,181} has
   362^4 tables and 181! group elements.  A table has four cells and so
   uses at most four response labels, which makes its classes those of
   {2,2,5}: 81 of them. *)
let test_classes_large_responses () =
  let t = Sym.make ~values:2 ~ops:2 ~responses:181 in
  let reps, orbits = Sym.classes t in
  check_int "class count as at {2,2,5}" 81 (Array.length reps);
  check_int "orbit sizes sum to the space" (Sym.space_size t) (Array.fold_left ( + ) 0 orbits);
  Array.iter (fun rep -> check_bool "rep is its own canonical index" true (Sym.is_rep t rep)) reps

(* --- bit-identity pins ----------------------------------------------- *)

(* [Sym.classes] is the work list of every [--sym] census, checkpoint
   and distributed lease: its reps and orbit sizes are pinned as an MD5
   of their decimal rendering, so any change to the sweep or to the
   canonizer's choice of representative shows up here. *)
let classes_pins =
  [
    ((2, 2, 2), 44, "47a5230d0a354b3d636aeb1196834f89");
    ((3, 2, 2), 2038, "85fd203159ce6cac4924a8021ca86a24");
    ((2, 3, 2), 226, "e06a7e5c22aae6c56ce2bb534b740cc9");
    ((2, 2, 3), 74, "a405c209ac23d3c67326897f8d1e881e");
    ((3, 2, 3), 7623, "17ded03bbbf87651e8ddf200a918a295");
    ((3, 2, 4), 11676, "4f5d55ee8c7ae3fef597b87e57c2d079");
    ((2, 2, 5), 81, "d5c929237a5de98fb48b541f41d2ded2");
    ((2, 3, 4), 1183, "a16319d89787fc288967e7f3650dd51c");
  ]

let test_classes_pinned () =
  List.iter
    (fun ((v, o, r), n, md5) ->
      let t = Sym.make ~values:v ~ops:o ~responses:r in
      let reps, orbits = Sym.classes t in
      let name = Printf.sprintf "{%d,%d,%d}" v o r in
      check_int (name ^ " class count") n (Array.length reps);
      Alcotest.(check string)
        (name ^ " reps and orbits")
        md5
        (Digest.to_hex
           (Digest.string
              (String.concat " "
                 (List.map string_of_int (Array.to_list reps @ Array.to_list orbits))))))
    classes_pins

(* The canonical form depends on the dense color ids refinement hands
   out (placements walk color blocks in color order), and the form is
   the key material of [Sym.digest] — the [--sym] store key and the
   synthesizer's symmetry memo.  A fixed-seed sample of tables, some
   drawn from restricted value/response ranges so unused labels and
   uneven response rows occur, pins the digests.  {11,3,11} is
   unrankable: only [canonize]/[digest] apply there. *)
let test_digest_color_order_pinned () =
  (* a 48-bit LCG, so the sample does not depend on [Random] *)
  let state = ref 0x2545F491 in
  let next bound =
    state := ((!state * 0x5DEECE66D) + 0xB) land ((1 lsl 48) - 1);
    (!state lsr 17) mod bound
  in
  let sample ~restrict (v, o, r) count =
    let t = Sym.make ~values:v ~ops:o ~responses:r in
    let out = ref [] in
    for _ = 1 to count do
      let rlim = if restrict then 1 + next r else r in
      let vlim = if restrict then 1 + next v else v in
      let tbl = Array.make (v * o) (0, 0) in
      for i = 0 to (v * o) - 1 do
        let rs = next rlim in
        tbl.(i) <- (rs, next vlim)
      done;
      out := Sym.digest t tbl :: !out
    done;
    List.rev !out
  in
  (* full-range draws only on {11,3,11}: a near-constant table there
     leaves up to 11! * 3! class-respecting placements *)
  let a = sample ~restrict:true (4, 2, 2) 300 in
  let b = sample ~restrict:true (3, 3, 2) 300 in
  let c = sample ~restrict:false (11, 3, 11) 100 in
  let digests = a @ b @ c in
  Alcotest.(check string)
    "sampled digests" "0f85e00bf07eee2cc9ae730dfbdd622c"
    (Digest.to_hex (Digest.string (String.concat "\n" digests)))

(* --- qcheck: invariance under random relabelings --------------------- *)

let perm_gen n st =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = QCheck.Gen.int_bound i st in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

let prop_canonize_invariant =
  let gen st =
    let v, o, r = List.nth spaces (QCheck.Gen.int_bound (List.length spaces - 1) st) in
    let tbl =
      Array.init (v * o) (fun _ -> (QCheck.Gen.int_bound (r - 1) st, QCheck.Gen.int_bound (v - 1) st))
    in
    ((v, o, r), tbl, perm_gen v st, perm_gen o st, perm_gen r st)
  in
  let print ((v, o, r), tbl, pv, po, pr) =
    let arr a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
    Printf.sprintf "space=%d/%d/%d tbl=[%s] pv=[%s] po=[%s] pr=[%s]" v o r
      (String.concat ";" (Array.to_list (Array.map (fun (a, b) -> Printf.sprintf "%d:%d" a b) tbl)))
      (arr pv) (arr po) (arr pr)
  in
  QCheck.Test.make ~name:"permuted tables canonize to identical forms and digests" ~count:300
    (QCheck.make ~print gen)
    (fun ((v, o, r), tbl, pv, po, pr) ->
      let t = Sym.make ~values:v ~ops:o ~responses:r in
      let c = Sym.canonize t tbl in
      let c' = Sym.canonize t (Sym.apply t tbl ~pv ~po ~pr) in
      c.Sym.index = c'.Sym.index
      && c.Sym.form = c'.Sym.form
      && c.Sym.orbit = c'.Sym.orbit
      && c.Sym.aut = c'.Sym.aut
      && Sym.digest t tbl = Sym.digest t (Sym.apply t tbl ~pv ~po ~pr))

(* --- canonical digests ----------------------------------------------- *)

let test_digest () =
  let t = Sym.make ~values:2 ~ops:2 ~responses:2 in
  let a = [| (0, 0); (1, 0); (0, 0); (0, 1) |] in
  (* a with values swapped *)
  let b = Sym.apply t a ~pv:[| 1; 0 |] ~po:[| 0; 1 |] ~pr:[| 0; 1 |] in
  check_bool "isomorphic tables share a digest" true (Sym.digest t a = Sym.digest t b);
  let c = Array.make 4 (0, 0) in
  check_bool "non-isomorphic tables differ" true (Sym.digest t a <> Sym.digest t c)

(* The serve-store key under --sym: isomorphic types hash to one
   canonical digest (the exact-spec digest tells them apart), and cap
   stays part of the key. *)
let test_canonical_query_digest () =
  let t = Sym.make ~values:2 ~ops:2 ~responses:2 in
  let space = { Synth.num_values = 2; num_rws = 2; num_responses = 2 } in
  let tbl = [| (0, 0); (1, 0); (0, 0); (0, 1) |] in
  (* the rigid table: any nontrivial relabeling yields a distinct twin *)
  let tbl' = Sym.apply t tbl ~pv:[| 1; 0 |] ~po:[| 1; 0 |] ~pr:[| 0; 1 |] in
  let ty a = Synth.to_objtype (Census.genome_of_index space (Sym.index_of_table t a)) in
  check_bool "isomorphic types share the canonical digest" true
    (Api.query_digest_canonical (ty tbl) ~cap:4
    = Api.query_digest_canonical (ty tbl') ~cap:4);
  check_bool "exact-spec digests still tell them apart" true
    (Api.query_digest (ty tbl) ~cap:4 <> Api.query_digest (ty tbl') ~cap:4);
  check_bool "cap is part of the canonical key" true
    (Api.query_digest_canonical (ty tbl) ~cap:4
    <> Api.query_digest_canonical (ty tbl) ~cap:5)

(* --- Engine.census under symmetry reduction -------------------------- *)

(* The acceptance pin: the reduced census returns the bit-identical
   histogram while deciding strictly fewer candidates.  The summary is
   in table units either way, so the two runs must agree on every
   field. *)
let census_sym_identity ~space ~cap () =
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let run ~sym =
    let obs = Obs.create () in
    let config = Api.Config.v ~cap ~kernel:Kernel.Trie ~sym () in
    (Engine.census ~obs ~config pool space, obs)
  in
  let off, _ = run ~sym:false in
  let on, obs = run ~sym:true in
  check_bool "both runs complete" true (off.Engine.complete && on.Engine.complete);
  check_bool "bit-identical histogram" true (on.Engine.entries = off.Engine.entries);
  check_int "totals agree (table units)" off.Engine.total on.Engine.total;
  check_int "completed covers the space (table units)" (Census.space_size space)
    on.Engine.completed;
  let classes = Obs.Metrics.Counter.value (Obs.counter obs "sym.classes") in
  check_bool "sym.classes nonzero" true (classes > 0);
  check_bool "strictly fewer decisions than candidates" true
    (classes < Census.space_size space);
  check_int "decisions = classes" classes
    (Obs.Metrics.Counter.value (Obs.counter obs "census.tables"))

let test_census_sym_small () =
  census_sym_identity ~space:{ Synth.num_values = 2; num_rws = 2; num_responses = 2 }
    ~cap:3 ()

(* {3,2,2} at cap 4 — the E21 workload, the issue's acceptance pin. *)
let test_census_sym_322 () =
  census_sym_identity ~space:{ Synth.num_values = 3; num_rws = 2; num_responses = 2 }
    ~cap:4 ()

let suite =
  [
    ("constant table orbit", `Quick, test_constant_table);
    ("rigid table orbit", `Quick, test_rigid_table);
    ("constant table aut past max_int", `Quick, test_constant_table_overflow);
    ("rank/unrank bijection matches census genomes", `Quick, test_bijection);
    ("canonize agrees with brute force on {2,2,2}", `Quick, test_brute_agreement);
    ("orbit sizes sum to the candidate count", `Quick, test_classes_partition);
    ("classes cover the space", `Quick, test_classes_cover);
    ("classes past the group order", `Quick, test_classes_large_responses);
    ("classes pinned bit-identical", `Quick, test_classes_pinned);
    ("digest color order pinned", `Quick, test_digest_color_order_pinned);
    ("canonical digests", `Quick, test_digest);
    ("canonical analyze store keys", `Quick, test_canonical_query_digest);
    ("sym census bit-identical on {2,2,2}", `Quick, test_census_sym_small);
    ("sym census bit-identical on {3,2,2} cap 4", `Slow, test_census_sym_322);
    QCheck_alcotest.to_alcotest prop_canonize_invariant;
  ]
