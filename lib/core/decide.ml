type condition = Kernel.condition = Discerning | Recording

(* ------------------------------------------------------------------ *)
(* Certificate enumeration *)

let range lo hi = Seq.init (max 0 (hi - lo)) (fun i -> lo + i)

(* Nondecreasing sequences of length [k] over [lowest .. m-1]:
   representatives of operation multisets for one team. *)
let rec sorted_assignments m k lowest =
  if k = 0 then Seq.return []
  else
    Seq.concat_map
      (fun o -> Seq.map (fun rest -> o :: rest) (sorted_assignments m (k - 1) o))
      (range lowest m)

let rec all_assignments m k =
  if k = 0 then Seq.return []
  else
    Seq.concat_map
      (fun o -> Seq.map (fun rest -> o :: rest) (all_assignments m (k - 1)))
      (range 0 m)

(* Partitions of [0 .. n-1] into (T_0, T_1) with process 0 in T_0 and T_1
   nonempty, encoded as the membership array of T_1. *)
let partitions n =
  Seq.map
    (fun mask -> Array.init n (fun i -> i > 0 && (mask lsr (i - 1)) land 1 = 1))
    (range 1 (1 lsl (n - 1)))

(* Operation assignments for a fixed team partition: within-team multisets
   (sorted representatives) by default, the full function space when
   [naive]. *)
let ops_for_team ?(naive = false) (t : Objtype.t) team =
  let n = Array.length team in
  let members x =
    Array.to_list (Array.mapi (fun i b -> (i, b)) team)
    |> List.filter_map (fun (i, b) -> if b = x then Some i else None)
  in
  let t0 = members false and t1 = members true in
  let assignments k =
    if naive then all_assignments t.Objtype.num_ops k
    else sorted_assignments t.Objtype.num_ops k 0
  in
  Seq.concat_map
    (fun ops0 ->
      Seq.map
        (fun ops1 ->
          let ops = Array.make n 0 in
          List.iter2 (fun i o -> ops.(i) <- o) t0 ops0;
          List.iter2 (fun i o -> ops.(i) <- o) t1 ops1;
          ops)
        (assignments (List.length t1)))
    (assignments (List.length t0))

let candidates ?(naive = false) (t : Objtype.t) ~n =
  if n < 2 then invalid_arg "Decide: need n >= 2";
  let ops_for team = ops_for_team ~naive t team in
  Seq.concat_map
    (fun u ->
      Seq.concat_map
        (fun team -> Seq.map (fun ops -> (u, team, ops)) (ops_for team))
        (partitions n))
    (range 0 t.Objtype.num_values)

(* Closed form (no enumeration); pinned against a [candidates] fold for
   small types in the test suite. *)
let count_candidates ?(naive = false) (t : Objtype.t) ~n =
  if n < 2 then invalid_arg "Decide: need n >= 2";
  if naive then Kernel.count_naive t ~n else Kernel.count t ~n

(* ------------------------------------------------------------------ *)
(* Fast condition checks over precomputed schedules *)

let check_recording_fast (t : Objtype.t) scheds ~u ~team ~ops =
  (* team_of : final value -> team of the schedule's first process; a clash
     means U_0 and U_1 intersect. *)
  let team_of = Hashtbl.create 32 in
  let u_hit = [| false; false |] in
  let ok = ref true in
  let rec check = function
    | [] -> ()
    | procs :: rest ->
        (match procs with
        | [] -> ()
        | first :: _ ->
            let x = team.(first) in
            let final =
              List.fold_left (fun v p -> snd (t.Objtype.delta v ops.(p))) u procs
            in
            if final = u then u_hit.(Bool.to_int x) <- true;
            (match Hashtbl.find_opt team_of final with
            | None -> Hashtbl.add team_of final x
            | Some x' -> if x' <> x then ok := false));
        if !ok then check rest
  in
  check scheds;
  !ok
  &&
  let size x = Array.fold_left (fun acc b -> if b = x then acc + 1 else acc) 0 team in
  ((not u_hit.(0)) || size true = 1) && ((not u_hit.(1)) || size false = 1)

let check_discerning_fast (t : Objtype.t) scheds ~u ~team ~ops =
  let n = Array.length team in
  let seen = Hashtbl.create 64 in
  let responses = Array.make n (-1) in
  let ok = ref true in
  let rec check = function
    | [] -> ()
    | procs :: rest ->
        (match procs with
        | [] -> ()
        | first :: _ ->
            let x = team.(first) in
            let final =
              List.fold_left
                (fun v p ->
                  let r, v' = t.Objtype.delta v ops.(p) in
                  responses.(p) <- r;
                  v')
                u procs
            in
            List.iter
              (fun j ->
                let key = (j, responses.(j), final) in
                match Hashtbl.find_opt seen key with
                | None -> Hashtbl.add seen key x
                | Some x' -> if x' <> x then ok := false)
              procs);
        if !ok then check rest
  in
  check scheds;
  !ok

(* ------------------------------------------------------------------ *)

let checker = function
  | Discerning -> check_discerning_fast
  | Recording -> check_recording_fast

let check condition t scheds ~u ~team ~ops = (checker condition) t scheds ~u ~team ~ops

let certificates ?naive ?scheds condition t ~n =
  let scheds =
    match scheds with Some s -> s | None -> Sched.at_most_once ~nprocs:n
  in
  let check = checker condition in
  candidates ?naive t ~n
  |> Seq.filter_map (fun (u, team, ops) ->
         if check t scheds ~u ~team ~ops then
           Some (Certificate.make ~objtype:t ~initial:u ~team ~ops)
         else None)

(* The reference search: force the head of the lazy witness sequence. *)
let search_reference ?naive ?scheds condition t ~n =
  match (certificates ?naive ?scheds condition t ~n) () with
  | Seq.Nil -> None
  | Seq.Cons (c, _) -> Some c

let search ?(naive = false) ?scheds ?obs ?(mode = Kernel.Trie) condition t ~n =
  match mode with
  | Kernel.Trie when not naive -> (
      if n < 2 then invalid_arg "Decide: need n >= 2";
      let k = Kernel.compile ?obs t ~n in
      let s = Kernel.scratch k in
      match
        Kernel.search_range k s condition ~lo:0 ~hi:(Kernel.total k) ~stop:(fun _ -> false)
      with
      | Some rank, _ ->
          let u, team, ops = Kernel.candidate k rank in
          Some (Certificate.make ~objtype:t ~initial:u ~team ~ops)
      | None, _ -> None)
  | Kernel.Reference | Kernel.Trie -> search_reference ~naive ?scheds condition t ~n

let is_discerning t ~n = Option.is_some (search Discerning t ~n)
let is_recording t ~n = Option.is_some (search Recording t ~n)

let search_partitioned ?(clean = false) ?(mode = Kernel.Trie) condition t ~team =
  let n = Array.length team in
  if n < 2 then invalid_arg "Decide.search_partitioned: need n >= 2";
  if not (Array.exists Fun.id team && Array.exists not team) then
    invalid_arg "Decide.search_partitioned: both teams must be nonempty";
  let check_one =
    match mode with
    | Kernel.Reference ->
        let scheds = Sched.at_most_once ~nprocs:n in
        let check = checker condition in
        fun u ops -> check t scheds ~u ~team ~ops
    | Kernel.Trie ->
        let k = Kernel.compile t ~n in
        let s = Kernel.scratch k in
        fun u ops -> Kernel.check k s condition ~u ~team ~ops
  in
  Seq.concat_map
    (fun u -> Seq.map (fun ops -> (u, ops)) (ops_for_team t team))
    (range 0 t.Objtype.num_values)
  |> Seq.filter_map (fun (u, ops) ->
         if check_one u ops then
           let cert = Certificate.make ~objtype:t ~initial:u ~team ~ops in
           if (not clean) || Certificate.is_clean cert then Some cert else None
         else None)
  |> fun seq -> (match seq () with Seq.Nil -> None | Seq.Cons (c, _) -> Some c)
