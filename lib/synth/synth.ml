type space = { num_values : int; num_rws : int; num_responses : int }

type genome = { space : space; table : (Objtype.response * Objtype.value) array }

let space_of g = g.space

let check_space space =
  if space.num_values < 2 then invalid_arg "Synth: need at least 2 values";
  if space.num_rws < 2 then invalid_arg "Synth: need at least 2 RMW operations";
  if space.num_responses < 2 then invalid_arg "Synth: need at least 2 responses"

let of_table space table =
  check_space space;
  if Array.length table <> space.num_values * space.num_rws then
    invalid_arg "Synth.of_table: wrong table size";
  Array.iter
    (fun (r, v) ->
      if r < 0 || r >= space.num_responses || v < 0 || v >= space.num_values then
        invalid_arg "Synth.of_table: entry out of range")
    table;
  { space; table = Array.copy table }

let table g = Array.copy g.table

let to_objtype ?(name = "synthesized") g =
  let { num_values; num_rws; num_responses } = g.space in
  (* Ops 0 .. num_rws-1 are the RMW operations; op num_rws is Read, whose
     responses are offset past the RMW responses so the type is readable by
     construction. *)
  Objtype.make ~name ~num_values ~num_ops:(num_rws + 1)
    ~num_responses:(num_responses + num_values)
    ~response_name:(fun r ->
      if r < num_responses then Printf.sprintf "r%d" r
      else Printf.sprintf "=v%d" (r - num_responses))
    ~op_name:(fun o -> if o = num_rws then "read" else Printf.sprintf "rmw%d" o)
    (fun v o ->
      if o = num_rws then (num_responses + v, v) else g.table.((v * num_rws) + o))

let random_genome rng space =
  check_space space;
  {
    space;
    table =
      Array.init (space.num_values * space.num_rws) (fun _ ->
          (Random.State.int rng space.num_responses, Random.State.int rng space.num_values));
  }

(* One table index and a *different* entry for it.  Rerolling until the
   entry changes never burns a fitness evaluation on an identical genome
   (a space has at least 2 values and 2 responses, so at least 3 other
   entries always exist). *)
let mutate rng g =
  let i = Random.State.int rng (Array.length g.table) in
  let prev = g.table.(i) in
  let rec draw () =
    let e =
      (Random.State.int rng g.space.num_responses, Random.State.int rng g.space.num_values)
    in
    if e = prev then draw () else e
  in
  let table = Array.copy g.table in
  table.(i) <- draw ();
  { g with table }

(* Orbit-invariant fingerprint of an RMW table: a cheap O(cells) hash
   that is equal on every member of an isomorphism class under
   S_values x S_rws x S_responses.  Per cell it keeps only relabeling-
   invariant features — self-loop flag, the global occurrence count of
   the cell's response, the global in-degree of the cell's successor —
   sorts them within each row (coarser than the one global op
   permutation, hence still invariant), tags rows with their
   within-row distinct-response/successor counts, and hashes the sorted
   multiset of row codes.  Soundness needs invariance only: unequal
   fingerprints prove non-isomorphic, equal fingerprints fall through
   to the exact canonical-digest comparison.  The point is cost: the
   symmetry memo's common case is a *fresh* candidate, and this filter
   decides freshness without running the canonizer (~2us vs ~70-130us
   per Sym.digest on 9..13-value spaces — the dominant cost of the
   whole incremental search loop before the filter existed). *)
let fingerprint space (tbl : (int * int) array) =
  let v = space.num_values and o = space.num_rws in
  let resp_count = Array.make space.num_responses 0 in
  let indeg = Array.make v 0 in
  Array.iter
    (fun (r, y) ->
      resp_count.(r) <- resp_count.(r) + 1;
      indeg.(y) <- indeg.(y) + 1)
    tbl;
  let mix h c = (h * 1000003) + c in
  let cell_codes = Array.make o 0 in
  let row_codes = Array.make v 0 in
  for x = 0 to v - 1 do
    let base = x * o in
    let ndr = ref 0 and ndy = ref 0 in
    for op = 0 to o - 1 do
      let r, y = tbl.(base + op) in
      let fresh_r = ref true and fresh_y = ref true in
      for op' = 0 to op - 1 do
        let r', y' = tbl.(base + op') in
        if r' = r then fresh_r := false;
        if y' = y then fresh_y := false
      done;
      if !fresh_r then incr ndr;
      if !fresh_y then incr ndy;
      cell_codes.(op) <-
        (((Bool.to_int (y = x) * (v * o)) + resp_count.(r)) * ((v * o) + 1)) + indeg.(y)
    done;
    Array.sort compare cell_codes;
    let h = ref (mix !ndr !ndy) in
    Array.iter (fun c -> h := mix !h c) cell_codes;
    row_codes.(x) <- !h
  done;
  Array.sort compare row_codes;
  Array.fold_left mix 0 row_codes

let seed_ladder space =
  check_space space;
  (* Embed the team-ladder structure: value 0 = s, 1 = bot, then A-rungs and
     B-rungs split the remaining values.  The first half of the RMW ops act
     as op_0, the rest as op_1; responses 0/1 encode the chain's team. *)
  let v = space.num_values in
  let rungs = max 1 ((v - 2) / 2) in
  let a i = 2 + i and b i = 2 + rungs + i in
  let table = Array.make (v * space.num_rws) (0, min 1 (v - 1)) in
  let set value op entry = table.((value * space.num_rws) + op) <- entry in
  let bot = min 1 (v - 1) in
  for op = 0 to space.num_rws - 1 do
    let team = if op < space.num_rws / 2 then 0 else 1 in
    if v > 2 then
      set 0 op (team, if team = 0 then a 0 else if v > 2 + rungs then b 0 else a 0);
    set bot op (0, bot);
    for i = 0 to rungs - 1 do
      if a i < v then set (a i) op (0, if i + 1 < rungs && a (i + 1) < v then a (i + 1) else bot);
      if b i < v then set (b i) op (1, if i + 1 < rungs && b (i + 1) < v then b (i + 1) else bot)
    done
  done;
  { space; table }

let seed_crossing space =
  check_space space;
  if space.num_values < 5 || space.num_rws < 4 || space.num_responses < 5 then
    invalid_arg "Synth.seed_crossing: need at least 5 values, 4 RMW ops, 5 responses";
  (* Values 0 = u, 1 = A1, 2 = A1c, 3 = B1, 4 = B1c; the first half of the
     RMW ops are A-side, the rest B-side; same-side ops are idle on rungs,
     cross-side ops climb, and a second cross restores u.  Responses encode
     the old value.  Extra values behave like u; see Gallery.x4_witness. *)
  let v = space.num_values in
  let table = Array.make (v * space.num_rws) (0, 0) in
  let set value op entry = table.((value * space.num_rws) + op) <- entry in
  for op = 0 to space.num_rws - 1 do
    let a_side = op < space.num_rws / 2 in
    for value = 0 to v - 1 do
      let next =
        match (min value 4, a_side) with
        | 0, true -> 1
        | 0, false -> 3
        | 1, true -> 1
        | 1, false -> 2
        | 2, true -> 1
        | 2, false -> 0
        | 3, false -> 3
        | 3, true -> 4
        | 4, false -> 3
        | _, _ -> 0
      in
      set value op (min value (space.num_responses - 1), next)
    done
  done;
  { space; table }

let weights = [| 1; 2; 2; 4 |]
let max_fitness = Array.fold_left ( + ) 0 weights

let fitness ~target g =
  if target < 4 then invalid_arg "Synth.fitness: target must be at least 4";
  let ty = to_objtype g in
  let score = ref 0 in
  let pass w cond = if cond then score := !score + w in
  let rec_lo = Decide.is_recording ty ~n:(target - 2) in
  pass weights.(0) rec_lo;
  (* Only pay for the more expensive checks when the cheap ones pass. *)
  if rec_lo then begin
    let rec_hi = Decide.is_recording ty ~n:(target - 1) in
    pass weights.(1) (not rec_hi);
    if not rec_hi then begin
      let disc_lo = Decide.is_discerning ty ~n:(target - 1) in
      pass weights.(2) disc_lo;
      if disc_lo then pass weights.(3) (Decide.is_discerning ty ~n:target)
    end
  end;
  !score

type witness = {
  objtype : Objtype.t;
  discerning_level : int;
  recording_level : int;
  iterations : int;
}

let verify_witness ~target ty =
  Objtype.is_readable ty
  &&
  let disc = Numbers.max_discerning ~cap:(target + 1) ty in
  let record = Numbers.max_recording ~cap:(target + 1) ty in
  Numbers.equal_bound (Numbers.bound_of_level disc) (Numbers.Exact target)
  && Numbers.equal_bound (Numbers.bound_of_level record) (Numbers.Exact (target - 2))

let default_max_iterations = 50_000
let default_restart_every = 2_000

(* One long-lived kernel + scratch per fitness level, held across the
   whole search.  [at] is the genome table the level decides (genome
   tables are never mutated, so it is compared physically); a level is
   [Kernel.step]ped to a candidate's table at its first consultation. *)
type level = { lk : Kernel.t; ls : Kernel.scratch; mutable at : (int * int) array }

let search ?(seed = 0) ?(max_iterations = default_max_iterations)
    ?(restart_every = default_restart_every) ?(incremental = true) ?obs ?on_score
    ~target space =
  check_space space;
  if target < 4 then invalid_arg "Synth.search: target must be at least 4";
  let rng =
    Random.State.make [| seed; space.num_values; space.num_rws; space.num_responses; target |]
  in
  let c_evals = Option.map (fun o -> Obs.counter o "synth.evals") obs in
  let c_skips = Option.map (fun o -> Obs.counter o "synth.sym_skips") obs in
  let bump = function Some c -> Obs.Metrics.Counter.incr c | None -> () in
  (* The per-search symmetry memo: the fitness components quantify over
     every initial value, operation assignment, team and response
     relabeling, so they are orbit invariants of the RMW table under
     S_values x S_rws x S_responses (a table isomorphism extends to the
     induced readable type: the Read column transforms covariantly).
     Candidates whose canonical digest was already scored skip the
     evaluation — in both modes, so trajectories stay aligned. *)
  let symc =
    Sym.make ~values:space.num_values ~ops:space.num_rws ~responses:space.num_responses
  in
  (* Memo buckets keyed by the cheap {!fingerprint}; within a bucket,
     candidates are distinguished by exact canonical digest (computed
     lazily, at most once per evaluated candidate — a fresh candidate
     landing in an empty bucket never pays the canonizer at all).
     Genome tables are never mutated after construction, so bucket
     entries alias them. *)
  let buckets : (int, (string option ref * (int * int) array * int) list ref) Hashtbl.t =
    Hashtbl.create 1024
  in
  let digest_of (dg, tbl, _) =
    match !dg with
    | Some d -> d
    | None ->
        let d = Sym.digest symc tbl in
        dg := Some d;
        d
  in
  (* Candidate scorings, evaluated or skipped — the budget [iterations]
     counts both, so a run's cost is bounded either way. *)
  let considered = ref 0 in
  let warm = ref None in
  (* The fitness cascade of [fitness], decided against the warm kernels
     as a census climbs its ladder: a level is stepped to [g] at its
     first consultation (a cascade that short-circuits, or a symmetry
     skip, never pays for the levels it does not read), and the two
     upper levels decide with the level below as [~below] — recording at
     [target - 1] over the recording entries of [target - 2], discerning
     at [target] over the discerning entries of [target - 1].  Every
     verdict is the one [fitness] reaches, so the score is too. *)
  let fitness_warm (g : genome) =
    let ty = lazy (to_objtype g) in
    let levels =
      match !warm with
      | Some levels -> levels
      | None ->
          let ty = Lazy.force ty in
          let levels =
            Array.map
              (fun n ->
                let lk = Kernel.compile ?obs ty ~n in
                { lk; ls = Kernel.scratch lk; at = g.table })
              [| target - 2; target - 1; target |]
          in
          warm := Some levels;
          levels
    in
    let level i =
      let l = levels.(i) in
      if l.at != g.table then begin
        Kernel.step ?obs l.lk l.ls (Lazy.force ty);
        l.at <- g.table
      end;
      l
    in
    let holds ?below i cond =
      let below = Option.map (fun b -> let l = level b in (l.lk, l.ls)) below in
      let l = level i in
      Kernel.exists ?below l.lk l.ls cond
    in
    let score = ref 0 in
    let pass w cond = if cond then score := !score + w in
    let rec_lo = holds 0 Kernel.Recording in
    pass weights.(0) rec_lo;
    if rec_lo then begin
      let rec_hi = holds ~below:0 1 Kernel.Recording in
      pass weights.(1) (not rec_hi);
      if not rec_hi then begin
        let disc_lo = holds 1 Kernel.Discerning in
        pass weights.(2) disc_lo;
        if disc_lo then pass weights.(3) (holds ~below:1 2 Kernel.Discerning)
      end
    end;
    !score
  in
  let score (g : genome) =
    incr considered;
    let eval () =
      bump c_evals;
      if incremental then fitness_warm g else fitness ~target g
    in
    let sc =
      let fp = fingerprint space g.table in
      match Hashtbl.find_opt buckets fp with
      | None ->
          let sc = eval () in
          Hashtbl.add buckets fp (ref [ (ref None, g.table, sc) ]);
          sc
      | Some lst -> (
          let dg = Sym.digest symc g.table in
          match List.find_opt (fun e -> String.equal (digest_of e) dg) !lst with
          | Some (_, _, sc) ->
              bump c_skips;
              sc
          | None ->
              let sc = eval () in
              lst := (ref (Some dg), g.table, sc) :: !lst;
              sc)
    in
    (match on_score with Some f -> f sc | None -> ());
    sc
  in
  let seeds =
    ref
      (List.filter_map
         (fun mk -> try Some (mk space) with Invalid_argument _ -> None)
         [ seed_crossing; seed_ladder ])
  in
  let rec climb (current : genome) current_score stale =
    if !considered >= max_iterations then None
    else if current_score = max_fitness then begin
      let ty = to_objtype ~name:(Printf.sprintf "x%d-witness" target) current in
      if verify_witness ~target ty then
        Some
          {
            objtype = ty;
            discerning_level = target;
            recording_level = target - 2;
            iterations = !considered;
          }
      else restart ()
    end
    else if stale >= restart_every then restart ()
    else begin
      let candidate = mutate rng current in
      let s = score candidate in
      if s > current_score then climb candidate s 0
      else if s = current_score && Random.State.bool rng then climb candidate s (stale + 1)
      else climb current current_score (stale + 1)
    end
  and restart () =
    if !considered >= max_iterations then None
    else begin
      let g =
        match !seeds with
        | g :: rest ->
            seeds := rest;
            g
        | [] -> random_genome rng space
      in
      climb g (score g) 0
    end
  in
  restart ()
