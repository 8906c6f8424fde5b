(* Canonical labeling of transition tables under
   S_values x S_ops x S_responses.  See sym.mli for the contract; the
   shape of the algorithm:

     1. iterated color refinement over the three sorts (values, ops,
        responses) until the partition stabilizes — signatures are
        isomorphism-invariant, so the final coloring is too, and dense
        color ids assigned in signature order are themselves canonical.
        A signature is an int row (own color, then the sorted encodings
        of the element's incident cells) in a preallocated array, so a
        round allocates nothing;
     2. enumerate every *class-respecting* placement of values and ops
        into canonical positions (color blocks in color order, any
        order within a block) — any relabeling that maps the table onto
        a canonical form is class-respecting, so nothing is missed;
     3. per placement, label responses greedily in first-appearance
        order (lexicographically optimal once value/op positions are
        fixed) and compare the resulting digit string cell by cell
        against the best so far, aborting on the first losing digit;
     4. the number m of placements achieving the minimum, times
        (responses - used)! for the response labels the table never
        mentions, is the stabilizer order; orbit-stabilizer gives the
        orbit size.

   Refinement does the heavy lifting: on random tables most colors are
   singletons and step 2 enumerates a handful of placements.  The
   worst case (the fully symmetric table) enumerates values! * ops!
   placements, which is why census spaces keep dimensions small.

   [classes] quotients a whole rankable space: a flat integer sweep over
   (first-appearance response pattern, value code) pairs — S_responses
   divided out exactly — that enumerates each orbit's images under
   S_values x S_ops alone, marks them in a bitset, and canonizes only
   the orbit's first-met member. *)

type t = {
  values : int;
  ops : int;
  responses : int;
  cells : int;
  base : int;  (* responses * values: digits per cell *)
  group : int option;  (* values! * ops! * responses!; [None] on overflow *)
  size : int option;  (* base ^ cells; [None] when it overflows [max_int] *)
}

(* [init * d_1! * d_2! * ...] with overflow detection: multiply the
   factors [2 .. d] of each dimension one by one, saturating to [None]
   (the synthesizer's symmetry memo canonizes in spaces whose group
   order far exceeds [max_int]).  The group order is [values! * ops! *
   responses!]. *)
let factorials_checked ?(init = 1) dims =
  List.fold_left
    (fun acc d ->
      let acc = ref acc in
      for f = 2 to d do
        acc := (match !acc with Some a when a <= max_int / f -> Some (a * f) | _ -> None)
      done;
      !acc)
    (Some init) dims

let make ~values ~ops ~responses =
  if values < 1 || ops < 1 || responses < 1 then
    invalid_arg "Sym.make: dimensions must be positive";
  let cells = values * ops in
  let base = responses * values in
  (* Canonization and digests never rank, so an overflowing space is
     fine — only the index-side API ([space_size], [table_of_index],
     [index_of_table], [is_rep], [classes]) requires a rankable space. *)
  let size =
    let acc = ref (Some 1) in
    for _ = 1 to cells do
      acc :=
        match !acc with
        | Some a when a <= max_int / base -> Some (a * base)
        | _ -> None
    done;
    !acc
  in
  { values; ops; responses; cells; base; group = factorials_checked [ values; ops; responses ]; size }

let values t = t.values
let ops t = t.ops
let responses t = t.responses
let cells t = t.cells
let group_order t =
  match t.group with
  | Some g -> g
  | None -> invalid_arg "Sym.group_order: overflows max_int"
let unranked = "Sym: space size overflows max_int (unrankable space)"
let space_size t = match t.size with Some s -> s | None -> invalid_arg unranked

let check t tbl =
  if Array.length tbl <> t.cells then invalid_arg "Sym: bad table length";
  Array.iter
    (fun (r, v) ->
      if r < 0 || r >= t.responses || v < 0 || v >= t.values then
        invalid_arg "Sym: table entry out of range")
    tbl

let table_of_index t idx =
  if idx < 0 || idx >= space_size t then invalid_arg "Sym.table_of_index";
  let tbl = Array.make t.cells (0, 0) in
  let rem = ref idx in
  for i = 0 to t.cells - 1 do
    let digit = !rem mod t.base in
    tbl.(i) <- (digit / t.values, digit mod t.values);
    rem := !rem / t.base
  done;
  tbl

let index_of_table t tbl =
  check t tbl;
  if t.size = None then invalid_arg unranked;
  let idx = ref 0 in
  for i = t.cells - 1 downto 0 do
    let r, v = tbl.(i) in
    idx := (!idx * t.base) + (r * t.values) + v
  done;
  !idx

(* --- color refinement ----------------------------------------------- *)

(* Signatures are int rows in one flat array per sort: row [i] starts at
   [start.(i)] and holds [len.(i)] ints — the element's own color, then
   its incident cells encoded as [(a * k + b) * k + c] with every
   component a color below [k], sorted ascending.  Rows compare
   lexicographically, a proper prefix first: exactly the order
   polymorphic [compare] gives the [(color, sorted triple list)] pairs
   they encode, so the dense color ids below — and every canonical form
   built on them — are independent of the encoding. *)

let compare_rows rows start len a b =
  let la = len.(a) and lb = len.(b) in
  let oa = start.(a) and ob = start.(b) in
  let i = ref 0 and c = ref 0 in
  while !c = 0 && !i < la && !i < lb do
    c := Int.compare rows.(oa + !i) rows.(ob + !i);
    incr i
  done;
  if !c <> 0 then !c else Int.compare la lb

(* Ascending insertion sort of [a.(lo) .. a.(hi - 1)]: rows hold a
   handful of entries, so this beats a general sort and allocates
   nothing. *)
let insertion_sort_ints a lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Reassign dense colors from the rows: equal row, equal color; colors
   ordered by row.  [order] is scratch of length [n].  Returns the class
   count. *)
let recolor rows start len order n col =
  for i = 0 to n - 1 do
    order.(i) <- i
  done;
  for i = 1 to n - 1 do
    let x = order.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && compare_rows rows start len order.(!j) x > 0 do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- x
  done;
  let c = ref 0 in
  for k = 0 to n - 1 do
    if k > 0 && compare_rows rows start len order.(k - 1) order.(k) <> 0 then incr c;
    col.(order.(k)) <- !c
  done;
  !c + 1

(* Iterated refinement to the stable partition.  Each round builds every
   sort's rows from the previous round's colors before recoloring any
   sort, and stops once no sort gains a class.  A value's row has one
   entry per op and an op's one per value; a response's row has one per
   cell that emits it, so response rows are packed back to back and the
   three row arrays together hold [3 * cells + values + ops + responses]
   ints — small enough for the minor heap. *)
let refine t tbl =
  let v = t.values and o = t.ops and r = t.responses in
  let k = max v (max o r) in
  let vc = Array.make v 0 and oc = Array.make o 0 and rc = Array.make r 0 in
  let vstart = Array.init v (fun x -> x * (1 + o)) and vlen = Array.make v (1 + o) in
  let ostart = Array.init o (fun op -> op * (1 + v)) and olen = Array.make o (1 + v) in
  let rlen = Array.make r 1 in
  Array.iter (fun (rs, _) -> rlen.(rs) <- rlen.(rs) + 1) tbl;
  let rstart = Array.make r 0 in
  for r0 = 1 to r - 1 do
    rstart.(r0) <- rstart.(r0 - 1) + rlen.(r0 - 1)
  done;
  let vrows = Array.make (v * (1 + o)) 0 in
  let orows = Array.make (o * (1 + v)) 0 in
  let rrows = Array.make (r + t.cells) 0 in
  let rnext = Array.make r 0 in
  let order = Array.make k 0 in
  let rec go kv ko kr =
    for x = 0 to v - 1 do
      vrows.(vstart.(x)) <- vc.(x)
    done;
    for op = 0 to o - 1 do
      orows.(ostart.(op)) <- oc.(op)
    done;
    for r0 = 0 to r - 1 do
      rrows.(rstart.(r0)) <- rc.(r0);
      rnext.(r0) <- rstart.(r0) + 1
    done;
    for x = 0 to v - 1 do
      for op = 0 to o - 1 do
        let rs, y = tbl.((x * o) + op) in
        let cx = vc.(x) and cop = oc.(op) and cr = rc.(rs) and cy = vc.(y) in
        vrows.(vstart.(x) + 1 + op) <- (((cop * k) + cr) * k) + cy;
        orows.(ostart.(op) + 1 + x) <- (((cx * k) + cr) * k) + cy;
        rrows.(rnext.(rs)) <- (((cx * k) + cop) * k) + cy;
        rnext.(rs) <- rnext.(rs) + 1
      done
    done;
    for x = 0 to v - 1 do
      insertion_sort_ints vrows (vstart.(x) + 1) (vstart.(x) + vlen.(x))
    done;
    for op = 0 to o - 1 do
      insertion_sort_ints orows (ostart.(op) + 1) (ostart.(op) + olen.(op))
    done;
    for r0 = 0 to r - 1 do
      insertion_sort_ints rrows (rstart.(r0) + 1) (rstart.(r0) + rlen.(r0))
    done;
    let nv = recolor vrows vstart vlen order v vc in
    let no = recolor orows ostart olen order o oc in
    let nr = recolor rrows rstart rlen order r rc in
    if nv <> kv || no <> ko || nr <> kr then go nv no nr
  in
  go (-1) (-1) (-1);
  (vc, oc)

(* Call [f] on every placement perm with perm.(position) = old id such
   that positions walk the color classes in color order and each class's
   members fill its block in every order.  [perm] is reused in place —
   callers must not retain it. *)
let iter_class_perms colors f =
  let n = Array.length colors in
  let k = 1 + Array.fold_left max (-1) colors in
  let members = Array.make k [] in
  for i = n - 1 downto 0 do
    members.(colors.(i)) <- i :: members.(colors.(i))
  done;
  let perm = Array.make n 0 in
  let rec fill_class c pos remaining =
    match remaining with
    | [] -> next_class (c + 1) pos
    | _ ->
        List.iter
          (fun x ->
            perm.(pos) <- x;
            fill_class c (pos + 1) (List.filter (fun y -> y <> x) remaining))
          remaining
  and next_class c pos = if c = k then f perm else fill_class c pos members.(c)
  in
  next_class 0 0

type canon = { form : (int * int) array; index : int; orbit : int; aut : int }

let canonize t tbl =
  check t tbl;
  let v = t.values and o = t.ops and r = t.responses in
  let vc, oc = refine t tbl in
  let used =
    let seen = Array.make r false in
    Array.iter (fun (rs, _) -> seen.(rs) <- true) tbl;
    Array.fold_left (fun a b -> if b then a + 1 else a) 0 seen
  in
  let best = Array.make t.cells max_int in
  let cand = Array.make t.cells 0 in
  let m = ref 0 in
  let pos_of = Array.make v 0 in
  let rho = Array.make r (-1) in
  let try_pair vperm operm =
    for i = 0 to v - 1 do
      pos_of.(vperm.(i)) <- i
    done;
    Array.fill rho 0 r (-1);
    let used_r = ref 0 in
    (* 0 while equal to [best]; -1 once strictly below *)
    let cmp = ref 0 in
    try
      let i = ref 0 in
      for x' = 0 to v - 1 do
        let row = vperm.(x') * o in
        for op' = 0 to o - 1 do
          let rs, y = tbl.(row + operm.(op')) in
          if rho.(rs) < 0 then begin
            rho.(rs) <- !used_r;
            incr used_r
          end;
          let digit = (rho.(rs) * v) + pos_of.(y) in
          if !cmp = 0 then
            if digit > best.(!i) then raise Exit
            else if digit < best.(!i) then cmp := -1;
          cand.(!i) <- digit;
          incr i
        done
      done;
      if !cmp < 0 then begin
        Array.blit cand 0 best 0 t.cells;
        m := 1
      end
      else incr m
    with Exit -> ()
  in
  iter_class_perms vc (fun vperm ->
      (* vperm is reused in place across op placements below, but only
         read inside try_pair before the next mutation — safe. *)
      iter_class_perms oc (fun operm -> try_pair vperm operm));
  (* The unused response labels permute freely; [-1] past [max_int],
     where the group order overflows too. *)
  let aut = Option.value ~default:(-1) (factorials_checked ~init:!m [ r - used ]) in
  let orbit =
    match t.group with
    | Some g ->
        if g mod aut <> 0 then invalid_arg "Sym.canonize: internal error (stabilizer)";
        g / aut
    | None -> -1
  in
  let form = Array.map (fun d -> (d / v, d mod v)) best in
  let index = match t.size with Some _ -> index_of_table t form | None -> -1 in
  { form; index; orbit; aut }

let canonize_index t idx = canonize t (table_of_index t idx)
let is_rep t idx = (canonize_index t idx).index = idx

let digest t tbl =
  let c = canonize t tbl in
  let buf = Buffer.create (32 + (3 * t.cells)) in
  Buffer.add_string buf
    (Printf.sprintf "rcn-sym v1 values=%d ops=%d responses=%d\n" t.values t.ops t.responses);
  Array.iter (fun (r, v) -> Buffer.add_string buf (Printf.sprintf " %d:%d" r v)) c.form;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Forward declaration: [classes] wants the value/op permutation lists
   that the brute-force section below also uses. *)
let permutations n =
  let rec insert x = function
    | [] -> [ [ x ] ]
    | y :: ys as l -> (x :: l) :: List.map (fun r -> y :: r) (insert x ys)
  in
  let rec perms = function
    | [] -> [ [] ]
    | x :: xs -> List.concat_map (insert x) (perms xs)
  in
  List.map Array.of_list (perms (List.init n Fun.id))

(* Orbit sweep, not a canonize-per-index scan: canonizing all [size]
   tables costs a refinement + placement search each, which dominates a
   reduced census.  Instead, walk the space once, enumerate each orbit
   from the first member met, mark its members in a bitset so later
   sweep positions skip them, and canonize only that seed to name the
   class.  (The canonical index is *not* simply the least index in the
   orbit — canonize restricts its search to class-respecting placements,
   so its minimum is over a refinement-invariant subset of images — which
   is why the seed must still go through canonize.)

   S_responses is quotiented exactly rather than enumerated.  A sweep
   position is a pair (pattern, value code): the table's response column
   relabeled in order of first appearance from cell 0 — a restricted
   growth string over at most [responses] labels — and its value column
   read as a base-[values] number.  First-appearance relabeling is a
   complete invariant of S_responses, so a seed's orbit is covered by its
   [values! * ops!] images under H = S_values x S_ops, each with its
   responses renormalized, and the orbit size is the number of distinct
   normalized images times r! / (r - k)!, the ways to rename the k labels
   the seed uses (THEORY.md, "The response quotient").

   Patterns are ranked arithmetically in lexicographic order:
   [cnt.(i * w + m)] counts the completions of cells [i ..] when [m]
   labels are in use, so label [a] at cell [i] adds
   [a * cnt.((i + 1) * w + m)] — a [(cells + 1)^2] table, however many
   responses the shape has.  The sweep walks patterns in that order and
   every value code under each; an image's pattern depends on the
   pattern and the element alone, so it is ranked once per (pattern,
   element), and an image's value code is a sum of [cells] entries of a
   per-element contribution table. *)
let classes t =
  let v = t.values and o = t.ops and r = t.responses and cells = t.cells in
  ignore (space_size t) (* raises on an unrankable space *);
  let w = cells + 1 in
  let cnt = Array.make (w * w) 0 in
  for m = 0 to min cells r do
    cnt.((cells * w) + m) <- 1
  done;
  for i = cells - 1 downto 0 do
    for m = 0 to min i r do
      cnt.((i * w) + m) <-
        (m * cnt.(((i + 1) * w) + m)) + if m < r then cnt.(((i + 1) * w) + m + 1) else 0
    done
  done;
  let vpow = Array.make w 1 in
  for c = 1 to cells do
    vpow.(c) <- vpow.(c - 1) * v
  done;
  let vsize = vpow.(cells) in
  (* H as flat tables: element [h] moves cell [src.(h * cells + c)] to
     cell [c], and value [y] at cell [c] adds
     [vcontrib.((h * cells + c) * v + y)] to the image's value code. *)
  let pvl = permutations v and pol = permutations o in
  let hsize = List.length pvl * List.length pol in
  let src = Array.make (hsize * cells) 0 and vcontrib = Array.make (hsize * cells * v) 0 in
  let h = ref 0 in
  List.iter
    (fun pv ->
      List.iter
        (fun po ->
          for x = 0 to v - 1 do
            for op = 0 to o - 1 do
              let c = (x * o) + op and c' = (pv.(x) * o) + po.(op) in
              src.((!h * cells) + c') <- c;
              for y = 0 to v - 1 do
                vcontrib.((((!h * cells) + c) * v) + y) <- pv.(y) * vpow.(c')
              done
            done
          done;
          incr h)
        pol)
    pvl;
  let mark = Bytes.make (((cnt.(0) * vsize) + 7) / 8) '\000' in
  let pat = Array.make cells 0 and vals = Array.make cells 0 and voff = Array.make cells 0 in
  let rho = Array.make r (-1) and pimg = Array.make hsize 0 in
  let tbl = Array.make cells (0, 0) in
  let acc = ref [] in
  let prank = ref 0 in
  (* Every value code under the pattern [pat], which uses [k] labels. *)
  let sweep_values k =
    for h = 0 to hsize - 1 do
      Array.fill rho 0 k (-1);
      let m = ref 0 and rank = ref 0 in
      for c = 0 to cells - 1 do
        let a = pat.(src.((h * cells) + c)) and mb = !m in
        if rho.(a) < 0 then begin
          rho.(a) <- mb;
          incr m
        end;
        rank := !rank + (rho.(a) * cnt.(((c + 1) * w) + mb))
      done;
      pimg.(h) <- !rank * vsize
    done;
    let falling = ref 1 in
    for j = 0 to k - 1 do
      falling := !falling * (r - j)
    done;
    for vcode = 0 to vsize - 1 do
      let p = (!prank * vsize) + vcode in
      if Char.code (Bytes.get mark (p lsr 3)) land (1 lsl (p land 7)) = 0 then begin
        for c = 0 to cells - 1 do
          voff.(c) <- (c * v) + vals.(c);
          tbl.(c) <- (pat.(c), vals.(c))
        done;
        let distinct = ref 0 in
        for h = 0 to hsize - 1 do
          let off = h * cells * v in
          let img = ref pimg.(h) in
          for c = 0 to cells - 1 do
            img := !img + vcontrib.(off + voff.(c))
          done;
          let byte = !img lsr 3 and bit = 1 lsl (!img land 7) in
          let b = Char.code (Bytes.get mark byte) in
          if b land bit = 0 then begin
            Bytes.set mark byte (Char.chr (b lor bit));
            incr distinct
          end
        done;
        acc := ((canonize t tbl).index, !distinct * !falling) :: !acc
      end;
      (* next value code: a base-[values] odometer, back at zero after
         the last one *)
      let c = ref 0 in
      while !c < cells && vals.(!c) = v - 1 do
        vals.(!c) <- 0;
        incr c
      done;
      if !c < cells then vals.(!c) <- vals.(!c) + 1
    done;
    incr prank
  in
  (* patterns in lexicographic order, so [!prank] counts up through the
     ranks [cnt] gives them *)
  let rec walk i m =
    if i = cells then sweep_values m
    else
      for a = 0 to min m (r - 1) do
        pat.(i) <- a;
        walk (i + 1) (if a = m then m + 1 else m)
      done
  in
  walk 0 0;
  let pairs = Array.of_list !acc in
  Array.sort (fun (a, _) (b, _) -> compare a b) pairs;
  (Array.map fst pairs, Array.map snd pairs)

(* --- brute-force oracles (tests) ------------------------------------ *)

let apply t tbl ~pv ~po ~pr =
  check t tbl;
  let out = Array.make t.cells (0, 0) in
  for x = 0 to t.values - 1 do
    for op = 0 to t.ops - 1 do
      let rs, y = tbl.((x * t.ops) + op) in
      out.((pv.(x) * t.ops) + po.(op)) <- (pr.(rs), pv.(y))
    done
  done;
  out

let orbit_brute t tbl =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun pv ->
      List.iter
        (fun po ->
          List.iter
            (fun pr -> Hashtbl.replace seen (index_of_table t (apply t tbl ~pv ~po ~pr)) ())
            (permutations t.responses))
        (permutations t.ops))
    (permutations t.values);
  Hashtbl.length seen
