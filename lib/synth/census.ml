type entry = { discerning : int; recording : int; count : int }

let space_size (space : Synth.space) =
  let base = space.Synth.num_responses * space.Synth.num_values in
  let cells = space.Synth.num_values * space.Synth.num_rws in
  let rec power acc i =
    if i = 0 then acc
    else if acc > max_int / base then invalid_arg "Census.space_size: overflow"
    else power (acc * base) (i - 1)
  in
  power 1 cells

let genome_of_index (space : Synth.space) index =
  let base = space.Synth.num_responses * space.Synth.num_values in
  let cells = space.Synth.num_values * space.Synth.num_rws in
  let table = Array.make cells (0, 0) in
  let rec fill i rem =
    if i < cells then begin
      let digit = rem mod base in
      table.(i) <- (digit / space.Synth.num_values, digit mod space.Synth.num_values);
      fill (i + 1) (rem / base)
    end
  in
  fill 0 index;
  Synth.of_table space table

let levels ~cap ty =
  (Analysis.level_value (Numbers.max_discerning ~cap ty),
   Analysis.level_value (Numbers.max_recording ~cap ty))

let of_histogram histogram =
  Hashtbl.fold (fun (d, r) count acc -> { discerning = d; recording = r; count } :: acc)
    histogram []
  |> List.sort (fun a b -> compare (a.discerning, a.recording) (b.discerning, b.recording))

let tally ~cap genomes =
  let histogram = Hashtbl.create 64 in
  Seq.iter
    (fun genome ->
      let key = levels ~cap (Synth.to_objtype genome) in
      Hashtbl.replace histogram key (1 + Option.value ~default:0 (Hashtbl.find_opt histogram key)))
    genomes;
  of_histogram histogram

let exhaustive ?(cap = 4) space =
  let size = space_size space in
  tally ~cap (Seq.init size (genome_of_index space))

let gap_share entries ~levels =
  let total = List.fold_left (fun acc e -> acc + e.count) 0 entries in
  let hit =
    List.fold_left
      (fun acc e -> if (e.discerning, e.recording) = levels then acc + e.count else acc)
      0 entries
  in
  if total = 0 then 0.0 else float_of_int hit /. float_of_int total

let pp ppf entries =
  let total = List.fold_left (fun acc e -> acc + e.count) 0 entries in
  Format.fprintf ppf "@[<v>%-6s %-6s %10s %8s@," "disc" "rec" "count" "share";
  List.iter
    (fun e ->
      Format.fprintf ppf "%-6d %-6d %10d %7.3f%%@," e.discerning e.recording e.count
        (100.0 *. float_of_int e.count /. float_of_int total))
    entries;
  Format.fprintf ppf "total: %d types@]" total
