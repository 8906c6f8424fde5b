(* stats_check — CI validator for the `rcn … --stats json` block.

   Reads mixed CLI output (stdin, or the files given as arguments), finds
   the single line tagged {"rcn_stats":1,...}, and checks its shape:

   - exactly one stats line, parseable by the extraction below;
   - "command", "counters" and "histograms" fields present;
   - the cache accounting invariant holds:
       engine.cache.hits + engine.cache.misses + engine.cache.expired
         = engine.cache.probes
   - every counter named on the command line as `--require NAME` exists;
   - every counter named as `--require-nonzero NAME` exists and is > 0
     (the form the kernel counters are validated with: a smoke run that
     never compiled a trie or evaluated a candidate is not a smoke run);
   - every counter named as `--require-zero NAME` exists and is exactly 0
     (the form invariant-violation counters are validated with: the
     crashtest smoke must have run its plans and found nothing);
   - every counter named as `--require-eq NAME=VALUE` exists and equals
     VALUE exactly (the form pinned counts are validated with: a fixed
     census must decide the same tables with the same kernel work at
     every job count).

   Dependency-free on purpose (the repo vendors no JSON library): the
   stats line is machine-written with a fixed key order and no whitespace,
   so integer fields can be extracted by scanning for `"key":`. *)

let substring_index hay needle =
  let n = String.length needle and h = String.length hay in
  let rec at i = if i + n > h then None else if String.sub hay i n = needle then Some i else at (i + 1) in
  at 0

let has hay needle = substring_index hay needle <> None

(* The integer immediately following `"key":`, if any. *)
let int_field line key =
  match substring_index line (Printf.sprintf "%S:" key) with
  | None -> None
  | Some i ->
      let start = i + String.length key + 3 in
      let stop = ref start in
      while
        !stop < String.length line
        && (match line.[!stop] with '0' .. '9' | '-' -> true | _ -> false)
      do
        incr stop
      done;
      if !stop = start then None else int_of_string_opt (String.sub line start (!stop - start))

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("stats_check: " ^ m); exit 1) fmt

let () =
  let required = ref []
  and required_nonzero = ref []
  and required_zero = ref []
  and required_eq = ref []
  and inputs = ref [] in
  let rec parse = function
    | "--require" :: name :: rest ->
        required := name :: !required;
        parse rest
    | "--require-nonzero" :: name :: rest ->
        required_nonzero := name :: !required_nonzero;
        parse rest
    | "--require-zero" :: name :: rest ->
        required_zero := name :: !required_zero;
        parse rest
    | "--require-eq" :: spec :: rest ->
        (match String.split_on_char '=' spec with
        | [ name; v ] when name <> "" && int_of_string_opt v <> None ->
            required_eq := (name, int_of_string v) :: !required_eq
        | _ -> fail "--require-eq needs NAME=INTEGER, got %S" spec);
        parse rest
    | ("--require" | "--require-nonzero" | "--require-zero" | "--require-eq") :: [] ->
        fail "--require needs a counter name"
    | path :: rest ->
        inputs := path :: !inputs;
        parse rest
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let lines =
    match List.rev !inputs with
    | [] -> In_channel.input_lines In_channel.stdin
    | paths -> List.concat_map (fun p -> In_channel.with_open_text p In_channel.input_lines) paths
  in
  (* Substring, not prefix: the daemon's metrics *response* embeds the
     rcn_stats object inside its envelope, and that line must validate
     the same way a bare `--stats json` line does. *)
  let stats_lines = List.filter (fun l -> has l {|{"rcn_stats":1|}) lines in
  let line =
    match stats_lines with
    | [ l ] -> l
    | [] -> fail "no rcn_stats line found"
    | ls -> fail "expected exactly one rcn_stats line, found %d" (List.length ls)
  in
  if line.[String.length line - 1] <> '}' then fail "stats line is not a closed object";
  List.iter
    (fun field -> if not (has line (Printf.sprintf "%S:" field)) then fail "missing %S field" field)
    [ "command"; "counters"; "histograms" ];
  (* The cache accounting invariant is checked whenever the process ran
     the engine cache at all; a process that never touched it (e.g. the
     distributed-census coordinator, which only brokers leases) exports
     no engine.cache.* counters and the invariant is vacuous. *)
  let cache_field name =
    match int_field line ("engine.cache." ^ name) with
    | Some v when v >= 0 -> Some v
    | Some v -> fail "engine.cache.%s is negative (%d)" name v
    | None -> None
  in
  let cache_report =
    match
      (cache_field "probes", cache_field "hits", cache_field "misses",
       cache_field "expired")
    with
    | Some probes, Some hits, Some misses, Some expired ->
        if hits + misses + expired <> probes then
          fail "cache invariant violated: hits %d + misses %d + expired %d <> probes %d"
            hits misses expired probes;
        Printf.sprintf "probes %d = hits %d + misses %d + expired %d" probes hits
          misses expired
    | None, None, None, None -> "no engine cache in this process"
    | _ -> fail "partial engine.cache.* counter set: cache accounting is torn"
  in
  List.iter
    (fun name -> if int_field line name = None then fail "missing required counter %s" name)
    !required;
  List.iter
    (fun name ->
      match int_field line name with
      | None -> fail "missing required counter %s" name
      | Some 0 -> fail "required counter %s is zero" name
      | Some v when v < 0 -> fail "required counter %s is negative (%d)" name v
      | Some _ -> ())
    !required_nonzero;
  List.iter
    (fun name ->
      match int_field line name with
      | None -> fail "missing required counter %s" name
      | Some 0 -> ()
      | Some v -> fail "required-zero counter %s is %d" name v)
    !required_zero;
  List.iter
    (fun (name, want) ->
      match int_field line name with
      | None -> fail "missing required counter %s" name
      | Some v when v = want -> ()
      | Some v -> fail "counter %s is %d, required %d" name v want)
    !required_eq;
  let all_required =
    List.rev_append (List.map fst !required_eq)
      (List.rev_append !required_zero
         (List.rev_append !required_nonzero (List.rev !required)))
  in
  Printf.printf "stats_check: ok (%s%s)\n" cache_report
    (match all_required with
    | [] -> ""
    | rs -> Printf.sprintf "; required counters present: %s" (String.concat ", " rs))
