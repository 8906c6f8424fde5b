(* Append-only progress ledger of a census — the distributed
   coordinator's lease log and the in-process engine's checkpoint, one
   format for both.  On-disk format, one record after another, nothing
   else in the file (the shared Fsio.Record discipline):

     rcndist2 <kind> <payload_bytes> <crc32hex>\n
     <payload>\n

   — the same scan-forward discipline as the serve store's rcnstore log:
   a torn tail is truncated, a CRC-failing complete record is hard
   corruption.  The payload of the header record is the plain header
   line pinning space, cap and table count; every other payload is
   canonical single-line Wire JSON, so payloads never contain a newline
   and a record boundary is always where the scanner thinks it is.

   rcndist2 bumped the magic when records grew the CRC field: an
   rcndist1 file's records fail the magic check, so the scanner keeps
   none of them — the ledger restarts from scratch rather than being
   misparsed, the same policy as the rcnstore3 bump.  The retired v2
   in-process checkpoint format (a plain header line, then CRC'd
   "index discerning recording crc" text lines) fails the magic check
   the same way, so resuming one recomputes the census. *)

let magic = "rcndist2"

(* A symmetry-reduced census grants leases over canonical-class ranks,
   not table indices; the [sym_classes] suffix pins the rank space so
   resume never mixes the two interpretations of [lo, hi).  Without it
   the v1 header bytes are unchanged. *)
let header ?sym_classes ~space ~cap ~total () =
  let base =
    Printf.sprintf "rcn-dist-census v1 values=%d rws=%d responses=%d cap=%d total=%d"
      space.Synth.num_values space.Synth.num_rws space.Synth.num_responses cap
      total
  in
  match sym_classes with
  | None -> base
  | Some n -> Printf.sprintf "%s sym=1 classes=%d" base n

type record =
  | Header of string
  | Grant of { lease : int; lo : int; hi : int; worker : int }
  | Done of { lo : int; hi : int; entries : (int * int * int) list }
  | Expire of { lease : int; lo : int; hi : int; worker : int }
  | Steal of { lease : int; victim : int; at : int; hi : int }
  | Death of { worker : int; pid : int }
  | Quarantine of { lo : int; hi : int; attempts : int; error : string }

let kind_of = function
  | Header _ -> "header"
  | Grant _ -> "grant"
  | Done _ -> "done"
  | Expire _ -> "expire"
  | Steal _ -> "steal"
  | Death _ -> "death"
  | Quarantine _ -> "quarantine"

let lease_fields ~lease ~lo ~hi ~worker =
  [
    ("lease", Wire.Int lease);
    ("lo", Wire.Int lo);
    ("hi", Wire.Int hi);
    ("worker", Wire.Int worker);
  ]

let payload_of = function
  | Header h -> h
  | Grant { lease; lo; hi; worker } ->
      Wire.to_string (Wire.Obj (lease_fields ~lease ~lo ~hi ~worker))
  | Expire { lease; lo; hi; worker } ->
      Wire.to_string (Wire.Obj (lease_fields ~lease ~lo ~hi ~worker))
  | Done { lo; hi; entries } ->
      Wire.to_string
        (Wire.Obj
           [
             ("lo", Wire.Int lo);
             ("hi", Wire.Int hi);
             ( "entries",
               Wire.List
                 (List.map
                    (fun (d, r, c) ->
                      Wire.List [ Wire.Int d; Wire.Int r; Wire.Int c ])
                    entries) );
           ])
  | Steal { lease; victim; at; hi } ->
      Wire.to_string
        (Wire.Obj
           [
             ("lease", Wire.Int lease);
             ("victim", Wire.Int victim);
             ("at", Wire.Int at);
             ("hi", Wire.Int hi);
           ])
  | Death { worker; pid } ->
      Wire.to_string
        (Wire.Obj [ ("worker", Wire.Int worker); ("pid", Wire.Int pid) ])
  | Quarantine { lo; hi; attempts; error } ->
      Wire.to_string
        (Wire.Obj
           [
             ("lo", Wire.Int lo);
             ("hi", Wire.Int hi);
             ("attempts", Wire.Int attempts);
             ("error", Wire.String error);
           ])

let encode r = Fsio.Record.encode ~magic ~tag:(kind_of r) (payload_of r)

(* Payload decoding.  A record whose payload does not decode is treated
   exactly like a torn record: the replayable prefix ends just before
   it. *)

let ( let* ) = Result.bind

let int_field obj name =
  match List.assoc_opt name obj with
  | Some (Wire.Int i) -> Ok i
  | _ -> Error (Printf.sprintf "missing int field %S" name)

let string_field obj name =
  match List.assoc_opt name obj with
  | Some (Wire.String s) -> Ok s
  | _ -> Error (Printf.sprintf "missing string field %S" name)

let entries_of_json = function
  | Wire.List l ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | Wire.List [ Wire.Int d; Wire.Int r; Wire.Int c ] :: rest ->
            go ((d, r, c) :: acc) rest
        | _ -> Error "malformed entry triple"
      in
      go [] l
  | _ -> Error "entries: expected a list"

let decode_payload kind payload =
  if kind = "header" then Ok (Header payload)
  else
    let* j = Wire.of_string payload in
    let* obj =
      match j with Wire.Obj o -> Ok o | _ -> Error "payload: expected object"
    in
    match kind with
    | "grant" | "expire" ->
        let* lease = int_field obj "lease" in
        let* lo = int_field obj "lo" in
        let* hi = int_field obj "hi" in
        let* worker = int_field obj "worker" in
        Ok
          (if kind = "grant" then Grant { lease; lo; hi; worker }
           else Expire { lease; lo; hi; worker })
    | "done" ->
        let* lo = int_field obj "lo" in
        let* hi = int_field obj "hi" in
        let* entries =
          match List.assoc_opt "entries" obj with
          | Some j -> entries_of_json j
          | None -> Error "missing entries"
        in
        Ok (Done { lo; hi; entries })
    | "steal" ->
        let* lease = int_field obj "lease" in
        let* victim = int_field obj "victim" in
        let* at = int_field obj "at" in
        let* hi = int_field obj "hi" in
        Ok (Steal { lease; victim; at; hi })
    | "death" ->
        let* worker = int_field obj "worker" in
        let* pid = int_field obj "pid" in
        Ok (Death { worker; pid })
    | "quarantine" ->
        let* lo = int_field obj "lo" in
        let* hi = int_field obj "hi" in
        let* attempts = int_field obj "attempts" in
        let* error = string_field obj "error" in
        Ok (Quarantine { lo; hi; attempts; error })
    | other -> Error (Printf.sprintf "unknown record kind %S" other)

(* Scan [contents], returning the complete records in file order and
   the offset just past the last complete record.  The framing layer
   (Fsio.Record.scan) decides torn vs corrupt; a record whose CRC
   checks out but whose payload does not decode is corruption too —
   the bytes were acknowledged whole, so losing them must be loud.
   @raise Fsio.Corrupt *)
let scan ~path contents =
  let framed, good, verdict = Fsio.Record.scan ~magic contents in
  (match verdict with
  | Fsio.Record.Complete | Fsio.Record.Torn _ -> ()
  | Fsio.Record.Corrupt_at { offset; reason } ->
      raise (Fsio.Corrupt { path; offset; reason }));
  let out = ref [] in
  let pos = ref 0 in
  List.iter
    (fun (kind, payload) ->
      (match decode_payload kind payload with
      | Ok r -> out := r :: !out
      | Error reason ->
          raise
            (Fsio.Corrupt
               { path; offset = !pos; reason = "payload: " ^ reason }));
      pos := !pos + String.length (Fsio.Record.encode ~magic ~tag:kind payload))
    framed;
  (List.rev !out, good)

exception Mismatch of string

let check_header ~expected = function
  | [] -> ()
  | Header h :: _ ->
      if h <> expected then
        raise
          (Mismatch
             (Printf.sprintf
                "Dist_ledger: ledger belongs to a different census (%S, expected %S)"
                h expected))
  | _ -> raise (Mismatch "Dist_ledger: ledger does not start with a header record")

let load path ~expected =
  if not (Sys.file_exists path) then ([], 0)
  else begin
    let contents = In_channel.with_open_bin path In_channel.input_all in
    let records, good = scan ~path contents in
    check_header ~expected records;
    (records, String.length contents - good)
  end

type t = {
  log : Fsio.t;
  fsync : bool;
  mutable closed : bool;
  mutable degraded_reason : string option;
  c_degraded : Obs.Metrics.Counter.t option;
  c_dropped : Obs.Metrics.Counter.t option;
}

let degraded t = t.degraded_reason

(* An append failure does not kill the census: the ledger flips to a
   sticky degraded mode and every later append is dropped (counted).
   The coordinator checks [degraded] at the end and reports the run
   PARTIAL — honest At_least semantics, exactly like a quarantined
   range — instead of crashing with work in flight.  Fsio's append
   atomicity means the failed record left the file byte-identical, so
   resume replays a clean prefix. *)
let append t record =
  if t.closed then invalid_arg "Dist_ledger.append: ledger is closed";
  match t.degraded_reason with
  | Some _ -> Option.iter Obs.Metrics.Counter.incr t.c_dropped
  | None -> (
      match
        Fsio.append t.log (encode record);
        if t.fsync then Fsio.fsync t.log
      with
      | () -> ()
      | exception (Fsio.Io_error _ as e) ->
          t.degraded_reason <- Fsio.error_message e;
          Option.iter Obs.Metrics.Counter.incr t.c_degraded)

let open_ledger ?obs ?(fsync = true) ?injector ~expected ~resume path =
  let c_loaded = Option.map (fun o -> Obs.counter o "dist.ledger_loaded") obs in
  let c_torn =
    Option.map (fun o -> Obs.counter o "dist.ledger_torn_bytes") obs
  in
  let c_degraded =
    Option.map (fun o -> Obs.counter o "dist.ledger_degraded") obs
  in
  let c_dropped =
    Option.map (fun o -> Obs.counter o "dist.ledger_dropped") obs
  in
  let log = Fsio.open_log ?injector path in
  match
    let contents = Fsio.contents log in
    let size = String.length contents in
    let records, good =
      if resume then begin
        let records, good = scan ~path contents in
        check_header ~expected records;
        (records, good)
      end
      else ([], 0)
    in
    (records, good, size)
  with
  | exception e ->
      (try Fsio.close log with Fsio.Io_error _ -> ());
      raise e
  | records, good, size ->
      if good < size then begin
        Fsio.truncate log good;
        Option.iter (fun c -> Obs.Metrics.Counter.add c (size - good)) c_torn
      end;
      Option.iter
        (fun c -> Obs.Metrics.Counter.add c (List.length records))
        c_loaded;
      let t =
        { log; fsync; closed = false; degraded_reason = None; c_degraded; c_dropped }
      in
      if records = [] then append t (Header expected);
      (t, records)

let close t =
  if not t.closed then begin
    t.closed <- true;
    Fsio.close t.log
  end

(* The one trust predicate for a Done range: in range, disjoint from
   every rank already in [covered] (decided, or quarantined by a live
   coordinator), and counts summing to its weight.  A trusted range is
   marked and merged into [hist]. *)
let absorb ~covered ~hist ~weight ~lo ~hi entries =
  let free () =
    let ok = ref true in
    for i = lo to hi - 1 do
      if Bytes.get covered i <> '\000' then ok := false
    done;
    !ok
  in
  lo >= 0 && hi <= Bytes.length covered && lo < hi && free ()
  && List.fold_left (fun a (_, _, c) -> a + c) 0 entries = weight ~lo ~hi
  && begin
       Bytes.fill covered lo (hi - lo) '\001';
       List.iter
         (fun (d, r, c) ->
           Hashtbl.replace hist (d, r)
             (c + Option.value ~default:0 (Hashtbl.find_opt hist (d, r))))
         entries;
       true
     end

(* Fold the Done records of a replayed ledger into a coverage bitmap and
   histogram, ignoring any record [absorb] does not trust — the paranoid
   read that makes resume trust only self-consistent results.
   [weight ~lo ~hi] is the number of tables the range accounts for: its
   width normally, the sum of its orbit sizes under symmetry reduction
   (where ranks are canonical classes and one verdict counts a whole
   orbit). *)
let replay_done ~total ~weight records =
  let covered = Bytes.make total '\000' in
  let hist = Hashtbl.create 64 in
  let covered_n = ref 0 in
  let deaths = ref 0 in
  List.iter
    (function
      | Done { lo; hi; entries } ->
          if absorb ~covered ~hist ~weight ~lo ~hi entries then
            covered_n := !covered_n + weight ~lo ~hi
      | Death _ -> incr deaths
      | _ -> ())
    records;
  (covered, hist, !covered_n, !deaths)

let gaps_of covered total =
  let gaps = ref [] in
  let i = ref 0 in
  while !i < total do
    if Bytes.get covered !i = '\000' then begin
      let j = ref !i in
      while !j < total && Bytes.get covered !j = '\000' do
        incr j
      done;
      gaps := (!i, !j) :: !gaps;
      i := !j
    end
    else incr i
  done;
  List.rev !gaps

type plan = {
  plan_total : int;
  plan_covered : int;
  plan_entries : Census.entry list;
  plan_gaps : (int * int) list;
  plan_deaths : int;
}

let plan_of_ledger ~expected ~total path =
  let records, _torn = load path ~expected in
  let covered, hist, covered_n, deaths =
    replay_done ~total ~weight:(fun ~lo ~hi -> hi - lo) records
  in
  {
    plan_total = total;
    plan_covered = covered_n;
    plan_entries = Census.of_histogram hist;
    plan_gaps = gaps_of covered total;
    plan_deaths = deaths;
  }
