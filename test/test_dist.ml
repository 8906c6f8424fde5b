(* The distributed census: worker wire protocol, the crash-safe lease
   ledger (truncation at every byte offset — the kill -9 / power-cut
   shapes), and the coordinator end to end over real [rcn worker]
   processes — clean runs, injected crashes, steals, lease expiry,
   quarantine, and coordinator kill + resume.  The invariant under test
   everywhere: the merged histogram is bit-identical to the
   single-process census whatever the worker count, crash schedule or
   steal order. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Tests run from _build/default/test; the coordinator spawns the real
   binary, declared as a dune dep. *)
let rcn_bin =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/rcn.exe"

let space = { Synth.num_values = 2; num_rws = 2; num_responses = 2 }
let cap = 3
let total = Census.space_size space
let reference = lazy (Census.exhaustive ~cap space)
let config = Api.Config.v ~cap ~jobs:1 ()

let with_ledger_file f =
  let path = Filename.temp_file "rcn-test-dist" ".ledger" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let counter obs name = Obs.Metrics.Counter.value (Obs.counter obs name)

let check_identical label (o : Dist.outcome) =
  check_bool (label ^ ": complete") true o.Dist.complete;
  check_int (label ^ ": every table decided") total o.Dist.completed;
  check_bool (label ^ ": histogram bit-identical to Census.exhaustive") true
    (o.Dist.entries = Lazy.force reference)

(* ---------------------------------------------------------------- *)
(* Worker wire protocol. *)

let test_worker_codec () =
  let roundtrip_msg m =
    match Api.Worker.msg_of_string (Api.Worker.msg_to_string m) with
    | Ok m' -> check_bool "msg round-trips" true (m = m')
    | Error e -> Alcotest.failf "msg failed to decode: %s" e
  in
  let roundtrip_reply r =
    match Api.Worker.reply_of_string (Api.Worker.reply_to_string r) with
    | Ok r' -> check_bool "reply round-trips" true (r = r')
    | Error e -> Alcotest.failf "reply failed to decode: %s" e
  in
  let entries = [ { Census.discerning = 1; recording = 1; count = 2 } ] in
  List.iter roundtrip_msg
    [
      Api.Worker.Hello { pid = 42 };
      Api.Worker.Progress { lease = 3; at = 17 };
      Api.Worker.Result { lease = 3; lo = 0; hi = 2; entries };
    ];
  List.iter roundtrip_reply
    [
      Api.Worker.Assign { lease = 3; lo = 0; hi = 2; budget = None };
      Api.Worker.Assign { lease = 4; lo = 2; hi = 9; budget = Some 1.5 };
      Api.Worker.Continue;
      Api.Worker.Truncate { hi = 5 };
      Api.Worker.Shutdown;
    ];
  (* The bytes are the protocol: coordinator and worker live in
     different processes, possibly from different builds during a
     rolling upgrade, so the encoding is pinned. *)
  check_string "hello bytes"
    {|{"rcn_worker":1,"kind":"hello","pid":42}|}
    (Api.Worker.msg_to_string (Api.Worker.Hello { pid = 42 }));
  check_string "progress bytes"
    {|{"rcn_worker":1,"kind":"progress","lease":3,"at":17}|}
    (Api.Worker.msg_to_string (Api.Worker.Progress { lease = 3; at = 17 }));
  check_string "result bytes"
    {|{"rcn_worker":1,"kind":"result","lease":3,"lo":0,"hi":2,"entries":[{"discerning":1,"recording":1,"count":2}]}|}
    (Api.Worker.msg_to_string (Api.Worker.Result { lease = 3; lo = 0; hi = 2; entries }));
  check_string "assign bytes"
    {|{"rcn_worker_reply":1,"kind":"assign","lease":3,"lo":0,"hi":2}|}
    (Api.Worker.reply_to_string
       (Api.Worker.Assign { lease = 3; lo = 0; hi = 2; budget = None }));
  check_string "continue bytes" {|{"rcn_worker_reply":1,"kind":"continue"}|}
    (Api.Worker.reply_to_string Api.Worker.Continue);
  check_string "truncate bytes" {|{"rcn_worker_reply":1,"kind":"truncate","hi":5}|}
    (Api.Worker.reply_to_string (Api.Worker.Truncate { hi = 5 }));
  check_string "shutdown bytes" {|{"rcn_worker_reply":1,"kind":"shutdown"}|}
    (Api.Worker.reply_to_string Api.Worker.Shutdown);
  (* Garbage is an error, not an exception. *)
  check_bool "junk msg rejected" true
    (Result.is_error (Api.Worker.msg_of_string "{}"));
  check_bool "wrong version rejected" true
    (Result.is_error
       (Api.Worker.msg_of_string {|{"rcn_worker":2,"kind":"hello","pid":1}|}));
  check_bool "msg is not a reply" true
    (Result.is_error
       (Api.Worker.reply_of_string
          (Api.Worker.msg_to_string (Api.Worker.Hello { pid = 1 }))))

(* ---------------------------------------------------------------- *)
(* Ledger header discipline. *)

let test_ledger_header () =
  with_ledger_file @@ fun path ->
  let h = Dist_ledger.header ~space ~cap ~total () in
  let t, replayed = Dist_ledger.open_ledger ~expected:h ~resume:false path in
  check_bool "fresh ledger replays nothing" true (replayed = []);
  Dist_ledger.append t (Dist_ledger.Grant { lease = 1; lo = 0; hi = 64; worker = 0 });
  Dist_ledger.close t;
  (match Dist_ledger.load path ~expected:h with
  | [ Dist_ledger.Header h'; Dist_ledger.Grant { lease = 1; lo = 0; hi = 64; worker = 0 } ], 0
    ->
      check_string "header bytes round-trip" h h'
  | records, torn ->
      Alcotest.failf "unexpected replay: %d records, %d torn bytes"
        (List.length records) torn);
  (* A ledger from a different census is rejected, not merged. *)
  let foreign =
    Dist_ledger.header ~space:{ space with Synth.num_values = 3 } ~cap ~total ()
  in
  check_bool "load rejects a foreign ledger" true
    (try
       ignore (Dist_ledger.load path ~expected:foreign);
       false
     with Dist_ledger.Mismatch _ -> true);
  check_bool "open_ledger ~resume:true rejects a foreign ledger" true
    (try
       ignore (Dist_ledger.open_ledger ~expected:foreign ~resume:true path);
       false
     with Dist_ledger.Mismatch _ -> true);
  check_bool "plan_of_ledger rejects a foreign ledger" true
    (try
       ignore (Dist_ledger.plan_of_ledger ~expected:foreign ~total path);
       false
     with Dist_ledger.Mismatch _ -> true);
  (* A missing file is an empty ledger. *)
  check_bool "missing ledger is empty" true
    (Dist_ledger.load (path ^ ".does-not-exist") ~expected:h = ([], 0));
  (* resume:false starts over: the grant is gone, the header is back. *)
  let t2, replayed2 = Dist_ledger.open_ledger ~expected:h ~resume:false path in
  check_bool "non-resume open truncates" true (replayed2 = []);
  Dist_ledger.close t2;
  match Dist_ledger.load path ~expected:h with
  | [ Dist_ledger.Header _ ], 0 -> ()
  | records, _ ->
      Alcotest.failf "truncated ledger kept %d records" (List.length records)

(* ---------------------------------------------------------------- *)
(* The recovery pin (satellite of the soak): a coordinator killed at
   *any* byte of the ledger loses no decided rank and double-counts
   none.  Produce a real ledger — injected crash included, so Grant,
   Done, Expire/Death and respawn records are all present — then replay
   a copy truncated at every byte offset and audit the recovered plan;
   at three representative cuts, run the resumed census to completion
   and require the bit-identical histogram. *)

let test_ledger_truncate_every_offset () =
  with_ledger_file @@ fun path ->
  let h = Dist_ledger.header ~space ~cap ~total () in
  let obs = Obs.create () in
  let outcome =
    Dist.census ~obs ~rcn:rcn_bin ~ledger:path ~fsync:false ~chunk:64
      ~stride:16 ~crash:[ (0, 30) ] ~workers:1 ~config space
  in
  check_identical "ledger-producing run" outcome;
  check_bool "the injected crash was observed" true (outcome.Dist.deaths >= 1);
  let bytes = In_channel.with_open_bin path In_channel.input_all in
  let size = String.length bytes in
  (* Record boundaries from the pinned on-disk encoding. *)
  let records, torn = Dist_ledger.load path ~expected:h in
  check_int "clean ledger has no torn tail" 0 torn;
  let boundaries =
    let ends, _ =
      List.fold_left
        (fun (ends, off) r ->
          let off = off + String.length (Dist_ledger.encode r) in
          (off :: ends, off))
        ([ 0 ], 0) records
    in
    List.rev ends
  in
  check_int "encode boundaries span the file exactly" size
    (List.nth boundaries (List.length records));
  let done_width = function
    | Dist_ledger.Done { lo; hi; _ } -> hi - lo
    | _ -> 0
  in
  let death = function Dist_ledger.Death _ -> true | _ -> false in
  with_ledger_file @@ fun cut_path ->
  for cut = 0 to size do
    Out_channel.with_open_bin cut_path (fun oc ->
        Out_channel.output_string oc (String.sub bytes 0 cut));
    (* The records wholly before the cut — exactly what recovery must
       trust, no more (no double count), no less (no lost rank). *)
    let kept =
      List.filteri
        (fun i _ -> List.nth boundaries (i + 1) <= cut)
        records
    in
    let plan = Dist_ledger.plan_of_ledger ~expected:h ~total cut_path in
    check_int (Printf.sprintf "cut at %d: total" cut) total plan.Dist_ledger.plan_total;
    check_int
      (Printf.sprintf "cut at %d: covered = sum of surviving Done widths" cut)
      (List.fold_left (fun a r -> a + done_width r) 0 kept)
      plan.Dist_ledger.plan_covered;
    check_int
      (Printf.sprintf "cut at %d: histogram counts sum to covered" cut)
      plan.Dist_ledger.plan_covered
      (List.fold_left (fun a e -> a + e.Census.count) 0 plan.Dist_ledger.plan_entries);
    check_int
      (Printf.sprintf "cut at %d: gaps complement the coverage" cut)
      (total - plan.Dist_ledger.plan_covered)
      (List.fold_left (fun a (lo, hi) -> a + (hi - lo)) 0 plan.Dist_ledger.plan_gaps);
    check_int
      (Printf.sprintf "cut at %d: deaths counted from surviving records" cut)
      (List.length (List.filter death kept))
      plan.Dist_ledger.plan_deaths
  done;
  (* Resume from three crash shapes: nothing survived, a mid-run prefix,
     and a torn final record.  Each must finish the census with the
     bit-identical histogram, recomputing only the gaps. *)
  let mid =
    (* the boundary right after the first Done record *)
    let rec go rs bs =
      match (rs, bs) with
      | Dist_ledger.Done _ :: _, b :: _ -> b
      | _ :: rs, _ :: bs -> go rs bs
      | _ -> Alcotest.fail "ledger has no Done record"
    in
    go records (List.tl boundaries)
  in
  List.iter
    (fun cut ->
      with_ledger_file @@ fun resume_path ->
      Out_channel.with_open_bin resume_path (fun oc ->
          Out_channel.output_string oc (String.sub bytes 0 cut));
      let before = Dist_ledger.plan_of_ledger ~expected:h ~total resume_path in
      let obs = Obs.create () in
      let o =
        Dist.census ~obs ~rcn:rcn_bin ~ledger:resume_path ~resume:true
          ~fsync:false ~chunk:64 ~stride:16 ~workers:1 ~config space
      in
      check_identical (Printf.sprintf "resume from cut %d" cut) o;
      check_int
        (Printf.sprintf "resume from cut %d replays the covered ranks" cut)
        before.Dist_ledger.plan_covered o.Dist.resumed;
      check_int
        (Printf.sprintf "resume from cut %d counts resumed ranks" cut)
        before.Dist_ledger.plan_covered
        (counter obs "dist.ranks_resumed");
      let after = Dist_ledger.plan_of_ledger ~expected:h ~total resume_path in
      check_int (Printf.sprintf "resume from cut %d: ledger fully covered" cut)
        total after.Dist_ledger.plan_covered;
      check_bool (Printf.sprintf "resume from cut %d: no gaps left" cut) true
        (after.Dist_ledger.plan_gaps = []))
    [ 0; mid; size - 1 ]

(* ---------------------------------------------------------------- *)
(* End-to-end coordination over real worker processes. *)

let test_census_bit_identical () =
  let obs = Obs.create () in
  let o = Dist.census ~obs ~rcn:rcn_bin ~workers:2 ~config space in
  check_identical "two clean workers" o;
  check_int "no deaths on a clean run" 0 o.Dist.deaths;
  check_int "nothing resumed on a fresh run" 0 o.Dist.resumed;
  check_bool "nothing quarantined" true (o.Dist.quarantined = []);
  check_int "both slots spawned" 2 (counter obs "dist.workers_spawned");
  check_int "no worker killed" 0 (counter obs "dist.workers_killed");
  check_int "no lease expired" 0 (counter obs "dist.leases_expired")

let test_crash_steal_respawn () =
  (* Slot 0 is a straggler (20 ms per table, one big lease); slot 1 is
     crashed after 20 tables.  The coordinator must reap the death,
     respawn slot 1, and let it steal the straggler's tail — and the
     histogram must not care. *)
  let obs = Obs.create () in
  let o =
    Dist.census ~obs ~rcn:rcn_bin ~chunk:128 ~stride:16
      ~throttle:[ (0, 20_000) ] ~crash:[ (1, 20) ] ~workers:2 ~config space
  in
  check_identical "crash + steal + respawn" o;
  check_bool "the crash was observed as a death" true (o.Dist.deaths >= 1);
  check_bool "the dead slot respawned" true
    (counter obs "dist.workers_respawned" >= 1);
  check_bool "the straggler was robbed" true
    (counter obs "dist.leases_stolen" >= 1);
  check_bool "nothing quarantined" true (o.Dist.quarantined = [])

let test_lease_expiry () =
  (* One worker, throttled so hard its first heartbeat lands after the
     TTL: the lease must expire, the worker be killed, and the respawned
     (unthrottled) successor finish the job. *)
  let obs = Obs.create () in
  let o =
    Dist.census ~obs ~rcn:rcn_bin ~lease_ttl:0.5 ~chunk:64 ~stride:64
      ~throttle:[ (0, 30_000) ] ~workers:1 ~config space
  in
  check_identical "lease expiry" o;
  check_bool "the lease expired" true (counter obs "dist.leases_expired" >= 1);
  check_bool "the silent worker was killed" true
    (counter obs "dist.workers_killed" >= 1);
  check_bool "a successor was respawned" true
    (counter obs "dist.workers_respawned" >= 1)

let test_quarantine_partial () =
  (* range_attempts = 1: the range the injected crash takes down gets no
     second grant — it must be quarantined and the census reported
     honestly incomplete, the exact PARTIAL discipline of a
     deadline-cut Engine.census. *)
  let obs = Obs.create () in
  let o =
    Dist.census ~obs ~rcn:rcn_bin ~chunk:64 ~stride:16 ~range_attempts:1
      ~crash:[ (0, 10) ] ~workers:1 ~config space
  in
  check_bool "census is honestly incomplete" false o.Dist.complete;
  (match o.Dist.quarantined with
  | [ q ] ->
      check_string "quarantine context" "dist.census" q.Supervise.q_context;
      check_int "quarantined width is the lost lease"
        (total - o.Dist.completed)
        (q.Supervise.q_hi - q.Supervise.q_lo);
      check_int "one attempt was spent" 1 q.Supervise.q_attempts
  | qs -> Alcotest.failf "expected one quarantined range, got %d" (List.length qs));
  check_int "quarantine counted" 1 (counter obs "dist.ranges_quarantined");
  (* The decided part is still the exact sub-histogram: completed ranks
     sum and every entry count is <= the reference count. *)
  check_int "completed + quarantined = total" total
    (o.Dist.completed
    + List.fold_left
        (fun a q -> a + (q.Supervise.q_hi - q.Supervise.q_lo))
        0 o.Dist.quarantined);
  check_int "histogram sums to completed" o.Dist.completed
    (List.fold_left (fun a e -> a + e.Census.count) 0 o.Dist.entries);
  List.iter
    (fun (e : Census.entry) ->
      let r =
        List.find_opt
          (fun (r : Census.entry) ->
            r.Census.discerning = e.Census.discerning
            && r.Census.recording = e.Census.recording)
          (Lazy.force reference)
      in
      check_bool "partial histogram is a sub-histogram of the reference" true
        (match r with Some r -> e.Census.count <= r.Census.count | None -> false))
    o.Dist.entries

(* ---------------------------------------------------------------- *)
(* Symmetry reduction across processes: the coordinator shards
   canonical-class ranks, workers decide one representative per class
   and weight by orbit size — and the merged histogram must still be
   bit-identical, crash or no crash. *)

let test_sym_census_bit_identical () =
  let obs = Obs.create () in
  let sym_config = Api.Config.v ~cap ~jobs:1 ~sym:true () in
  let o =
    Dist.census ~obs ~rcn:rcn_bin ~stride:4 ~crash:[ (0, 3) ] ~workers:2
      ~config:sym_config space
  in
  check_identical "sym census over two workers" o;
  check_bool "the injected crash was observed" true (o.Dist.deaths >= 1);
  let classes = counter obs "sym.classes" in
  check_bool "sym.classes nonzero" true (classes > 0);
  check_bool "strictly fewer classes than tables" true (classes < total);
  check_bool "sym.canon_ns recorded, as in Engine.census" true (counter obs "sym.canon_ns" > 0)

(* ---------------------------------------------------------------- *)
(* One durable progress format: an in-process checkpoint cut mid-run is
   finished by the coordinator, and a cut coordinator ledger by the
   in-process engine — both bit-identical, at one and two jobs, with
   and without symmetry reduction. *)

let test_cross_resume () =
  List.iter
    (fun (jobs, sym) ->
      let label = Printf.sprintf "jobs=%d sym=%b" jobs sym in
      let config = Api.Config.v ~cap ~jobs ~sym () in
      let rs = Engine.census_ranks ~sym space in
      let sym_classes = if sym then Some rs.Engine.ranks else None in
      let h = Dist_ledger.header ?sym_classes ~space ~cap ~total () in
      (* Cut [path] just after its first Done record, as a kill mid-run
         leaves it; returns the tables the cut file proves decided. *)
      let cut path =
        let rec upto = function
          | (Dist_ledger.Done _ as r) :: _ -> [ r ]
          | r :: rest -> r :: upto rest
          | [] -> Alcotest.failf "%s: ledger has no Done record" label
        in
        let kept = upto (fst (Dist_ledger.load path ~expected:h)) in
        Out_channel.with_open_bin path (fun oc ->
            List.iter (fun r -> Out_channel.output_string oc (Dist_ledger.encode r)) kept);
        let _, _, covered, _ =
          Dist_ledger.replay_done ~total:rs.Engine.ranks ~weight:rs.Engine.weight kept
        in
        check_bool (label ^ ": the cut keeps trusted progress") true (covered > 0);
        covered
      in
      let engine ~resume path =
        Pool.with_pool ~jobs (fun pool ->
            Engine.census ~checkpoint:path ~resume ~config pool space)
      in
      let dist ~resume path =
        Dist.census ~rcn:rcn_bin ~ledger:path ~resume ~fsync:false ~workers:1 ~config space
      in
      (with_ledger_file @@ fun path ->
       ignore (engine ~resume:false path);
       let covered = cut path in
       let o = dist ~resume:true path in
       check_identical (label ^ ": coordinator finishes a checkpoint") o;
       check_int (label ^ ": coordinator resumes the checkpoint") covered o.Dist.resumed);
      with_ledger_file @@ fun path ->
      check_identical (label ^ ": ledger-producing run") (dist ~resume:false path);
      let covered = cut path in
      let e = engine ~resume:true path in
      check_bool (label ^ ": engine finishes a coordinator ledger") true
        (e.Engine.complete && e.Engine.entries = Lazy.force reference);
      check_int (label ^ ": engine resumes the ledger") covered e.Engine.resumed)
    [ (1, false); (2, false); (1, true); (2, true) ]

(* ---------------------------------------------------------------- *)
(* The deadline regression (once a bug): the wall-clock budget is
   resolved once at the coordinator and shipped as remaining seconds in
   each Assign, so a worker death + respawn mid-run must not extend the
   run.  Two throttled stragglers (50 ms per table — the full census
   would take ~6.4 s), slot 1 killed early; its clean respawn finishes
   slot 1's range, then the deadline cuts slot 0 mid-lease.  The census
   must come back honestly PARTIAL, with everything decided before the
   cut, well inside the budget plus shutdown slack. *)

let test_deadline_survives_respawn () =
  let deadline = 1.2 in
  let obs = Obs.create () in
  let dl_config = Api.Config.v ~cap ~jobs:1 ~deadline () in
  let t0 = Unix.gettimeofday () in
  let o =
    Dist.census ~obs ~rcn:rcn_bin ~chunk:128 ~stride:8 ~steal_min:10_000
      ~throttle:[ (0, 50_000); (1, 50_000) ]
      ~crash:[ (1, 8) ] ~workers:2 ~config:dl_config space
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  check_bool "census is honestly incomplete" false o.Dist.complete;
  check_bool "something was decided" true (o.Dist.completed > 0);
  check_bool "not everything was decided" true (o.Dist.completed < total);
  check_int "histogram sums to completed" o.Dist.completed
    (List.fold_left (fun a e -> a + e.Census.count) 0 o.Dist.entries);
  check_bool "the kill was observed as a death" true (o.Dist.deaths >= 1);
  check_bool "the dead slot respawned" true
    (counter obs "dist.workers_respawned" >= 1);
  check_bool "the deadline cut a lease" true
    (counter obs "dist.deadline_truncations" >= 1);
  check_bool "an out-of-time range is a gap, not a quarantine" true
    (o.Dist.quarantined = []);
  (* The teeth of the regression: with a per-respawn budget the run
     would stretch toward the 6.4 s unthrottled-range time; resolved
     once, it ends within the budget plus batch + shutdown slack. *)
  check_bool
    (Printf.sprintf "finished within budget (%.2f s elapsed)" elapsed)
    true
    (elapsed < deadline +. 2.8)

(* An orphaned worker whose coordinator died with the worker's Hello
   still unread: closing a Unix stream socket over unread data resets
   the connection, so the worker's next read fails with ECONNRESET
   rather than reading EOF.  The orphan must exit 0 like any other. *)
let test_orphan_on_reset () =
  let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let coordinator =
    Thread.create
      (fun () ->
        (* Wait for the Hello, then die without reading it. *)
        ignore (Unix.select [ theirs ] [] [] 10.);
        Unix.close theirs)
      ()
  in
  let code =
    Fun.protect
      ~finally:(fun () -> Unix.close ours)
      (fun () -> Dist_worker.run ~config ~space ~fd:ours ())
  in
  Thread.join coordinator;
  check_int "orphan exits 0 on a reset link" 0 code

let test_bad_parameters () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_bool "workers = 0 rejected" true
    (raises (fun () -> Dist.census ~rcn:rcn_bin ~workers:0 ~config space));
  check_bool "resume without a ledger rejected" true
    (raises (fun () -> Dist.census ~rcn:rcn_bin ~resume:true ~workers:1 ~config space));
  check_bool "negative chunk rejected" true
    (raises (fun () -> Dist.census ~rcn:rcn_bin ~chunk:0 ~workers:1 ~config space))

let suite =
  [
    Alcotest.test_case "worker wire codec: round-trips and pinned bytes" `Quick
      test_worker_codec;
    Alcotest.test_case "ledger: header pins the census" `Quick test_ledger_header;
    Alcotest.test_case "ledger survives truncation at every byte offset" `Slow
      test_ledger_truncate_every_offset;
    Alcotest.test_case "distributed census is bit-identical" `Slow
      test_census_bit_identical;
    Alcotest.test_case "crash, steal, respawn: histogram unchanged" `Slow
      test_crash_steal_respawn;
    Alcotest.test_case "missed heartbeats expire the lease" `Slow test_lease_expiry;
    Alcotest.test_case "a doomed range is quarantined, honestly" `Slow
      test_quarantine_partial;
    Alcotest.test_case "sym census over workers is bit-identical" `Slow
      test_sym_census_bit_identical;
    Alcotest.test_case "deadline survives a worker respawn" `Slow
      test_deadline_survives_respawn;
    Alcotest.test_case "nonsensical parameters are rejected" `Quick
      test_bad_parameters;
    Alcotest.test_case "orphaned worker exits quietly on a reset link" `Quick
      test_orphan_on_reset;
    Alcotest.test_case "checkpoints and coordinator ledgers resume each other" `Slow
      test_cross_resume;
  ]
