(* Tests for the parallel decision engine: the pool itself, determinism
   parity against the sequential deciders at several job counts, the shared
   closure cache, and the synthesis portfolio. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let job_counts = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_covers_range () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs @@ fun pool ->
      let n = 1000 in
      let hits = Array.make n 0 in
      Pool.parallel_for pool ~chunk:7 n (fun lo hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      check_bool
        (Printf.sprintf "jobs=%d: every index exactly once" jobs)
        true
        (Array.for_all (fun c -> c = 1) hits))
    job_counts

let test_pool_reuse () =
  Pool.with_pool ~jobs:3 @@ fun pool ->
  for round = 1 to 5 do
    let claimed = Atomic.make 0 in
    Pool.parallel_for pool 100 (fun lo hi ->
        ignore (Atomic.fetch_and_add claimed (hi - lo)));
    check_int (Printf.sprintf "round %d fully claimed" round) 100 (Atomic.get claimed)
  done

let test_pool_exception () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs @@ fun pool ->
      (* The propagated exception carries the failing chunk and worker. *)
      (match Pool.parallel_for pool ~chunk:7 100 (fun _ _ -> failwith "boom") with
      | () -> Alcotest.fail "expected Task_error"
      | exception Pool.Task_error { lo; hi; worker; error } ->
          check_bool (Printf.sprintf "jobs=%d: chunk range sane" jobs) true
            (0 <= lo && lo < hi && hi <= 100);
          check_bool (Printf.sprintf "jobs=%d: worker id in range" jobs) true
            (0 <= worker && worker < jobs);
          check_bool (Printf.sprintf "jobs=%d: original error attached" jobs) true
            (error = Failure "boom"));
      (* The pool survives a failed task: the recorded error is cleared on
         the next submission, which then runs normally (pinned behavior). *)
      let claimed = Atomic.make 0 in
      Pool.parallel_for pool 10 (fun lo hi ->
          ignore (Atomic.fetch_and_add claimed (hi - lo)));
      check_int (Printf.sprintf "jobs=%d: usable after exception" jobs) 10
        (Atomic.get claimed))
    job_counts

let test_pool_until () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs @@ fun pool ->
      (* A stop signal that never fires is plain parallel_for. *)
      let count = Atomic.make 0 in
      check_bool (Printf.sprintf "jobs=%d: no stop -> complete" jobs) true
        (Pool.parallel_for_until pool
           ~should_stop:(fun () -> false)
           500
           (fun lo hi -> ignore (Atomic.fetch_and_add count (hi - lo))));
      check_int (Printf.sprintf "jobs=%d: every index claimed" jobs) 500
        (Atomic.get count);
      (* A stop raised by the first chunk abandons the unclaimed tail. *)
      let stop = Atomic.make false in
      let seen = Atomic.make 0 in
      let completed =
        Pool.parallel_for_until pool ~chunk:1
          ~should_stop:(fun () -> Atomic.get stop)
          100_000
          (fun lo hi ->
            ignore (Atomic.fetch_and_add seen (hi - lo));
            Atomic.set stop true)
      in
      check_bool (Printf.sprintf "jobs=%d: stop -> incomplete" jobs) false completed;
      check_bool (Printf.sprintf "jobs=%d: tail abandoned" jobs) true
        (Atomic.get seen < 100_000))
    job_counts

let test_pool_validation () =
  check_bool "jobs = 0 rejected" true
    (try
       ignore (Pool.create ~jobs:0 ());
       false
     with Invalid_argument _ -> true);
  Pool.with_pool ~jobs:2 @@ fun pool ->
  check_int "jobs recorded" 2 (Pool.jobs pool);
  check_bool "chunk = 0 rejected" true
    (try
       Pool.parallel_for pool ~chunk:0 10 (fun _ _ -> ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Search parity: the engine must return the sequential first witness. *)

let cert_equal (a : Certificate.t) (b : Certificate.t) =
  a.Certificate.initial = b.Certificate.initial
  && a.Certificate.team = b.Certificate.team
  && a.Certificate.ops = b.Certificate.ops

let test_search_parity_gallery () =
  List.iter
    (fun (ty, n) ->
      List.iter
        (fun condition ->
          let seq = Decide.search condition ty ~n in
          List.iter
            (fun jobs ->
              Pool.with_pool ~jobs @@ fun pool ->
              match (seq, Engine.search ~config:Api.Config.default pool condition ty ~n) with
              | None, None -> ()
              | Some a, Some b ->
                  check_bool
                    (Printf.sprintf "%s n=%d jobs=%d same witness" ty.Objtype.name n jobs)
                    true (cert_equal a b)
              | _ ->
                  Alcotest.failf "%s n=%d jobs=%d: outcome mismatch" ty.Objtype.name n jobs)
            job_counts)
        [ Decide.Discerning; Decide.Recording ])
    [
      (Gallery.test_and_set, 2);
      (Gallery.test_and_set, 3);
      (Gallery.team_ladder ~cap:2, 3);
      (Gallery.x4_witness, 3);
      (Gallery.x4_witness, 5);
    ]

let test_kernel_mode_parity () =
  (* The acceptance pin for the compiled kernel: both modes, at every job
     count, return a certificate bit-identical to the sequential
     reference decider's (or the same refutation), and every witness
     replays under the independent certificate checker.  Several of the
     types have more than one witnessing certificate, so a first-CAS-wins
     race in the fan-out would surface as a different witness; jobs 4
     repeats five rounds to give interleavings a chance to differ. *)
  let replays condition c =
    match condition with
    | Decide.Discerning -> Certificate.check_discerning c
    | Decide.Recording -> Certificate.check_recording c
  in
  List.iter
    (fun (ty, n) ->
      List.iter
        (fun condition ->
          let reference = Decide.search ~mode:Kernel.Reference condition ty ~n in
          List.iter
            (fun mode ->
              List.iter
                (fun jobs ->
                  Pool.with_pool ~jobs @@ fun pool ->
                  for round = 1 to (if jobs = 4 then 5 else 1) do
                    let case =
                      Printf.sprintf "%s n=%d %s jobs=%d round=%d" ty.Objtype.name n
                        (Kernel.mode_to_string mode) jobs round
                    in
                    match
                      ( reference,
                        Engine.search ~config:(Api.Config.v ~kernel:mode ()) pool
                          condition ty ~n )
                    with
                    | None, None -> ()
                    | Some a, Some b ->
                        check_bool (case ^ ": same witness") true (cert_equal a b);
                        check_bool (case ^ ": witness replays") true (replays condition b)
                    | _ -> Alcotest.failf "%s: outcome mismatch" case
                  done)
                job_counts)
            [ Kernel.Reference; Kernel.Trie ])
        [ Decide.Discerning; Decide.Recording ])
    [
      (Gallery.test_and_set, 2);
      (Gallery.test_and_set, 3);
      (Gallery.team_ladder ~cap:2, 2);
      (Gallery.team_ladder ~cap:2, 3);
      (Gallery.team_ladder ~cap:2, 4);
      (Gallery.team_ladder ~cap:3, 3);
      (Gallery.x4_witness, 2);
      (Gallery.x4_witness, 3);
    ]

let test_census_kernel_mode_parity () =
  (* Identical histograms from both kernel modes on the exhaustible
     2/2/2 space, at jobs 4 (the fan-out path). *)
  let space = { Synth.num_values = 2; num_rws = 2; num_responses = 2 } in
  let seq = Census.exhaustive ~cap:3 space in
  List.iter
    (fun mode ->
      Pool.with_pool ~jobs:4 @@ fun pool ->
      let run = Engine.census ~config:(Api.Config.v ~cap:3 ~kernel:mode ()) pool space in
      check_bool
        (Printf.sprintf "%s census complete" (Kernel.mode_to_string mode))
        true run.Engine.complete;
      check_bool
        (Printf.sprintf "%s histogram identical" (Kernel.mode_to_string mode))
        true
        (run.Engine.entries = seq))
    [ Kernel.Reference; Kernel.Trie ]

let level_parity condition (seq : Analysis.level) (par : Analysis.level) =
  Analysis.equal_level seq par
  &&
  match (seq.Analysis.certificate, par.Analysis.certificate) with
  | None, None -> true
  | Some a, Some b ->
      cert_equal a b
      && (match condition with
         | Decide.Discerning -> Certificate.check_discerning b
         | Decide.Recording -> Certificate.check_recording b)
  | _ -> false

let prop_engine_analyze_parity =
  (* Random small readable types: the engine's analysis at jobs 1, 2, 4 has
     the same levels and the same, replay-valid, certificates as the
     sequential scan. *)
  let space = { Synth.num_values = 3; num_rws = 2; num_responses = 2 } in
  let arbitrary =
    QCheck.make
      ~print:(fun g -> Format.asprintf "%a" Objtype.pp_table (Synth.to_objtype g))
      (QCheck.Gen.map
         (fun seed -> Synth.random_genome (Random.State.make [| seed |]) space)
         QCheck.Gen.int)
  in
  QCheck.Test.make ~name:"engine analyze parity at jobs 1/2/4" ~count:60 arbitrary
    (fun g ->
      let ty = Synth.to_objtype g in
      let seq = Numbers.analyze ~cap:3 ty in
      List.for_all
        (fun jobs ->
          Pool.with_pool ~jobs @@ fun pool ->
          let par = Engine.analyze ~config:(Api.Config.v ~cap:3 ()) pool ty in
          Analysis.equal seq par
          && level_parity Decide.Discerning seq.Analysis.discerning par.Analysis.discerning
          && level_parity Decide.Recording seq.Analysis.recording par.Analysis.recording)
        job_counts)

let test_analyze_all_gallery_parity () =
  let types = List.map snd (Gallery.all ()) in
  let seq = List.map (Numbers.analyze ~cap:3) types in
  Pool.with_pool ~jobs:4 @@ fun pool ->
  let par = Engine.analyze_all ~config:(Api.Config.v ~cap:3 ()) pool types in
  List.iter2
    (fun (s : Analysis.t) (p : Analysis.t) ->
      check_bool (s.Analysis.type_name ^ " parity") true (Analysis.equal s p))
    seq par

let test_census_parity () =
  (* The full 2-value / 2-RMW / 2-response space (256 tables): identical
     histogram at every job count. *)
  let space = { Synth.num_values = 2; num_rws = 2; num_responses = 2 } in
  let seq = Census.exhaustive ~cap:3 space in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs @@ fun pool ->
      let run = Engine.census ~config:(Api.Config.v ~cap:3 ()) pool space in
      check_bool (Printf.sprintf "jobs=%d run complete" jobs) true
        (run.Engine.complete && run.Engine.completed = run.Engine.total);
      check_bool
        (Printf.sprintf "jobs=%d histogram identical" jobs)
        true
        (run.Engine.entries = seq))
    job_counts

(* Census checkpoints are census ledgers ([Dist_ledger]): a header, then
   one [Done] record per run of decided ranks.  Helpers over the pinned
   on-disk encoding. *)
let ckpt_space = { Synth.num_values = 2; num_rws = 2; num_responses = 2 }
let ckpt_header = Dist_ledger.header ~space:ckpt_space ~cap:3 ~total:256 ()
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path bytes =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes)

let with_temp_file f =
  let path = Filename.temp_file "rcn-test-ckpt" ".ledger" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () ->
      f path)

(* The records of a ledger file, each with the offset just past it. *)
let ledger_records path =
  let records, _ = Dist_ledger.load path ~expected:ckpt_header in
  List.rev
    (snd
       (List.fold_left
          (fun (off, acc) r ->
            let off = off + String.length (Dist_ledger.encode r) in
            (off, (r, off) :: acc))
          (0, []) records))

let done_width = function Dist_ledger.Done { lo; hi; _ } -> hi - lo | _ -> 0

let test_census_checkpoint_resume () =
  let space = ckpt_space in
  let seq = Census.exhaustive ~cap:3 space in
  let config = Api.Config.v ~cap:3 () in
  with_temp_file @@ fun path ->
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let obs = Obs.create () in
  let full = Engine.census ~obs ~checkpoint:path ~config pool space in
  check_bool "checkpointed run complete" true full.Engine.complete;
  check_bool "no storage error on a healthy file" true (full.Engine.storage_error = None);
  (* A header, then one Done record per 32-table pool chunk. *)
  let recs = ledger_records path in
  check_int "header plus one Done per chunk" 9 (List.length recs);
  check_int "one flush per Done record" 8
    (Obs.Metrics.Counter.value (Obs.counter obs "census.checkpoint_flushes"));
  (* Simulate a kill mid-run: keep the header plus three Done records,
     then half of the fourth, as a dying write leaves. *)
  let bytes = read_file path in
  let kept = List.filteri (fun i _ -> i <= 3) recs in
  let keep_end = snd (List.nth recs 3) and next_end = snd (List.nth recs 4) in
  write_file path (String.sub bytes 0 ((keep_end + next_end) / 2));
  let resumed = Engine.census ~checkpoint:path ~resume:true ~config pool space in
  check_bool "resumed run complete" true resumed.Engine.complete;
  check_int "torn tail dropped, whole records loaded"
    (List.fold_left (fun a (r, _) -> a + done_width r) 0 kept)
    resumed.Engine.resumed;
  check_int "each table decided exactly once" (Census.space_size space)
    resumed.Engine.completed;
  check_bool "stitched histogram identical to the sequential census" true
    (resumed.Engine.entries = seq);
  (* A checkpoint from different census parameters is rejected, not merged. *)
  check_bool "stale checkpoint rejected" true
    (try
       ignore
         (Engine.census ~checkpoint:path ~resume:true
            ~config:(Api.Config.v ~cap:4 ())
            pool space);
       false
     with Dist_ledger.Mismatch _ -> true);
  (* The real writer under a fault: the [k]-th I/O operation (open and
     read are 0 and 1; then the header append, its fsync, and an append
     and fsync per Done) fails with ENOSPC.  The census finishes in
     memory and reports the failure; the file keeps a clean prefix that
     a fault-free resume trusts exactly as far as the shared fold
     does. *)
  List.iter
    (fun k ->
      with_temp_file @@ fun fpath ->
      let run =
        Engine.census ~checkpoint:fpath ~durable:true
          ~injector:(Fsio.Injector.of_plan [ (k, Fsio.Err Unix.ENOSPC) ])
          ~config pool space
      in
      check_bool (Printf.sprintf "fault at op %d: histogram intact" k) true
        (run.Engine.entries = seq);
      check_bool (Printf.sprintf "fault at op %d: storage error reported" k) true
        (run.Engine.storage_error <> None);
      let plan = Dist_ledger.plan_of_ledger ~expected:ckpt_header ~total:256 fpath in
      let again = Engine.census ~checkpoint:fpath ~resume:true ~config pool space in
      check_bool (Printf.sprintf "fault at op %d: resume bit-identical" k) true
        (again.Engine.complete && again.Engine.entries = seq
        && again.Engine.storage_error = None);
      check_int (Printf.sprintf "fault at op %d: resumed = surviving coverage" k)
        plan.Dist_ledger.plan_covered again.Engine.resumed)
    [ 2; 6; 9 ];
  (* Through the dispatcher, the same failure (a device that answers
     every write with ENOSPC) is a PARTIAL response naming the
     checkpoint, never a crash and never a silent success. *)
  if Sys.file_exists "/dev/full" then begin
    let env = Dispatch.env ~obs:(Obs.create ()) ~command:"census" pool in
    let resp =
      Dispatch.run env
        (Api.Request.Census
           { space; sample = None; seed = 0; checkpoint = Some "/dev/full";
             resume = false; durable = true; config })
    in
    (match resp.Api.Response.body with
    | Api.Response.Census c ->
        check_bool "dispatched census histogram intact" true (c.Api.Response.entries = seq)
    | _ -> Alcotest.failf "dispatch: got %s" (Api.Response.to_string resp));
    check_bool "dispatched census carries a census.checkpoint quarantine" true
      (List.exists
         (fun q -> q.Supervise.q_context = "census.checkpoint")
         resp.Api.Response.quarantined);
    check_int "dispatched census is PARTIAL" 3 (Api.Response.exit_code resp)
  end

let with_ledger_file records f =
  with_temp_file @@ fun path ->
  write_file path
    (String.concat "" (List.map Dist_ledger.encode (Dist_ledger.Header ckpt_header :: records)));
  f path

let test_checkpoint_load_edge_cases () =
  let space = ckpt_space in
  let seq = Census.exhaustive ~cap:3 space in
  let config = Api.Config.v ~cap:3 () in
  let plan path = Dist_ledger.plan_of_ledger ~expected:ckpt_header ~total:256 path in
  let entry d r c = { Census.discerning = d; recording = r; count = c } in
  let done_ lo hi entries = Dist_ledger.Done { lo; hi; entries } in
  (* An overlapping Done is ignored: the first record covering a rank
     wins, as [census ~resume] trusts it. *)
  with_ledger_file
    [ done_ 0 4 [ (2, 1, 4) ]; done_ 2 6 [ (3, 3, 4) ]; done_ 4 6 [ (1, 1, 2) ] ]
    (fun path ->
      let p = plan path in
      check_int "overlap ignored: covered" 6 p.Dist_ledger.plan_covered;
      check_bool "first Done wins" true
        (p.Dist_ledger.plan_entries = [ entry 1 1 2; entry 2 1 4 ]));
  (* Out-of-range, empty and mis-summed ranges are skipped, never
     resumed: the census recomputes them. *)
  with_ledger_file
    [
      done_ 250 300 [ (2, 2, 50) ];
      done_ (-1) 3 [ (2, 2, 4) ];
      done_ 5 5 [];
      done_ 8 12 [ (2, 2, 3) ];
      done_ 20 22 [ (2, 2, 2) ];
    ]
    (fun path ->
      check_int "only the well-formed Done survives" 2 (plan path).Dist_ledger.plan_covered);
  with_ledger_file [ done_ 250 300 [ (2, 2, 50) ]; done_ 8 12 [ (2, 2, 3) ] ] (fun path ->
      Pool.with_pool ~jobs:2 @@ fun pool ->
      let run = Engine.census ~checkpoint:path ~resume:true ~config pool space in
      check_int "invalid Done records are skipped, not resumed" 0 run.Engine.resumed;
      check_bool "census still completes, bit-identical" true
        (run.Engine.complete && run.Engine.entries = seq));
  (* A complete record failing its CRC is corruption — acknowledged
     whole, so it cannot be a crash artifact — and raises with its
     offset rather than being silently dropped. *)
  with_ledger_file [ done_ 0 2 [ (2, 2, 2) ]; done_ 2 4 [ (2, 2, 2) ] ] (fun path ->
      let bytes = Bytes.of_string (read_file path) in
      let start = String.length (Dist_ledger.encode (Dist_ledger.Header ckpt_header)) in
      let off = Bytes.index_from bytes start '\n' + 1 in
      Bytes.set bytes off (Char.chr (Char.code (Bytes.get bytes off) lxor 1));
      write_file path (Bytes.to_string bytes);
      check_bool "CRC-flipped record raises at its offset" true
        (try
           ignore (Dist_ledger.load path ~expected:ckpt_header);
           false
         with Fsio.Corrupt { offset; _ } -> offset = start);
      Pool.with_pool ~jobs:1 @@ fun pool ->
      check_bool "resuming a corrupt checkpoint raises" true
        (try
           ignore (Engine.census ~checkpoint:path ~resume:true ~config pool space);
           false
         with Fsio.Corrupt _ -> true));
  (* A missing file is an empty resume, not an error. *)
  check_bool "missing checkpoint loads empty" true
    (Dist_ledger.load "/nonexistent/rcn-ckpt" ~expected:ckpt_header = ([], 0));
  (* A v2 checkpoint (CRC'd text lines under its own header) fails the
     ledger magic: its bytes are dropped like a torn tail and the census
     is recomputed. *)
  with_temp_file @@ fun path ->
  let v2_line i d r =
    let body = Printf.sprintf "%d %d %d" i d r in
    Printf.sprintf "%s %s\n" body (Fsio.Crc32.to_hex (Fsio.Crc32.string body))
  in
  let v2 =
    (* the retired format's header line, byte for byte *)
    Printf.sprintf "%s v2 values=2 rws=2 responses=2 cap=3 total=256\n"
      (String.concat "-" [ "rcn"; "census"; "checkpoint" ])
    ^ String.concat "" (List.init 40 (fun i -> v2_line i 2 1))
  in
  write_file path v2;
  let obs = Obs.create () in
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let run = Engine.census ~obs ~checkpoint:path ~resume:true ~config pool space in
  check_int "v2 checkpoint resumes nothing" 0 run.Engine.resumed;
  check_bool "v2 checkpoint: census recomputed, bit-identical" true
    (run.Engine.complete && run.Engine.entries = seq);
  check_int "v2 bytes counted as a torn tail" (String.length v2)
    (Obs.Metrics.Counter.value (Obs.counter obs "dist.ledger_torn_bytes"));
  check_int "the file is now a complete ledger" 256 (plan path).Dist_ledger.plan_covered

(* The durability contract, pinned byte by byte: a [kill -9] (or, with
   --durable, a power cut) can truncate the checkpoint at *any* byte
   offset inside the record being appended.  Whatever the cut point, the
   loader must keep every complete record, drop at most the torn one, and
   a resumed census must reach the identical histogram. *)
let test_checkpoint_truncate_every_offset () =
  let space = ckpt_space in
  let seq = Census.exhaustive ~cap:3 space in
  let config = Api.Config.v ~cap:3 () in
  with_temp_file @@ fun path ->
  Pool.with_pool ~jobs:2 @@ fun pool ->
  (* [durable] exercises the fsync path; the file contents are the same. *)
  let full = Engine.census ~checkpoint:path ~durable:true ~config pool space in
  check_bool "durable checkpointed run complete" true full.Engine.complete;
  check_bool "durable run matches the sequential census" true
    (full.Engine.entries = seq);
  let bytes = read_file path in
  let size = String.length bytes in
  let recs = ledger_records path in
  let whole = List.map fst recs in
  let n_records = List.length whole in
  check_int "encode boundaries span the file exactly" size (snd (List.nth recs (n_records - 1)));
  let last_start = snd (List.nth recs (n_records - 2)) in
  with_temp_file @@ fun cut_path ->
  for cut = last_start to size do
    write_file cut_path (String.sub bytes 0 cut);
    let loaded, _ = Dist_ledger.load cut_path ~expected:ckpt_header in
    (* The trailing newline is part of the record, so only the untouched
       file keeps them all. *)
    let expect = if cut = size then n_records else n_records - 1 in
    check_int
      (Printf.sprintf "cut at byte %d keeps every complete record" cut)
      expect (List.length loaded);
    check_bool
      (Printf.sprintf "cut at byte %d is a prefix of the full log" cut)
      true
      (loaded = List.filteri (fun i _ -> i < expect) whole)
  done;
  (* Resume from a mid-record cut: the torn record is recomputed and the
     stitched histogram is bit-identical. *)
  write_file cut_path (String.sub bytes 0 (last_start + 2));
  let resumed = Engine.census ~checkpoint:cut_path ~resume:true ~config pool space in
  check_bool "resumed-from-torn-tail run complete" true resumed.Engine.complete;
  check_int "only whole records were resumed"
    (256 - done_width (List.nth whole (n_records - 1)))
    resumed.Engine.resumed;
  check_bool "stitched histogram identical" true (resumed.Engine.entries = seq)

(* A checkpointed census merges each decided run through
   [Dist_ledger.absorb], so no rank is recorded twice: not when chunks
   fail and are retried, not when a watchdog cancels a sweep and reruns
   it with halved chunks over partly committed ranges, and not when a
   deadline cuts it.  The [Done] widths then sum to exactly the tables
   the run decided, and a resume finishes the file bit-identically. *)
let test_census_checkpoint_records_once () =
  let space = ckpt_space in
  let seq = Census.exhaustive ~cap:3 space in
  let config = Api.Config.v ~cap:3 () in
  let plan path = Dist_ledger.plan_of_ledger ~expected:ckpt_header ~total:256 path in
  let widths path = List.fold_left (fun a (r, _) -> a + done_width r) 0 (ledger_records path) in
  let policy = Supervise.Policy.v ~base_backoff:1e-5 ~max_backoff:1e-4 () in
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let healed label supervisor =
    with_temp_file @@ fun path ->
    let run = Engine.census ~supervisor ~checkpoint:path ~config pool space in
    check_bool (label ^ ": complete, histogram identical") true
      (run.Engine.complete && run.Engine.entries = seq);
    check_bool (label ^ ": the ledger has no gaps") true ((plan path).Dist_ledger.plan_gaps = []);
    check_int (label ^ ": Done widths sum to the space") 256 (widths path)
  in
  (* Half the chunks fail once, then heal. *)
  let chaos = Supervise.Chaos.create ~rate:0.5 ~seed:3 () in
  let sup = Supervise.create ~policy ~chaos () in
  healed "chaos" sup;
  check_bool "chaos: retries were exercised" true (Supervise.retries sup > 0);
  (* A clock that jumps past the interval at every read: whenever one
     worker polls while the other is busy, the sweep is cancelled and
     rerun, until the last round runs without the watchdog. *)
  let t = ref 0.0 in
  let now () = t := !t +. 2.0; !t in
  let wd = Supervise.Watchdog.create ~now ~interval:1.0 ~jobs:2 () in
  healed "watchdog" (Supervise.create ~policy ~watchdog:wd ());
  List.iter
    (fun (label, deadline) ->
      with_temp_file @@ fun path ->
      let cut = Engine.census ~checkpoint:path ~config:(Api.Config.v ~cap:3 ~deadline ()) pool space in
      check_int (label ^ ": Done widths sum to the decided tables")
        (cut.Engine.completed - cut.Engine.resumed) (widths path);
      check_int (label ^ ": the ledger covers what was decided") cut.Engine.completed
        (plan path).Dist_ledger.plan_covered;
      let again = Engine.census ~checkpoint:path ~resume:true ~config pool space in
      check_int (label ^ ": resume trusts the cut run") cut.Engine.completed again.Engine.resumed;
      check_bool (label ^ ": resume bit-identical") true
        (again.Engine.complete && again.Engine.entries = seq);
      check_int (label ^ ": Done widths sum to the space after resume") 256 (widths path))
    (* 0.2 ms cuts the sweep mid-chunk on a one-core host; wherever it
       falls, the sums must hold. *)
    [ ("expired deadline", -1.0); ("short deadline", 2e-4) ]

(* ------------------------------------------------------------------ *)
(* Deadlines: degrade, never lie. *)

let test_expired_deadline_analyze () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs @@ fun pool ->
      (* A relative deadline of -5s is already expired on entry. *)
      let a =
        Engine.analyze
          ~config:(Api.Config.v ~cap:4 ~deadline:(-5.0) ())
          pool Gallery.test_and_set
      in
      let check_level name (l : Analysis.level) =
        check_int (Printf.sprintf "jobs=%d: %s floor" jobs name) 1 l.Analysis.value;
        check_bool
          (Printf.sprintf "jobs=%d: %s is a lower bound" jobs name)
          true
          (l.Analysis.status = Analysis.At_least)
      in
      check_level "discerning" a.Analysis.discerning;
      check_level "recording" a.Analysis.recording)
    job_counts

let test_deadline_honesty () =
  (* Whatever the budget, a cut analysis never claims more than the uncut
     one, and an [Exact] status is only ever the true value. *)
  let seq = Numbers.analyze ~cap:4 Gallery.x4_witness in
  Pool.with_pool ~jobs:2 @@ fun pool ->
  List.iter
    (fun budget ->
      let a =
        Engine.analyze
          ~config:(Api.Config.v ~cap:4 ~deadline:budget ())
          pool Gallery.x4_witness
      in
      let sub name (cut : Analysis.level) (full : Analysis.level) =
        check_bool
          (Printf.sprintf "%s at %.3fs never exceeds the uncut level" name budget)
          true
          (cut.Analysis.value <= full.Analysis.value);
        if cut.Analysis.status = Analysis.Exact then
          check_int
            (Printf.sprintf "%s at %.3fs: Exact is the true value" name budget)
            full.Analysis.value cut.Analysis.value
      in
      sub "discerning" a.Analysis.discerning seq.Analysis.discerning;
      sub "recording" a.Analysis.recording seq.Analysis.recording)
    [ 0.001; 0.02; 1000.0 ]

let test_expired_outcome_not_cached () =
  Pool.with_pool ~jobs:1 @@ fun pool ->
  let cache = Engine.Cache.create () in
  (match
     Engine.search_within ~cache
       ~config:(Api.Config.v ~deadline:(-1.0) ())
       pool Decide.Discerning Gallery.test_and_set ~n:2
   with
  | Engine.Expired -> ()
  | _ -> Alcotest.fail "already-expired deadline must report Expired");
  (* The expired sweep published nothing: the next query computes for real. *)
  (match
     Engine.search_within ~cache ~config:Api.Config.default pool Decide.Discerning
       Gallery.test_and_set ~n:2
   with
  | Engine.Found _ -> ()
  | _ -> Alcotest.fail "test-and-set is 2-discerning");
  let s = Engine.Cache.stats cache in
  check_int "no outcome was served from the expired sweep" 0 s.Engine.Cache.hits

let test_expired_deadline_portfolio () =
  let space = { Synth.num_values = 5; num_rws = 4; num_responses = 5 } in
  Pool.with_pool ~jobs:2 @@ fun pool ->
  check_bool "expired deadline launches no climbs" true
    (Engine.synth_portfolio ~portfolio:3
       ~config:(Api.Config.v ~deadline:(-1.0) ())
       pool ~target:4 space
    = None)

(* ------------------------------------------------------------------ *)
(* Closure cache *)

let test_cache_second_query_is_free () =
  Pool.with_pool ~jobs:1 @@ fun pool ->
  let cache = Engine.Cache.create () in
  (* The schedule memo feeds the reference decider (the kernel shares
     compiled tries internally), so this pin runs the reference path. *)
  let kernel = Kernel.Reference in
  let a1 =
    Engine.analyze ~cache ~config:(Api.Config.v ~cap:3 ~kernel ()) pool
      Gallery.test_and_set
  in
  let s1 = Engine.Cache.stats cache in
  check_bool "first analysis computes outcomes" true (s1.Engine.Cache.misses > 0);
  check_int "no outcome hits yet" 0 s1.Engine.Cache.hits;
  check_int "schedule sets enumerated once per n (n = 2, 3)" 2
    s1.Engine.Cache.sched_misses;
  let a2 =
    Engine.analyze ~cache ~config:(Api.Config.v ~cap:3 ~kernel ()) pool
      Gallery.test_and_set
  in
  let s2 = Engine.Cache.stats cache in
  check_int "second analysis recomputes nothing" s1.Engine.Cache.misses
    s2.Engine.Cache.misses;
  check_int "every query served from the memo" s1.Engine.Cache.misses
    s2.Engine.Cache.hits;
  check_int "no schedule re-enumeration" s1.Engine.Cache.sched_misses
    s2.Engine.Cache.sched_misses;
  check_bool "identical analyses" true (Analysis.equal a1 a2)

let test_cache_parity_across_jobs () =
  let seq = Numbers.analyze ~cap:4 Gallery.x4_witness in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs @@ fun pool ->
      let cache = Engine.Cache.create () in
      let cached = Engine.analyze ~cache ~config:(Api.Config.v ~cap:4 ()) pool Gallery.x4_witness in
      check_bool
        (Printf.sprintf "jobs=%d cached analysis parity" jobs)
        true (Analysis.equal seq cached))
    job_counts

let test_cache_stats_invariant_concurrent () =
  (* Many domains hammer one cache with the same handful of queries: races
     between probe and publish are guaranteed.  Once quiescent, every probe
     must be accounted to exactly one bucket — hits + misses + expired =
     probes — and misses must equal the number of distinct keys, never
     more: a publish that lost the race is a late hit, not a second miss
     (the double-count this pins against), and Expired probes land in
     their own bucket rather than vanishing. *)
  let cache = Engine.Cache.create () in
  let queries =
    [
      (Decide.Discerning, Gallery.test_and_set, 2);
      (Decide.Discerning, Gallery.test_and_set, 3);
      (Decide.Recording, Gallery.test_and_set, 2);
      (Decide.Discerning, Gallery.team_ladder ~cap:2, 2);
      (Decide.Recording, Gallery.team_ladder ~cap:2, 2);
    ]
  in
  let rounds = 20 in
  let domains = 4 in
  let worker () =
    Pool.with_pool ~jobs:1 @@ fun pool ->
    for _ = 1 to rounds do
      List.iter
        (fun (condition, ty, n) ->
          ignore
            (Engine.search_within ~cache ~config:Api.Config.default pool condition ty
               ~n))
        queries
    done
  in
  let handles = List.init (domains - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join handles;
  let s = Engine.Cache.stats cache in
  check_int "every probe accounted"
    s.Engine.Cache.probes
    (s.Engine.Cache.hits + s.Engine.Cache.misses + s.Engine.Cache.expired);
  check_int "one probe per query" (rounds * domains * List.length queries)
    s.Engine.Cache.probes;
  check_int "one miss per distinct key, even under races"
    (List.length queries) s.Engine.Cache.misses;
  check_int "no expired probes without a deadline" 0 s.Engine.Cache.expired

let test_cache_expired_probes_accounted () =
  (* Expired probes used to be counted nowhere; now they are their own
     bucket and the invariant still sums. *)
  Pool.with_pool ~jobs:1 @@ fun pool ->
  let cache = Engine.Cache.create () in
  for _ = 1 to 3 do
    match
      Engine.search_within ~cache
        ~config:(Api.Config.v ~deadline:(-1.0) ())
        pool Decide.Discerning Gallery.test_and_set ~n:2
    with
    | Engine.Expired -> ()
    | _ -> Alcotest.fail "already-expired deadline must report Expired"
  done;
  ignore
    (Engine.search_within ~cache ~config:Api.Config.default pool Decide.Discerning
       Gallery.test_and_set ~n:2);
  let s = Engine.Cache.stats cache in
  check_int "expired bucket counts the cut sweeps" 3 s.Engine.Cache.expired;
  check_int "completed sweep is one miss" 1 s.Engine.Cache.misses;
  check_int "invariant holds with expired probes"
    s.Engine.Cache.probes
    (s.Engine.Cache.hits + s.Engine.Cache.misses + s.Engine.Cache.expired)

(* ------------------------------------------------------------------ *)
(* Synthesis portfolio *)

let test_synth_portfolio_parity () =
  let space = { Synth.num_values = 5; num_rws = 4; num_responses = 5 } in
  let reference = Synth.search ~seed:1 ~max_iterations:2_000 ~target:4 space in
  check_bool "reference search finds a witness" true (reference <> None);
  let reference = Option.get reference in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs @@ fun pool ->
      match
        Engine.synth_portfolio ~seed:1 ~max_iterations:2_000 ~portfolio:3
          ~config:Api.Config.default pool ~target:4 space
      with
      | None -> Alcotest.fail "portfolio found no witness"
      | Some w ->
          check_bool
            (Printf.sprintf "jobs=%d returns the lowest-seed witness" jobs)
            true
            (Objtype.equal_behaviour w.Synth.objtype reference.Synth.objtype))
    [ 1; 2 ];
  check_bool "portfolio = 0 rejected" true
    (try
       Pool.with_pool ~jobs:1 @@ fun pool ->
       ignore
         (Engine.synth_portfolio ~portfolio:0 ~config:Api.Config.default pool ~target:4
            space);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Configuration *)

let test_default_jobs_env () =
  Unix.putenv "RCN_JOBS" "3";
  check_int "RCN_JOBS overrides" 3 (Engine.default_jobs ());
  Unix.putenv "RCN_JOBS" "zero";
  check_bool "unusable RCN_JOBS rejected" true
    (try
       ignore (Engine.default_jobs ());
       false
     with Invalid_argument _ -> true);
  Unix.putenv "RCN_JOBS" "1";
  check_int "restored" 1 (Engine.default_jobs ())

(* A sampled census is an engine rank space: the seeded draws decide to
   the same histogram at every job count, and it is the histogram the
   sequential sampler always produced for (500, 42) on {3,2,2}.  [sym]
   does not apply to a sample: no classes are built. *)
let test_census_sample_pinned () =
  let space = { Synth.num_values = 3; num_rws = 2; num_responses = 2 } in
  let expected = [ (1, 1, 44); (2, 1, 345); (2, 2, 67); (3, 2, 5); (4, 4, 39) ] in
  List.iter
    (fun (jobs, sym) ->
      let obs = Obs.create () in
      let run =
        Pool.with_pool ~jobs @@ fun pool ->
        Engine.census ~obs ~sample:(500, 42) ~config:(Api.Config.v ~cap:4 ~sym ()) pool
          space
      in
      let label = Printf.sprintf "jobs %d sym %b" jobs sym in
      check_int (label ^ ": no classes built") 0
        (Obs.Metrics.Counter.value (Obs.counter obs "sym.classes"));
      check_int (label ^ ": census.tables") 500
        (Obs.Metrics.Counter.value (Obs.counter obs "census.tables"));
      check_bool (label ^ ": histogram") true
        (List.map
           (fun (e : Census.entry) -> (e.Census.discerning, e.Census.recording, e.Census.count))
           run.Engine.entries
        = expected);
      check_int (label ^ ": total is the sample") 500 run.Engine.total;
      check_bool (label ^ ": complete") true run.Engine.complete)
    [ (1, false); (2, false); (1, true) ]

(* A census steps each per-n kernel along a chain of tables that starts
   at the first rank of every 32-rank pool chunk, so the decide.*
   counters depend on the chunk layout only, never on which domain ran a
   chunk: they must be equal at jobs 1 and 2, and the histogram must be
   the sequential census' ([Census.levels] over the same tables, which is
   [Census.exhaustive] on all of {2,2,2}) — on {2,2,2} and on a 500-draw
   {3,2,2} sample.  The chain must fold less than deciding every table
   on its own. *)
let test_census_chain_counts () =
  let counters =
    [ "decide.kernel_evals"; "decide.partitions_pruned"; "decide.entries_skipped" ]
  in
  let value obs c = Obs.Metrics.Counter.value (Obs.counter obs c) in
  List.iter
    (fun (label, space, sample) ->
      let run jobs =
        let obs = Obs.create () in
        let r =
          Pool.with_pool ~jobs @@ fun pool ->
          Engine.census ~obs ?sample ~config:(Api.Config.v ~cap:4 ()) pool space
        in
        (r.Engine.entries, List.map (value obs) counters)
      in
      let h1, c1 = run 1 and h2, c2 = run 2 in
      List.iter2
        (fun name (a, b) -> check_int (Printf.sprintf "%s: %s at jobs 1 and 2" label name) a b)
        counters (List.combine c1 c2);
      (* the same tables one by one: reference levels, unchained folds *)
      let rs = Engine.census_ranks ?sample ~sym:false space in
      let obs = Obs.create () and cache = Engine.Cache.create () in
      let hist = Hashtbl.create 8 in
      for i = 0 to rs.Engine.ranks - 1 do
        let ty = Synth.to_objtype (rs.Engine.genome i) in
        let key = Census.levels ~cap:4 ty in
        check_bool (Printf.sprintf "%s #%d: unchained levels" label i) true
          (Engine.census_levels ~obs cache ~kernel:Kernel.Trie ~cap:4 ty = key);
        Hashtbl.replace hist key (1 + Option.value ~default:0 (Hashtbl.find_opt hist key))
      done;
      let expected = Census.of_histogram hist in
      check_bool (label ^ ": jobs 1 histogram") true (h1 = expected);
      check_bool (label ^ ": jobs 2 histogram") true (h2 = expected);
      check_bool (label ^ ": the chain folds less") true
        (List.hd c1 < value obs "decide.kernel_evals"))
    [
      ("{2,2,2}", { Synth.num_values = 2; num_rws = 2; num_responses = 2 }, None);
      ("{3,2,2} sample", { Synth.num_values = 3; num_rws = 2; num_responses = 2 }, Some (500, 42));
    ]

let suite =
  [
    Alcotest.test_case "pool covers the range exactly once" `Quick test_pool_covers_range;
    Alcotest.test_case "pool is reusable across tasks" `Quick test_pool_reuse;
    Alcotest.test_case "pool propagates exceptions" `Quick test_pool_exception;
    Alcotest.test_case "pool cooperative cancellation" `Quick test_pool_until;
    Alcotest.test_case "pool argument validation" `Quick test_pool_validation;
    Alcotest.test_case "search parity on gallery anchors" `Slow test_search_parity_gallery;
    Alcotest.test_case "kernel modes match the reference at jobs 1/2/4" `Slow
      test_kernel_mode_parity;
    Alcotest.test_case "census parity across kernel modes" `Slow
      test_census_kernel_mode_parity;
    Alcotest.test_case "analyze_all parity on the gallery" `Slow test_analyze_all_gallery_parity;
    Alcotest.test_case "census parity on the 2/2/2 space" `Slow test_census_parity;
    Alcotest.test_case "census checkpoint / resume round-trip" `Slow
      test_census_checkpoint_resume;
    Alcotest.test_case "checkpoint load edge cases" `Quick
      test_checkpoint_load_edge_cases;
    Alcotest.test_case "checkpoint survives truncation at every byte offset" `Slow
      test_checkpoint_truncate_every_offset;
    Alcotest.test_case "checkpointed census records each rank once" `Slow
      test_census_checkpoint_records_once;
    Alcotest.test_case "expired deadline degrades to honest floors" `Quick
      test_expired_deadline_analyze;
    Alcotest.test_case "deadline-cut analyses never overclaim" `Slow
      test_deadline_honesty;
    Alcotest.test_case "expired sweeps are not cached" `Quick
      test_expired_outcome_not_cached;
    Alcotest.test_case "expired deadline skips portfolio climbs" `Quick
      test_expired_deadline_portfolio;
    Alcotest.test_case "closure cache: second query is free" `Quick test_cache_second_query_is_free;
    Alcotest.test_case "cached analysis parity across jobs" `Slow test_cache_parity_across_jobs;
    Alcotest.test_case "cache stats invariant under concurrency" `Slow
      test_cache_stats_invariant_concurrent;
    Alcotest.test_case "expired probes are accounted" `Quick
      test_cache_expired_probes_accounted;
    Alcotest.test_case "synthesis portfolio parity" `Slow test_synth_portfolio_parity;
    Alcotest.test_case "RCN_JOBS handling" `Quick test_default_jobs_env;
    QCheck_alcotest.to_alcotest prop_engine_analyze_parity;
    Alcotest.test_case "sampled census histogram pinned at jobs 1/2" `Quick
      test_census_sample_pinned;
    Alcotest.test_case "census chain counters equal at jobs 1/2" `Quick
      test_census_chain_counts;
  ]
