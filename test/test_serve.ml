(* The daemon end to end, in process: a real Unix-socket listener, real
   connection threads, the scheduler-owned pool, and the persistent
   store underneath.

   The contracts exercised here are the serve tentpole's acceptance
   criteria: concurrent clients with mixed requests all get correct
   answers; a repeat analyze query is served from the store with bytes
   identical to the cold run; the store log survives a torn tail (the
   kill -9 shape) and a restarted daemon keeps serving the pinned
   results; a stopped daemon refuses new work and exits cleanly. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let with_tmpdir f =
  let dir = Filename.temp_file "rcn-serve" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> try Sys.remove (Filename.concat dir n) with _ -> ()) (Sys.readdir dir);
      try Unix.rmdir dir with _ -> ())
    (fun () -> f dir)

(* Start a daemon, run [f socket], stop the daemon and join its thread.
   Returns [f]'s result after a clean shutdown. *)
let with_daemon ?queue_limit ~dir f =
  let socket = Filename.concat dir "rcn.sock" in
  let store = Filename.concat dir "rcn.store" in
  let obs = Obs.create () in
  let daemon = Serve.create ?queue_limit ~jobs:2 ~obs ~socket ~store () in
  let runner = Thread.create Serve.run daemon in
  let result =
    Fun.protect
      ~finally:(fun () ->
        Serve.stop daemon;
        Thread.join runner)
      (fun () -> f ~obs ~socket)
  in
  check_bool "socket removed on shutdown" false (Sys.file_exists socket);
  result

let analyze_request ?(cap = 3) ty =
  Api.Request.Analyze
    { spec = Objtype.to_spec_string ty; config = Api.Config.v ~cap () }

let call socket req =
  match Client.one_shot ~socket req with
  | Ok resp -> resp
  | Error e -> Alcotest.failf "transport failure: %s" e

let analysis_bytes = function
  | { Api.Response.body = Api.Response.Analysis { analysis; from_store }; _ } ->
      (Wire.to_string (Api.analysis_to_json analysis), from_store)
  | r -> Alcotest.failf "not an analysis response: %s" (Api.Response.to_string r)

let test_single_client_basics () =
  with_tmpdir @@ fun dir ->
  with_daemon ~dir @@ fun ~obs:_ ~socket ->
  (match call socket Api.Request.Ping with
  | { Api.Response.body = Api.Response.Pong; _ } -> ()
  | r -> Alcotest.failf "ping got %s" (Api.Response.to_string r));
  (* Cold analyze computes; the repeat is a store hit, byte-identical. *)
  let cold = call socket (analyze_request Gallery.test_and_set) in
  let cold_bytes, cold_from_store = analysis_bytes cold in
  check_bool "cold run is not a store hit" false cold_from_store;
  let warm = call socket (analyze_request Gallery.test_and_set) in
  let warm_bytes, warm_from_store = analysis_bytes warm in
  check_bool "repeat query is served from the store" true warm_from_store;
  check_string "store replay is byte-identical" cold_bytes warm_bytes;
  (* A different cap is a different content address: computed, not hit. *)
  let other = call socket (analyze_request ~cap:2 Gallery.test_and_set) in
  check_bool "different cap misses the store" false (snd (analysis_bytes other));
  (* Metrics arrive as an embedded rcn_stats object counting the hit. *)
  (match call socket Api.Request.Metrics with
  | { Api.Response.body = Api.Response.Metrics json; _ } -> (
      check_bool "stats tag present" true
        (match Wire.member "rcn_stats" json with Some (Wire.Int 1) -> true | _ -> false);
      match Wire.member "counters" json with
      | Some (Wire.Obj counters) ->
          check_bool "store.hits counter is nonzero" true
            (match List.assoc_opt "store.hits" counters with
            | Some (Wire.Int n) -> n > 0
            | _ -> false)
      | _ -> Alcotest.fail "metrics reply has no counters object")
  | r -> Alcotest.failf "metrics got %s" (Api.Response.to_string r));
  (* An invalid config is refused with the CLI's usage exit code. *)
  let bad =
    call socket
      (Api.Request.Analyze
         {
           spec = Objtype.to_spec_string Gallery.test_and_set;
           config = { Api.Config.default with cap = 1 };
         })
  in
  check_int "invalid config is exit 2" 2 (Api.Response.exit_code bad);
  (* A malformed spec is an error response, not a dead connection. *)
  let broken =
    call socket (Api.Request.Analyze { spec = "nonsense"; config = Api.Config.default })
  in
  check_bool "malformed spec is an error response" true
    (match broken.Api.Response.body with Api.Response.Error _ -> true | _ -> false)

let test_mixed_requests_run () =
  with_tmpdir @@ fun dir ->
  with_daemon ~dir @@ fun ~obs:_ ~socket ->
  let space = { Synth.num_values = 2; num_rws = 2; num_responses = 2 } in
  (match
     call socket
       (Api.Request.Census
          {
            space;
            sample = None;
            seed = 0;
            checkpoint = None;
            resume = false;
            durable = false;
            config = Api.Config.v ~cap:3 ();
          })
   with
  | { Api.Response.body = Api.Response.Census summary; _ } as r ->
      check_bool "census complete" true summary.Api.Response.complete;
      check_int "census covers the space" (Census.space_size space)
        summary.Api.Response.completed;
      check_int "complete census exits 0" 0 (Api.Response.exit_code r);
      check_bool "histogram matches the sequential census" true
        (summary.Api.Response.entries = Census.exhaustive ~cap:3 space)
  | r -> Alcotest.failf "census got %s" (Api.Response.to_string r));
  (* Sampled census: bounded work on a daemon, deterministic for a seed. *)
  (match
     call socket
       (Api.Request.Census
          {
            space;
            sample = Some 16;
            seed = 5;
            checkpoint = None;
            resume = false;
            durable = false;
            config = Api.Config.v ~cap:3 ();
          })
   with
  | { Api.Response.body = Api.Response.Census summary; _ } ->
      check_int "sampled census counts its sample" 16 summary.Api.Response.completed;
      check_bool "sampled census is complete" true summary.Api.Response.complete
  | r -> Alcotest.failf "sampled census got %s" (Api.Response.to_string r));
  match
    call socket
      (Api.Request.Synth
         {
           space = { Synth.num_values = 5; num_rws = 4; num_responses = 5 };
           target = 4;
           seed = 1;
           iterations = 2000;
           restart_every = None;
           portfolio = 2;
           config = Api.Config.default;
         })
  with
  | { Api.Response.body = Api.Response.Synth { witness = Some w }; _ } ->
      check_bool "synth witness verifies" true
        (Synth.verify_witness ~target:4 w.Synth.objtype)
  | r -> Alcotest.failf "synth got %s" (Api.Response.to_string r)

let test_concurrent_clients () =
  (* N threads hammer the daemon with interleaved pings, analyzes and
     repeats.  Every thread must see the same analysis bytes for the
     same query, and by the end the repeats are store hits. *)
  with_tmpdir @@ fun dir ->
  let types = [ Gallery.test_and_set; Gallery.team_ladder ~cap:2; Gallery.register 2 ] in
  let reference = List.map (Numbers.analyze ~cap:3) types in
  with_daemon ~dir @@ fun ~obs ~socket ->
  let n_threads = 6 and rounds = 3 in
  let failures = Atomic.make 0 in
  let fail_once () = Atomic.incr failures in
  (* Every response's canonical bytes, per type, across all threads:
     the store replay contract says each type has exactly one byte
     string, whoever asks and whenever.  ([elapsed] is wall-clock, so
     equality against an out-of-daemon encoding is *not* expected —
     [Analysis.equal] covers the semantics, the byte sets the replay.) *)
  let seen = Array.make (List.length types) [] in
  let seen_m = Mutex.create () in
  let record j bytes =
    Mutex.protect seen_m (fun () ->
        if not (List.mem bytes seen.(j)) then seen.(j) <- bytes :: seen.(j))
  in
  let worker i () =
    Client.with_client socket @@ fun client ->
    for round = 1 to rounds do
      (match Client.call client Api.Request.Ping with
      | Ok { Api.Response.body = Api.Response.Pong; _ } -> ()
      | _ -> fail_once ());
      let indexed = List.mapi (fun j ty -> (j, ty)) types in
      List.iter
        (fun (j, ty) ->
          match Client.call client (analyze_request ty) with
          | Ok
              ({ Api.Response.body = Api.Response.Analysis { analysis; _ }; _ } as r)
            ->
              record j (fst (analysis_bytes r));
              if not (Analysis.equal analysis (List.nth reference j)) then fail_once ()
          | _ -> fail_once ())
        (if (i + round) mod 2 = 0 then indexed else List.rev indexed)
    done
  in
  let threads = List.init n_threads (fun i -> Thread.create (worker i) ()) in
  List.iter Thread.join threads;
  check_int "every concurrent response matched the sequential reference" 0
    (Atomic.get failures);
  Array.iteri
    (fun j bytes ->
      check_int
        (Printf.sprintf "type %d: one byte string across every client" j)
        1 (List.length bytes))
    seen;
  let hits = Obs.Metrics.Counter.value (Obs.counter obs "store.hits") in
  check_bool
    (Printf.sprintf "repeat queries hit the store (%d hits)" hits)
    true
    (hits >= (n_threads * rounds * List.length types) - List.length types);
  check_int "the store holds one record per distinct query" (List.length types)
    (Obs.Metrics.Counter.value (Obs.counter obs "store.puts"))

let test_store_survives_restart_and_torn_tail () =
  with_tmpdir @@ fun dir ->
  let store_path = Filename.concat dir "rcn.store" in
  (* First daemon: compute and persist. *)
  let cold_bytes =
    with_daemon ~dir @@ fun ~obs:_ ~socket ->
    fst (analysis_bytes (call socket (analyze_request Gallery.x4_witness)))
  in
  (* Crash shape: a torn half-record appended to the log, as a daemon
     killed mid-put leaves. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 store_path in
  output_string oc "rcnstore3 deadbeef 999 00000000\ntorn";
  close_out oc;
  (* Second daemon: recovery must drop the tail, keep the record, and
     serve the repeat from the store byte-identically. *)
  with_daemon ~dir @@ fun ~obs ~socket ->
  let warm = call socket (analyze_request Gallery.x4_witness) in
  let warm_bytes, from_store = analysis_bytes warm in
  check_bool "restarted daemon serves from the recovered store" true from_store;
  check_string "bytes identical across restart and crash" cold_bytes warm_bytes;
  check_bool "the torn tail was counted" true
    (Obs.Metrics.Counter.value (Obs.counter obs "store.torn_bytes") > 0)

let test_stopped_daemon_refuses_engine_work () =
  with_tmpdir @@ fun dir ->
  let socket = Filename.concat dir "rcn.sock" in
  let store = Filename.concat dir "rcn.store" in
  let daemon = Serve.create ~jobs:1 ~socket ~store () in
  let runner = Thread.create Serve.run daemon in
  (match call socket Api.Request.Ping with
  | { Api.Response.body = Api.Response.Pong; _ } -> ()
  | r -> Alcotest.failf "ping got %s" (Api.Response.to_string r));
  Serve.stop daemon;
  Thread.join runner;
  (* The socket is gone: connecting now fails at the transport. *)
  check_bool "stopped daemon is unreachable" true
    (match Client.one_shot ~socket Api.Request.Ping with
    | Error _ -> true
    | Ok _ -> false
    | exception Unix.Unix_error _ -> true)

let test_raw_frame_protocol () =
  (* Drive the wire by hand (what tools/serve_client.ml does): a frame
     is the ASCII payload length, a newline, and the payload. *)
  with_tmpdir @@ fun dir ->
  with_daemon ~dir @@ fun ~obs:_ ~socket ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let payload = Api.Request.to_string Api.Request.Ping in
  let frame = Printf.sprintf "%d\n%s" (String.length payload) payload in
  ignore (Unix.write_substring fd frame 0 (String.length frame));
  (match Frame.read fd with
  | Frame.Frame reply ->
      check_string "raw pong reply" reply
        (Api.Response.to_string (Api.Response.make Api.Response.Pong))
  | _ -> Alcotest.fail "no framed reply");
  (* Garbage payloads get a framed error, not a hangup. *)
  let junk = "12\nthis-is-junk" in
  ignore (Unix.write_substring fd junk 0 (String.length junk));
  match Frame.read fd with
  | Frame.Frame reply -> (
      match Api.Response.of_string reply with
      | Ok { Api.Response.body = Api.Response.Error _; _ } -> ()
      | _ -> Alcotest.fail "junk should produce an error response")
  | _ -> Alcotest.fail "no framed error reply"

(* Census and synth results are memoized like analyses: the cold run
   publishes its canonical body bytes to the store, the warm repeat
   replays them byte-identically, and a deadline-bearing query (whose
   result is timing-dependent) never touches the store. *)
let test_census_synth_memoized () =
  with_tmpdir @@ fun dir ->
  with_daemon ~dir @@ fun ~obs ~socket ->
  let space = { Synth.num_values = 2; num_rws = 2; num_responses = 2 } in
  let census_req ?deadline () =
    Api.Request.Census
      {
        space;
        sample = None;
        seed = 0;
        checkpoint = None;
        resume = false;
        durable = false;
        config = Api.Config.v ~cap:3 ?deadline ();
      }
  in
  let census_bytes = function
    | { Api.Response.body = Api.Response.Census c; _ } ->
        Wire.to_string (Api.Response.census_summary_to_json c)
    | r -> Alcotest.failf "not a census response: %s" (Api.Response.to_string r)
  in
  let puts () = Obs.Metrics.Counter.value (Obs.counter obs "store.puts") in
  let cold = census_bytes (call socket (census_req ())) in
  check_int "cold census published one record" 1 (puts ());
  let warm = census_bytes (call socket (census_req ())) in
  check_string "warm census replays the cold bytes" cold warm;
  check_int "warm census published nothing" 1 (puts ());
  (* A sampled run is its own query — and is memoized too, being
     deterministic in (sample, seed). *)
  let sampled seed =
    census_bytes
      (call socket
         (Api.Request.Census
            {
              space;
              sample = Some 16;
              seed;
              checkpoint = None;
              resume = false;
              durable = false;
              config = Api.Config.v ~cap:3 ();
            }))
  in
  let s_cold = sampled 7 in
  check_int "sampled census published its own record" 2 (puts ());
  check_string "sampled census replays byte-identically" s_cold (sampled 7);
  check_int "sampled replay published nothing" 2 (puts ());
  (* A deadline-bearing census bypasses the store entirely: no new
     record even though it completed. *)
  let deadline = census_bytes (call socket (census_req ~deadline:60.0 ())) in
  check_int "deadline census is never published" 2 (puts ());
  check_bool "deadline census still computes" true (String.length deadline > 0);
  (* Synth: cold computes and publishes; warm replays the witness
     byte-identically (including its schedule trace). *)
  let synth_req () =
    Api.Request.Synth
      {
        space = { Synth.num_values = 5; num_rws = 4; num_responses = 5 };
        target = 4;
        seed = 1;
        iterations = 2000;
        restart_every = None;
        portfolio = 2;
        config = Api.Config.default;
      }
  in
  let synth_bytes = function
    | { Api.Response.body = Api.Response.Synth { witness }; _ } ->
        Wire.to_string (Api.Response.witness_opt_to_json witness)
    | r -> Alcotest.failf "not a synth response: %s" (Api.Response.to_string r)
  in
  let synth_cold = synth_bytes (call socket (synth_req ())) in
  check_int "cold synth published one record" 3 (puts ());
  check_string "warm synth replays the cold bytes" synth_cold
    (synth_bytes (call socket (synth_req ())));
  check_int "warm synth published nothing" 3 (puts ())

(* Satellite: the daemon must survive arbitrary bytes on the wire — a
   fuzzing client can never crash it, hang it, or wedge the listener.
   Every adversarial connection is drained to EOF under a timeout, and
   the daemon must still answer a well-formed ping afterwards. *)
let test_frame_robustness () =
  with_tmpdir @@ fun dir ->
  with_daemon ~dir @@ fun ~obs ~socket ->
  (* Write [bytes], half-close, and drain whatever the daemon replies.
     Returns true iff the daemon closed the connection (no hang). *)
  let poke bytes =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
    @@ fun () ->
    Unix.connect fd (Unix.ADDR_UNIX socket);
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
    (try ignore (Unix.write_substring fd bytes 0 (String.length bytes))
     with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
    (try Unix.shutdown fd Unix.SHUTDOWN_SEND
     with Unix.Unix_error _ -> ());
    let buf = Bytes.create 4096 in
    let rec drain () =
      match Unix.read fd buf 0 4096 with
      | 0 -> true
      | _ -> drain ()
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          false (* timeout: the daemon is hanging on to a dead client *)
    in
    drain ()
  in
  let alive label =
    match Client.one_shot ~socket Api.Request.Ping with
    | Ok { Api.Response.body = Api.Response.Pong; _ } -> ()
    | _ -> Alcotest.failf "daemon unresponsive after %s" label
  in
  (* The known adversarial shapes, each followed by a liveness probe. *)
  List.iter
    (fun (label, bytes) ->
      check_bool (label ^ " is drained to EOF") true (poke bytes);
      alive label)
    [
      ("an immediate EOF", "");
      ("header garbage", "this is not a frame at all");
      ("a binary blob", "\x00\xff\x7f\x01\n\x00garbage");
      ("a truncated payload", "100\nonly a few bytes");
      ("a negative length", "-5\nxx");
      ("an oversized length", "999999999\n");
      ("a non-numeric length", "twelve\npayload");
      ("an overlong header", String.make 64 '1' ^ "\n");
      ("junk JSON in a valid frame", "13\nthis-is-junk!");
      ( "a valid ping then garbage",
        (let p = Api.Request.to_string Api.Request.Ping in
         Printf.sprintf "%d\n%s@@broken@@" (String.length p) p) );
    ];
  check_bool "bad frames were counted" true
    (Obs.Metrics.Counter.value (Obs.counter obs "serve.bad_frames") > 0);
  (* And the property at large: random byte strings, with newlines and
     digits frequent enough to explore the framing state machine. *)
  let gen =
    QCheck.Gen.(
      string_size ~gen:(frequency [ (8, char); (2, oneofl [ '\n'; '0'; '1'; '9' ]) ])
        (0 -- 128))
  in
  let prop s =
    if not (poke s) then QCheck.Test.fail_reportf "daemon hung on %S" s;
    (match Client.one_shot ~socket Api.Request.Ping with
    | Ok { Api.Response.body = Api.Response.Pong; _ } -> ()
    | _ -> QCheck.Test.fail_reportf "daemon died after %S" s);
    true
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:60 ~name:"random bytes never wedge the daemon"
       (QCheck.make gen) prop)

(* The shipped binary, run silently; returns its exit code. *)
let cli args =
  let rcn = Filename.concat (Filename.dirname Sys.executable_name) "../bin/rcn.exe" in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process rcn (Array.of_list (rcn :: args)) Unix.stdin null null in
  Unix.close null;
  match Unix.waitpid [] pid with _, Unix.WEXITED code -> code | _ -> -1

(* The shipped binary with its stderr kept (in a file under [dir]);
   returns its exit code and what it printed there. *)
let cli_stderr ~dir args =
  let err = Filename.concat dir "stderr.txt" in
  let rcn = Filename.concat (Filename.dirname Sys.executable_name) "../bin/rcn.exe" in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let pid = Unix.create_process rcn (Array.of_list (rcn :: args)) Unix.stdin null fd in
  Unix.close null;
  Unix.close fd;
  let code = match Unix.waitpid [] pid with _, Unix.WEXITED c -> c | _ -> -1 in
  (code, In_channel.with_open_bin err In_channel.input_all)

(* Malformed census and synth spaces are usage errors on every surface:
   the daemon answers [err_invalid] with [Api.Request.validate]'s
   message, and the CLI exits 2 — with [--workers] too, which bypasses
   the dispatcher.  So are checkpoint flags that would be silently
   ignored.  A removed kernel mode is a cmdliner usage error. *)
let test_malformed_requests_rejected () =
  let space (v, r, p) = { Synth.num_values = v; num_rws = r; num_responses = p } in
  let config = Api.Config.v ~cap:2 () in
  let census ?sample ?checkpoint ?(resume = false) ?(durable = false) dims =
    Api.Request.Census
      { space = space dims; sample; seed = 1; checkpoint; resume; durable; config }
  in
  with_tmpdir @@ fun dir ->
  with_daemon ~dir @@ fun ~obs:_ ~socket ->
  let rejected label req args =
    (match (Api.Request.validate req, call socket req) with
    | Error msg, { Api.Response.body = Api.Response.Error { code; message }; _ } ->
        check_int (label ^ ": err_invalid") Api.Response.err_invalid code;
        check_string (label ^ ": the validator's message") msg message
    | _, r -> Alcotest.failf "%s: got %s" label (Api.Response.to_string r));
    check_int (label ^ ": CLI exit") 2 (cli args)
  in
  List.iter
    (fun (label, sample, ((v, r, p) as dims)) ->
      let args =
        "census" :: Printf.sprintf "--values=%d" v :: Printf.sprintf "--rws=%d" r
        :: Printf.sprintf "--responses=%d" p
        :: Option.to_list (Option.map (Printf.sprintf "--sample=%d") sample)
      in
      rejected label (census ?sample dims) args;
      if sample = None then
        check_int (label ^ ": CLI exit with --workers") 2 (cli (args @ [ "--workers=1" ])))
    [
      ("zero responses", None, (2, 2, 0));
      ("negative sample", Some (-5), (2, 2, 2));
      ("one value", None, (1, 2, 2));
      ("overflowing space", None, (9, 9, 9));
    ];
  (* Checkpoint flags that would be silently ignored: a sampled census
     has no sweep to checkpoint, and resume/durable need a file. *)
  let ckpt = Filename.concat dir "never-written.ckpt" in
  List.iter
    (fun (label, req, args) ->
      rejected label req ("census" :: "--values=2" :: "--rws=2" :: "--responses=2" :: args);
      check_bool (label ^ ": no file written") false (Sys.file_exists ckpt))
    [
      ( "sample with checkpoint",
        census ~sample:10 ~checkpoint:ckpt (2, 2, 2),
        [ "--sample=10"; "--checkpoint=" ^ ckpt ] );
      ( "sample with resume",
        census ~sample:10 ~checkpoint:ckpt ~resume:true (2, 2, 2),
        [ "--sample=10"; "--checkpoint=" ^ ckpt; "--resume" ] );
      ( "sample with durable",
        census ~sample:10 ~checkpoint:ckpt ~durable:true (2, 2, 2),
        [ "--sample=10"; "--checkpoint=" ^ ckpt; "--durable" ] );
      ("resume without checkpoint", census ~resume:true (2, 2, 2), [ "--resume" ]);
      ("durable without checkpoint", census ~durable:true (2, 2, 2), [ "--durable" ]);
    ];
  check_int "resume without a ledger: CLI exit with --workers" 2
    (cli [ "census"; "--values=2"; "--rws=2"; "--responses=2"; "--resume"; "--workers=1" ]);
  rejected "synth zero responses"
    (Api.Request.Synth
       { space = space (2, 2, 0); target = 4; seed = 1; iterations = 10;
         restart_every = None; portfolio = 1; config })
    [ "synth"; "--responses=0" ];
  check_int "removed kernel mode: CLI exit" 124
    (cli [ "analyze"; "test-and-set"; "--kernel"; "tables" ]);
  check_bool "a sampled census of a huge space validates" true
    (Result.is_ok (Api.Request.validate (census ~sample:2 (9, 9, 9))))

(* A progress file that cannot be opened, or whose replay finds
   corruption, is a storage failure (exit 74) on both census paths —
   the in-process checkpoint and the [--workers] ledger — never an
   internal error. *)
let test_bad_progress_files_exit_storage () =
  with_tmpdir @@ fun dir ->
  let corrupt = Filename.concat dir "corrupt.ledger" in
  let space = { Synth.num_values = 2; num_rws = 2; num_responses = 2 } in
  let header = Dist_ledger.Header (Dist_ledger.header ~space ~cap:3 ~total:256 ()) in
  let record = Dist_ledger.Done { lo = 0; hi = 2; entries = [ (2, 2, 2) ] } in
  let bytes = Bytes.of_string (Dist_ledger.encode header ^ Dist_ledger.encode record) in
  (* the first payload byte of the Done record, covered by its CRC *)
  let off = Bytes.index_from bytes (String.length (Dist_ledger.encode header)) '\n' + 1 in
  Bytes.set bytes off (Char.chr (Char.code (Bytes.get bytes off) lxor 1));
  Out_channel.with_open_bin corrupt (fun oc -> Out_channel.output_bytes oc bytes);
  let base = [ "census"; "--values=2"; "--rws=2"; "--responses=2"; "--cap=3" ] in
  List.iter
    (fun (label, path) ->
      check_int (label ^ ": in-process") Api.Response.err_storage
        (cli (base @ [ "--checkpoint=" ^ path; "--resume" ]));
      check_int (label ^ ": with --workers") Api.Response.err_storage
        (cli (base @ [ "--workers=1"; "--ledger=" ^ path; "--resume" ])))
    [
      ("a directory", dir);
      ("a missing directory", "/nonexistent/dir/x.ledger");
      ("a corrupt file", corrupt);
    ]

(* A sampled census honours the config like an exhaustive one: an
   already-expired deadline leaves it PARTIAL (exit 3), and a cut run is
   never published to the store. *)
let test_sampled_census_honours_deadline () =
  with_tmpdir @@ fun dir ->
  let store = Store.open_store (Filename.concat dir "rcn.store") in
  Fun.protect ~finally:(fun () -> Store.close store) @@ fun () ->
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let env = Dispatch.env ~store ~obs:(Obs.create ()) ~command:"census" pool in
  let space = { Synth.num_values = 3; num_rws = 2; num_responses = 2 } in
  let config = Api.Config.v ~cap:4 ~deadline:0. () in
  let resp =
    Dispatch.run env
      (Api.Request.Census
         { space; sample = Some 500; seed = 42; checkpoint = None; resume = false;
           durable = false; config })
  in
  (match resp.Api.Response.body with
  | Api.Response.Census c -> check_bool "not complete" false c.Api.Response.complete
  | _ -> Alcotest.failf "got %s" (Api.Response.to_string resp));
  check_int "exit PARTIAL" 3 (Api.Response.exit_code resp);
  check_bool "no record under the sample's digest" false
    (Store.mem store (Api.census_digest space ~cap:4 ~sample:(Some 500) ~seed:42));
  check_int "nothing published" 0 (Store.size store)

(* A progress file written for another census is the caller's mistake on
   both census paths: the dispatcher answers [err_invalid], and the CLI
   exits 2 with the one message, in process and with [--workers]. *)
let test_foreign_progress_file_is_usage_error () =
  with_tmpdir @@ fun dir ->
  let path = Filename.concat dir "other.ledger" in
  check_int "write the {2,2,2} ledger" 0
    (cli [ "census"; "--values=2"; "--rws=2"; "--responses=2"; "--checkpoint=" ^ path ]);
  let resp =
    Pool.with_pool ~jobs:1 @@ fun pool ->
    Dispatch.run
      (Dispatch.env ~obs:(Obs.create ()) ~command:"census" pool)
      (Api.Request.Census
         { space = { Synth.num_values = 2; num_rws = 2; num_responses = 3 };
           sample = None; seed = 0; checkpoint = Some path; resume = true;
           durable = false; config = Api.Config.default })
  in
  let message =
    match resp.Api.Response.body with
    | Api.Response.Error { code; message } ->
        check_int "dispatch: err_invalid" Api.Response.err_invalid code;
        message
    | _ -> Alcotest.failf "got %s" (Api.Response.to_string resp)
  in
  let base = [ "census"; "--values=2"; "--rws=2"; "--responses=3"; "--resume" ] in
  List.iter
    (fun (label, args) ->
      let code, err = cli_stderr ~dir (base @ args) in
      check_int (label ^ ": exit 2") 2 code;
      check_string (label ^ ": the one message") ("rcn: " ^ message ^ "\n") err)
    [
      ("in-process", [ "--checkpoint=" ^ path ]);
      ("with --workers", [ "--workers=1"; "--ledger=" ^ path ]);
    ]

(* A census larger than its bound is refused before anything is
   allocated for it: an exhaustive one over [Api.Request.max_census_tables]
   ([max_sym_census_tables] under [--sym on]) with a pointer to
   [--sample], a sample over [max_census_tables] draws.  One at the bound
   gets past validation on both CLI paths: {4,2,2} (2^24 tables) is
   taken no further than its progress file — a directory, a storage
   error (exit 74) — so the test never allocates its per-table arrays;
   {5,2,2} under [--sym on] is only validated, never run. *)
let test_oversized_census_is_usage_error () =
  let census ?(sym = false) ?sample (v, r, p) =
    Api.Request.Census
      { space = { Synth.num_values = v; num_rws = r; num_responses = p };
        sample; seed = 0; checkpoint = None; resume = false; durable = false;
        config = { Api.Config.default with sym } }
  in
  let refused req =
    match Api.Request.validate req with Error m -> m | Ok () -> Alcotest.fail "validated"
  in
  let over bound tables =
    Printf.sprintf
      "an exhaustive census of %s tables exceeds the %d-table bound \
       (use --sample N to decide a random sample)"
      tables bound
  in
  let bound = Api.Request.max_census_tables and sym_bound = Api.Request.max_sym_census_tables in
  check_int "{4,2,2} is at the bound" bound
    (Census.space_size { Synth.num_values = 4; num_rws = 2; num_responses = 2 });
  check_bool "{4,2,2} validates" true (Result.is_ok (Api.Request.validate (census (4, 2, 2))));
  let message = refused (census (4, 3, 2)) in
  check_string "the message points to --sample" (over bound "68719476736") message;
  check_string "an overflowing space gets the same pointer"
    (over bound ("more than " ^ string_of_int max_int))
    (refused (census (9, 9, 9)));
  check_bool "a sample at the bound validates" true
    (Result.is_ok (Api.Request.validate (census ~sample:bound (4, 3, 2))));
  let sample_message = refused (census ~sample:(bound + 1) (4, 3, 2)) in
  check_string "a sample over the bound"
    (Printf.sprintf "a sample of %d tables exceeds the %d-table bound" (bound + 1) bound)
    sample_message;
  check_bool "{5,2,2} under --sym on validates" true
    (Result.is_ok (Api.Request.validate (census ~sym:true (5, 2, 2))));
  check_string "{5,2,2} without --sym is over the bound" (over bound "10000000000")
    (refused (census (5, 2, 2)));
  let sym_message = refused (census ~sym:true (4, 3, 2)) in
  check_string "{4,3,2} under --sym on is over the sym bound"
    (over sym_bound "68719476736") sym_message;
  let resp =
    Pool.with_pool ~jobs:1 @@ fun pool ->
    Dispatch.run (Dispatch.env ~obs:(Obs.create ()) ~command:"census" pool) (census (4, 3, 2))
  in
  (match resp.Api.Response.body with
  | Api.Response.Error { code; message = m } ->
      check_int "dispatch: err_invalid" Api.Response.err_invalid code;
      check_string "dispatch: the validator's message" message m
  | _ -> Alcotest.failf "got %s" (Api.Response.to_string resp));
  with_tmpdir @@ fun dir ->
  let space (v, r, p) =
    [ "census"; Printf.sprintf "--values=%d" v; Printf.sprintf "--rws=%d" r;
      Printf.sprintf "--responses=%d" p ]
  in
  List.iter
    (fun (label, progress) ->
      let run ?(extra = []) sp = cli_stderr ~dir (space sp @ ("--resume" :: progress) @ extra) in
      let code, err = run (4, 3, 2) in
      check_int (label ^ ": {4,3,2} exits 2") 2 code;
      check_string (label ^ ": {4,3,2} the one message") ("rcn: " ^ message ^ "\n") err;
      let code, err = run ~extra:[ "--sym=on" ] (4, 3, 2) in
      check_int (label ^ ": {4,3,2} --sym on exits 2") 2 code;
      check_string (label ^ ": {4,3,2} --sym on the one message") ("rcn: " ^ sym_message ^ "\n")
        err;
      check_int (label ^ ": {4,2,2} gets to its progress file") Api.Response.err_storage
        (fst (run (4, 2, 2))))
    [
      ("in-process", [ "--checkpoint=" ^ dir ]);
      ("with --workers", [ "--workers=1"; "--ledger=" ^ dir ]);
    ];
  let sample = Printf.sprintf "--sample=%d" (bound + 1) in
  let code, err = cli_stderr ~dir (space (4, 3, 2) @ [ sample ]) in
  check_int "in-process: an oversized sample exits 2" 2 code;
  check_string "in-process: an oversized sample, the one message"
    ("rcn: " ^ sample_message ^ "\n") err;
  check_int "with --workers: a sample exits 2" 2
    (fst (cli_stderr ~dir (space (4, 3, 2) @ [ sample; "--workers=1" ])))

let suite =
  [
    Alcotest.test_case "malformed requests are usage errors" `Quick
      test_malformed_requests_rejected;
    Alcotest.test_case "single client: store hit is byte-identical" `Quick
      test_single_client_basics;
    Alcotest.test_case "census and synth over the socket" `Slow test_mixed_requests_run;
    Alcotest.test_case "concurrent clients, shared store" `Slow test_concurrent_clients;
    Alcotest.test_case "store survives restart with a torn tail" `Quick
      test_store_survives_restart_and_torn_tail;
    Alcotest.test_case "stopped daemon refuses work" `Quick
      test_stopped_daemon_refuses_engine_work;
    Alcotest.test_case "raw frame protocol" `Quick test_raw_frame_protocol;
    Alcotest.test_case "census and synth replay from the store" `Slow
      test_census_synth_memoized;
    Alcotest.test_case "arbitrary bytes never wedge the daemon" `Slow
      test_frame_robustness;
    Alcotest.test_case "unopenable or corrupt progress files exit 74" `Quick
      test_bad_progress_files_exit_storage;
    Alcotest.test_case "a deadline-cut sampled census is partial and unpublished" `Quick
      test_sampled_census_honours_deadline;
    Alcotest.test_case "a foreign progress file is a usage error on both paths" `Quick
      test_foreign_progress_file_is_usage_error;
    Alcotest.test_case "an oversized exhaustive census is a usage error on both paths" `Quick
      test_oversized_census_is_usage_error;
  ]
