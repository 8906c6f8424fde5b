(* The unified Request/Response API and its canonical wire format.

   Three layers of pins:
   - property tests: encode / decode round-trips, on random configs and
     on real engine results (certificates replay after the trip);
   - golden files (test/golden/, regenerated by tools/gen_golden.ml):
     the canonical bytes of representative requests and responses, so
     any protocol change is a visible diff rather than a silent drift —
     the persistent store replays stored bytes, so canonicality is a
     compatibility contract, not a style choice;
   - the exit-code policy: one table, shared verbatim by the CLI and
     daemon clients. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Wire: canonical JSON *)

let test_wire_canonical_encoding () =
  let v =
    Wire.Obj
      [
        ("b", Wire.Bool true);
        ("a", Wire.Int (-3));
        ("s", Wire.String "q\"\\\n\x01é");
        ("f", Wire.Float 0.1);
        ("g", Wire.Float 2.0);
        ("n", Wire.Null);
        ("l", Wire.List [ Wire.Int 1; Wire.Int 2 ]);
      ]
  in
  (* Field order is the writer's, not sorted; no whitespace; floats are
     shortest-round-trip %.17g with a ".0" marker for integral values. *)
  check_string "canonical object bytes"
    {|{"b":true,"a":-3,"s":"q\"\\\n\u0001é","f":0.10000000000000001,"g":2.0,"n":null,"l":[1,2]}|}
    (Wire.to_string v);
  check_bool "non-finite floats are rejected" true
    (try
       ignore (Wire.to_string (Wire.Float nan));
       false
     with Invalid_argument _ -> true)

let test_wire_parse_strictness () =
  let ok s = Result.is_ok (Wire.of_string s) in
  check_bool "object parses" true (ok {|{"a":[1,2.5,null,true,"x"]}|});
  check_bool "unicode escape parses" true
    (Wire.of_string {|"é"|} = Ok (Wire.String "é"));
  check_bool "trailing whitespace tolerated (files end in newline)" true
    (ok ({|{"a":1}|} ^ "\n"));
  check_bool "trailing garbage rejected" false (ok {|{"a":1}x|});
  check_bool "truncated object rejected" false (ok {|{"a":1|});
  check_bool "bare word rejected" false (ok "tru");
  check_bool "unescaped control rejected" false (ok "\"a\nb\"");
  check_bool "duplicate-safe decode keeps order" true
    (match Wire.of_string {|{"k":1,"k":2}|} with
    | Ok (Wire.Obj [ ("k", Wire.Int 1); ("k", Wire.Int 2) ]) -> true
    | _ -> false)

let test_wire_roundtrip_identity () =
  List.iter
    (fun s ->
      match Wire.of_string s with
      | Error e -> Alcotest.failf "%s does not parse: %s" s e
      | Ok v -> check_string ("round-trip of " ^ s) s (Wire.to_string v))
    [
      "null";
      "true";
      "-42";
      "3.5";
      {|"héllo world"|};
      {|[1,[2,[]],{}]|};
      {|{"a":{"b":[null,false]},"c":"d"}|};
    ]

(* ------------------------------------------------------------------ *)
(* Config round-trips *)

(* Derived from a seed, matching the repo's generator idiom (stable
   across QCheck versions). *)
let random_config seed =
  let rng = Random.State.make [| seed |] in
  let opt g = if Random.State.int rng 3 = 0 then None else Some (g ()) in
  {
    Api.Config.jobs = Random.State.int rng 9;
    cap = 2 + Random.State.int rng 5;
    deadline =
      opt (fun () -> float_of_int (Random.State.int rng 10_000 - 100) /. 64.0);
    kernel =
      (if Random.State.bool rng then Kernel.Reference else Kernel.Trie);
    retries = opt (fun () -> 1 + Random.State.int rng 5);
    heartbeat = opt (fun () -> float_of_int (1 + Random.State.int rng 10_000) /. 128.0);
    chaos_rate = opt (fun () -> float_of_int (Random.State.int rng 1001) /. 1000.0);
    chaos_seed = Random.State.int rng 1_000_000;
    chaos_attempts = 1 + Random.State.int rng 4;
    sym = Random.State.bool rng;
    incremental = Random.State.bool rng;
  }

let config_gen = QCheck.Gen.map random_config QCheck.Gen.int

let config_arbitrary =
  QCheck.make ~print:(fun c -> Wire.to_string (Api.Config.to_json c)) config_gen

let prop_config_roundtrip =
  QCheck.Test.make ~name:"config wire round-trip is the identity" ~count:200
    config_arbitrary (fun c ->
      match Wire.of_string (Wire.to_string (Api.Config.to_json c)) with
      | Error _ -> false
      | Ok json -> (
          match Api.Config.of_json json with
          | Error _ -> false
          | Ok c' ->
              (* Plain data, exact float trip: structural equality holds,
                 and so does byte equality of the re-encoding. *)
              c = c'
              && Wire.to_string (Api.Config.to_json c')
                 = Wire.to_string (Api.Config.to_json c)))

let prop_request_roundtrip =
  QCheck.Test.make ~name:"request wire round-trip is byte-identical" ~count:100
    config_arbitrary (fun config ->
      let space = { Synth.num_values = 3; num_rws = 2; num_responses = 2 } in
      List.for_all
        (fun req ->
          let s = Api.Request.to_string req in
          match Api.Request.of_string s with
          | Error _ -> false
          | Ok req' -> Api.Request.to_string req' = s && req' = req)
        [
          Api.Request.Ping;
          Api.Request.Metrics;
          Api.Request.Analyze
            { spec = Objtype.to_spec_string Gallery.test_and_set; config };
          Api.Request.Census
            {
              space;
              sample = Some 11;
              seed = 3;
              checkpoint = Some "/tmp/x.ckpt";
              resume = true;
              durable = true;
              config;
            };
          Api.Request.Census
            {
              space;
              sample = None;
              seed = 0;
              checkpoint = None;
              resume = false;
              durable = false;
              config;
            };
          Api.Request.Synth
            {
              space;
              target = 4;
              seed = 1;
              iterations = 500;
              restart_every = Some 50;
              portfolio = 2;
              config;
            };
        ])

(* ------------------------------------------------------------------ *)
(* Analysis codec: real results, replayable certificates *)

let roundtrip_analysis ty cap =
  let a = Numbers.analyze ~cap ty in
  let bytes = Wire.to_string (Api.analysis_to_json a) in
  match Result.bind (Wire.of_string bytes) Api.analysis_of_json with
  | Error e -> Alcotest.failf "%s does not decode: %s" ty.Objtype.name e
  | Ok a' ->
      check_string
        (ty.Objtype.name ^ " re-encodes byte-identically")
        bytes
        (Wire.to_string (Api.analysis_to_json a'));
      check_bool (ty.Objtype.name ^ " equal analysis") true (Analysis.equal a a');
      let replay name (l : Analysis.level) check =
        match l.Analysis.certificate with
        | None -> ()
        | Some cert ->
            check_bool
              (Printf.sprintf "%s %s certificate replays after the trip"
                 ty.Objtype.name name)
              true (check cert)
      in
      replay "discerning" a'.Analysis.discerning Certificate.check_discerning;
      replay "recording" a'.Analysis.recording Certificate.check_recording

let test_analysis_codec () =
  roundtrip_analysis Gallery.test_and_set 3;
  roundtrip_analysis (Gallery.team_ladder ~cap:2) 3;
  roundtrip_analysis Gallery.x4_witness 4;
  roundtrip_analysis (Gallery.register 2) 2

let test_response_roundtrip () =
  let bytes r = Api.Response.to_string r in
  let trip r =
    match Api.Response.of_string (bytes r) with
    | Error e -> Alcotest.failf "response does not decode: %s" e
    | Ok r' -> check_string "response re-encodes byte-identically" (bytes r) (bytes r')
  in
  trip (Api.Response.make Api.Response.Pong);
  trip (Api.Response.error "nope");
  trip (Api.Response.error ~code:Api.Response.err_busy "busy");
  trip
    (Api.Response.make ~retries:2 ~watchdog_trips:1
       (Api.Response.Analysis
          { analysis = Numbers.analyze ~cap:3 Gallery.test_and_set; from_store = false }));
  trip
    (Api.Response.make
       (Api.Response.Census
          {
            entries = [ { Census.discerning = 2; recording = 1; count = 12 } ];
            total = 256;
            completed = 200;
            resumed = 44;
            complete = false;
          }));
  trip (Api.Response.make (Api.Response.Synth { witness = None }));
  trip
    (Api.Response.make
       (Api.Response.Synth
          {
            witness =
              Some
                {
                  Synth.objtype = Gallery.x4_witness;
                  discerning_level = 4;
                  recording_level = 2;
                  iterations = 77;
                };
          }))

(* ------------------------------------------------------------------ *)
(* Golden files: the protocol, byte for byte *)

let golden name = In_channel.with_open_bin (Filename.concat "golden" name) In_channel.input_all

let test_golden_requests () =
  let pin name req =
    check_string (name ^ " matches its golden bytes")
      (golden name)
      (Api.Request.to_string req ^ "\n")
  in
  pin "request_ping.json" Api.Request.Ping;
  pin "request_metrics.json" Api.Request.Metrics;
  pin "request_analyze.json"
    (Api.Request.Analyze
       { spec = Objtype.to_spec_string Gallery.test_and_set; config = Api.Config.default });
  pin "request_census.json"
    (Api.Request.Census
       {
         space = { Synth.num_values = 2; num_rws = 2; num_responses = 2 };
         sample = Some 10;
         seed = 7;
         checkpoint = None;
         resume = false;
         durable = false;
         config = Api.Config.v ~jobs:2 ~cap:3 ();
       });
  pin "request_synth.json"
    (Api.Request.Synth
       {
         space = { Synth.num_values = 5; num_rws = 4; num_responses = 5 };
         target = 4;
         seed = 1;
         iterations = 2000;
         restart_every = None;
         portfolio = 3;
         config = Api.Config.v ~deadline:2.5 ~retries:3 ~heartbeat:0.25 ();
       })

let test_golden_responses () =
  check_string "pong golden"
    (golden "response_pong.json")
    (Api.Response.to_string (Api.Response.make Api.Response.Pong) ^ "\n");
  check_string "busy-error golden"
    (golden "response_busy.json")
    (Api.Response.to_string
       (Api.Response.error ~code:Api.Response.err_busy
          "admission queue full (64 waiting)")
    ^ "\n");
  (* The analysis fixtures embed a wall-clock field, so the pin is
     decode-then-re-encode identity on the stored bytes — exactly the
     store-replay contract. *)
  List.iter
    (fun name ->
      let stored = golden name in
      let line = String.sub stored 0 (String.length stored - 1) in
      match Api.Response.of_string line with
      | Ok r -> check_string (name ^ " replays") line (Api.Response.to_string r)
      | Error e -> Alcotest.failf "%s does not decode: %s" name e)
    [ "response_analysis.json"; "response_pong.json"; "response_busy.json" ];
  let stored = golden "analysis_tas_cap3.json" in
  let line = String.sub stored 0 (String.length stored - 1) in
  (match Result.bind (Wire.of_string line) Api.analysis_of_json with
  | Ok a -> check_string "analysis fixture replays" line (Wire.to_string (Api.analysis_to_json a))
  | Error e -> Alcotest.failf "analysis fixture does not decode: %s" e);
  (* from_store is a transport fact, and true in the fixture. *)
  match Api.Response.of_string (String.trim (golden "response_analysis.json")) with
  | Ok { Api.Response.body = Api.Response.Analysis { from_store; _ }; _ } ->
      check_bool "fixture is a store hit" true from_store
  | _ -> Alcotest.fail "response_analysis.json is not an analysis response"

let test_query_digest_pin () =
  check_string "content address of (test-and-set, cap 5)"
    (String.trim (golden "digest_tas_cap5.txt"))
    (Api.query_digest Gallery.test_and_set ~cap:5);
  check_bool "cap is part of the address" true
    (Api.query_digest Gallery.test_and_set ~cap:5
    <> Api.query_digest Gallery.test_and_set ~cap:4);
  check_bool "type is part of the address" true
    (Api.query_digest Gallery.test_and_set ~cap:5
    <> Api.query_digest (Gallery.register 2) ~cap:5)

let test_synth_digest_pin () =
  (* The synth store keys, pinned like the analyze digests: literal
     bytes for one representative each (a silent format drift would
     orphan every stored synth record), parameter sensitivity, and the
     canonical key's one collapse — [restart_every = None] and the
     spelled-out default execute identically, so under [--sym] they
     share a record while the exact key tells them apart. *)
  let space = { Synth.num_values = 5; num_rws = 4; num_responses = 5 } in
  let exact ?restart_every ?(seed = 1) () =
    Api.synth_digest space ~target:4 ~seed ~iterations:50_000 ~restart_every
      ~portfolio:1
  in
  let canonical ?restart_every () =
    Api.synth_digest_canonical space ~target:4 ~seed:1 ~iterations:50_000
      ~restart_every ~portfolio:1
  in
  check_string "exact key bytes (v2)" "bc072ae63220cce8df2bac53a3c5dc1a" (exact ());
  check_string "canonical key bytes (v3)" "cd3662671b70baff5ef5116633594167"
    (canonical ());
  check_bool "seed is part of the address" true (exact () <> exact ~seed:2 ());
  check_bool "exact key distinguishes restart_every spellings" true
    (exact () <> exact ~restart_every:Synth.default_restart_every ());
  check_string "canonical key collapses the default restart_every"
    (canonical ())
    (canonical ~restart_every:Synth.default_restart_every ());
  check_bool "canonical key keeps non-default restart_every" true
    (canonical () <> canonical ~restart_every:999 ());
  check_bool "exact and canonical keyspaces are disjoint" true
    (exact () <> canonical ())

(* ------------------------------------------------------------------ *)
(* Validation and the exit-code policy *)

let test_config_validate () =
  let bad c = Result.is_error (Api.Config.validate c) in
  check_bool "default validates" true
    (Result.is_ok (Api.Config.validate Api.Config.default));
  check_bool "negative jobs rejected" true (bad { Api.Config.default with jobs = -1 });
  check_bool "cap 1 rejected" true (bad { Api.Config.default with cap = 1 });
  check_bool "retries 0 rejected" true
    (bad { Api.Config.default with retries = Some 0 });
  check_bool "zero heartbeat rejected" true
    (bad { Api.Config.default with heartbeat = Some 0.0 });
  check_bool "chaos rate 1.5 rejected" true
    (bad { Api.Config.default with chaos_rate = Some 1.5 });
  check_bool "chaos attempts 0 rejected" true
    (bad { Api.Config.default with chaos_attempts = 0 });
  (* The kernel field decodes both spellings of both modes; anything
     else is an error naming the accepted values. *)
  let with_kernel k =
    match Api.Config.to_json Api.Config.default with
    | Wire.Obj fields ->
        let set (f, v) = (f, if f = "kernel" then Wire.String k else v) in
        Api.Config.of_json (Wire.Obj (List.map set fields))
        |> Result.map (fun c -> c.Api.Config.kernel)
    | _ -> Alcotest.fail "config is not an object"
  in
  List.iter
    (fun (k, mode) -> check_bool ("kernel " ^ k) true (with_kernel k = Ok mode))
    [ ("on", Kernel.Trie); ("trie", Kernel.Trie); ("off", Kernel.Reference);
      ("reference", Kernel.Reference) ];
  check_bool "kernel tables rejected" true
    (with_kernel "tables"
    = Error {|unknown kernel mode "tables" (expected on|trie|off|reference)|});
  check_bool "supervision only when asked" false
    (Api.Config.wants_supervision Api.Config.default);
  check_bool "retries ask for supervision" true
    (Api.Config.wants_supervision (Api.Config.v ~retries:2 ()))

let quarantine_entry =
  {
    Supervise.q_context = "census";
    q_lo = 10;
    q_hi = 20;
    q_attempts = 3;
    q_error = "boom";
  }

let test_exit_code_policy () =
  let code body = Api.Response.exit_code (Api.Response.make body) in
  let analysis = Numbers.analyze ~cap:2 Gallery.test_and_set in
  check_int "analysis is 0" 0
    (code (Api.Response.Analysis { analysis; from_store = false }));
  check_int "pong is 0" 0 (code Api.Response.Pong);
  check_int "metrics is 0" 0 (code (Api.Response.Metrics (Wire.Obj [])));
  check_int "complete census is 0" 0
    (code
       (Api.Response.Census
          { entries = []; total = 4; completed = 4; resumed = 0; complete = true }));
  check_int "incomplete census is PARTIAL 3" 3
    (code
       (Api.Response.Census
          { entries = []; total = 4; completed = 3; resumed = 0; complete = false }));
  check_int "synth witness is 0" 0
    (code
       (Api.Response.Synth
          {
            witness =
              Some
                {
                  Synth.objtype = Gallery.x4_witness;
                  discerning_level = 4;
                  recording_level = 2;
                  iterations = 1;
                };
          }));
  check_int "synth without witness is 1" 1 (code (Api.Response.Synth { witness = None }));
  check_int "invalid is 2" 2 (Api.Response.exit_code (Api.Response.error "bad"));
  check_int "internal is 70" 70
    (Api.Response.exit_code (Api.Response.error ~code:Api.Response.err_internal "boom"));
  check_int "busy is 75" 75
    (Api.Response.exit_code (Api.Response.error ~code:Api.Response.err_busy "full"));
  check_int "any quarantine degrades success to PARTIAL 3" 3
    (Api.Response.exit_code
       (Api.Response.make ~quarantined:[ quarantine_entry ]
          (Api.Response.Analysis { analysis; from_store = false })))

let test_quarantine_ledger_roundtrip () =
  let r =
    Api.Response.make ~retries:5 ~watchdog_trips:2 ~quarantined:[ quarantine_entry ]
      (Api.Response.Synth { witness = None })
  in
  match Api.Response.of_string (Api.Response.to_string r) with
  | Error e -> Alcotest.failf "ledger response does not decode: %s" e
  | Ok r' ->
      check_int "retries survive" 5 r'.Api.Response.retries;
      check_int "trips survive" 2 r'.Api.Response.watchdog_trips;
      check_bool "quarantine entries survive" true
        (r'.Api.Response.quarantined = [ quarantine_entry ]);
      check_bool "report has the pinned shape" true
        (let report = Api.Response.quarantine_report r' in
         String.length report > 0
         && String.sub report 0 19 = {|{"rcn_quarantine":1|})

let suite =
  [
    Alcotest.test_case "wire canonical encoding" `Quick test_wire_canonical_encoding;
    Alcotest.test_case "wire parser strictness" `Quick test_wire_parse_strictness;
    Alcotest.test_case "wire round-trip identity" `Quick test_wire_roundtrip_identity;
    QCheck_alcotest.to_alcotest prop_config_roundtrip;
    QCheck_alcotest.to_alcotest prop_request_roundtrip;
    Alcotest.test_case "analysis codec replays certificates" `Quick test_analysis_codec;
    Alcotest.test_case "response round-trips byte-identically" `Quick
      test_response_roundtrip;
    Alcotest.test_case "golden request bytes" `Quick test_golden_requests;
    Alcotest.test_case "golden response bytes" `Quick test_golden_responses;
    Alcotest.test_case "query digest pin" `Quick test_query_digest_pin;
    Alcotest.test_case "synth digest pins" `Quick test_synth_digest_pin;
    Alcotest.test_case "config validation" `Quick test_config_validate;
    Alcotest.test_case "exit-code policy" `Quick test_exit_code_policy;
    Alcotest.test_case "quarantine ledger round-trip" `Quick
      test_quarantine_ledger_roundtrip;
  ]
