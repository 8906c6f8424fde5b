(* The serializable Request/Response API.  Field orders below are the
   wire format — pinned by golden files in the test suite — so codecs
   always build their objects explicitly, never by patching. *)

let ( let* ) = Result.bind

let opt_json encode = function None -> Wire.Null | Some v -> encode v

(* ------------------------------------------------------------------ *)

module Config = struct
  type t = {
    jobs : int;
    cap : int;
    deadline : float option;
    kernel : Kernel.mode;
    retries : int option;
    heartbeat : float option;
    chaos_rate : float option;
    chaos_seed : int;
    chaos_attempts : int;
    sym : bool;
    incremental : bool;
  }

  let default =
    {
      jobs = 1;
      cap = 5;
      deadline = None;
      kernel = Kernel.Trie;
      retries = None;
      heartbeat = None;
      chaos_rate = None;
      chaos_seed = 0;
      chaos_attempts = 1;
      sym = false;
      incremental = true;
    }

  let v ?(jobs = 1) ?(cap = 5) ?deadline ?(kernel = Kernel.Trie) ?retries ?heartbeat
      ?chaos_rate ?(chaos_seed = 0) ?(chaos_attempts = 1) ?(sym = false)
      ?(incremental = true) () =
    { jobs; cap; deadline; kernel; retries; heartbeat; chaos_rate; chaos_seed;
      chaos_attempts; sym; incremental }

  let validate t =
    if t.jobs < 0 then Error "jobs must be nonnegative"
    else if t.cap < 2 then Error "cap must be at least 2"
    else if (match t.retries with Some k -> k < 1 | None -> false) then
      Error "retries must be at least 1"
    else if (match t.heartbeat with Some s -> s <= 0.0 | None -> false) then
      Error "heartbeat must be positive"
    else if (match t.chaos_rate with Some p -> p < 0.0 || p > 1.0 | None -> false)
    then Error "chaos_rate must be within [0, 1]"
    else if t.chaos_attempts < 1 then Error "chaos_attempts must be at least 1"
    else Ok ()

  let wants_supervision t =
    t.retries <> None || t.heartbeat <> None || t.chaos_rate <> None

  let supervisor t ~obs ~jobs =
    if not (wants_supervision t) then None
    else
      let policy =
        match t.retries with
        | None -> Supervise.Policy.default
        | Some k -> Supervise.Policy.v ~max_attempts:k ()
      in
      let chaos =
        Option.map
          (fun rate ->
            Supervise.Chaos.create ~attempts:t.chaos_attempts ~rate ~seed:t.chaos_seed
              ())
          t.chaos_rate
      in
      let watchdog =
        Option.map
          (fun interval -> Supervise.Watchdog.create ?obs ~interval ~jobs ())
          t.heartbeat
      in
      Some (Supervise.create ~policy ?chaos ?watchdog ?obs ())

  let to_json t =
    Wire.Obj
      [
        ("jobs", Wire.Int t.jobs);
        ("cap", Wire.Int t.cap);
        ("deadline", opt_json (fun s -> Wire.Float s) t.deadline);
        ("kernel", Wire.String (Kernel.mode_to_string t.kernel));
        ("retries", opt_json (fun k -> Wire.Int k) t.retries);
        ("heartbeat", opt_json (fun s -> Wire.Float s) t.heartbeat);
        ("chaos_rate", opt_json (fun p -> Wire.Float p) t.chaos_rate);
        ("chaos_seed", Wire.Int t.chaos_seed);
        ("chaos_attempts", Wire.Int t.chaos_attempts);
        ("sym", Wire.Bool t.sym);
        ("incremental", Wire.Bool t.incremental);
      ]

  let of_json j =
    let* jobs = Result.bind (Wire.field j "jobs") Wire.to_int in
    let* cap = Result.bind (Wire.field j "cap") Wire.to_int in
    let* deadline = Wire.opt_field j "deadline" Wire.to_float in
    let* kernel_s = Result.bind (Wire.field j "kernel") Wire.to_str in
    let* kernel =
      match Kernel.mode_of_string kernel_s with
      | Ok m -> Ok m
      | Error (`Msg m) -> Error m
    in
    let* retries = Wire.opt_field j "retries" Wire.to_int in
    let* heartbeat = Wire.opt_field j "heartbeat" Wire.to_float in
    let* chaos_rate = Wire.opt_field j "chaos_rate" Wire.to_float in
    let* chaos_seed = Result.bind (Wire.field j "chaos_seed") Wire.to_int in
    let* chaos_attempts = Result.bind (Wire.field j "chaos_attempts") Wire.to_int in
    (* [sym] postdates the v1 config wire format: absent means off, so
       configs encoded by older builds still decode. *)
    let* sym =
      match Wire.field j "sym" with Error _ -> Ok false | Ok b -> Wire.to_bool b
    in
    (* [incremental] likewise postdates the wire format, but defaults
       *on*: the warm-start search is the standard path, and a config
       encoded before the flag existed should decode to the same
       behavior it would get today. *)
    let* incremental =
      match Wire.field j "incremental" with
      | Error _ -> Ok true
      | Ok b -> Wire.to_bool b
    in
    Ok
      { jobs; cap; deadline; kernel; retries; heartbeat; chaos_rate; chaos_seed;
        chaos_attempts; sym; incremental }
end

(* ------------------------------------------------------------------ *)
(* shared sub-codecs *)

let space_fields (space : Synth.space) =
  [
    ("values", Wire.Int space.Synth.num_values);
    ("rws", Wire.Int space.Synth.num_rws);
    ("responses", Wire.Int space.Synth.num_responses);
  ]

let space_of_json j =
  let* num_values = Result.bind (Wire.field j "values") Wire.to_int in
  let* num_rws = Result.bind (Wire.field j "rws") Wire.to_int in
  let* num_responses = Result.bind (Wire.field j "responses") Wire.to_int in
  Ok { Synth.num_values; num_rws; num_responses }

let objtype_of_spec spec =
  match Objtype.of_spec_string spec with
  | t -> Ok t
  | exception Objtype.Ill_formed m -> Error (Printf.sprintf "bad type spec: %s" m)

let certificate_to_json (c : Certificate.t) =
  Wire.Obj
    [
      ("spec", Wire.String (Objtype.to_spec_string c.Certificate.objtype));
      ("initial", Wire.Int c.Certificate.initial);
      ( "team",
        Wire.List (Array.to_list (Array.map (fun b -> Wire.Bool b) c.Certificate.team))
      );
      ( "ops",
        Wire.List (Array.to_list (Array.map (fun o -> Wire.Int o) c.Certificate.ops)) );
    ]

let certificate_of_json j =
  let* spec = Result.bind (Wire.field j "spec") Wire.to_str in
  let* objtype = objtype_of_spec spec in
  let* initial = Result.bind (Wire.field j "initial") Wire.to_int in
  let* team_l = Result.bind (Wire.field j "team") Wire.to_list in
  let* ops_l = Result.bind (Wire.field j "ops") Wire.to_list in
  let* team =
    List.fold_left
      (fun acc b ->
        let* acc = acc in
        let* b = Wire.to_bool b in
        Ok (b :: acc))
      (Ok []) team_l
  in
  let* ops =
    List.fold_left
      (fun acc o ->
        let* acc = acc in
        let* o = Wire.to_int o in
        Ok (o :: acc))
      (Ok []) ops_l
  in
  let team = Array.of_list (List.rev team) in
  let ops = Array.of_list (List.rev ops) in
  match Certificate.make ~objtype ~initial ~team ~ops with
  | c -> Ok c
  | exception Invalid_argument m -> Error (Printf.sprintf "bad certificate: %s" m)

let status_to_json = function
  | Analysis.Exact -> Wire.String "exact"
  | Analysis.At_least -> Wire.String "at_least"

let status_of_json j =
  let* s = Wire.to_str j in
  match s with
  | "exact" -> Ok Analysis.Exact
  | "at_least" -> Ok Analysis.At_least
  | other -> Error (Printf.sprintf "unknown status %S" other)

let level_to_json (l : Analysis.level) =
  Wire.Obj
    [
      ("value", Wire.Int l.Analysis.value);
      ("status", status_to_json l.Analysis.status);
      ("certificate", opt_json certificate_to_json l.Analysis.certificate);
    ]

let level_of_json j =
  let* value = Result.bind (Wire.field j "value") Wire.to_int in
  let* status = Result.bind (Wire.field j "status") status_of_json in
  let* certificate = Wire.opt_field j "certificate" certificate_of_json in
  Ok { Analysis.value; status; certificate }

let analysis_to_json (a : Analysis.t) =
  Wire.Obj
    [
      ("type_name", Wire.String a.Analysis.type_name);
      ("readable", Wire.Bool a.Analysis.readable);
      ("discerning", level_to_json a.Analysis.discerning);
      ("recording", level_to_json a.Analysis.recording);
      ("elapsed", Wire.Float a.Analysis.elapsed);
    ]

let analysis_of_json j =
  let* type_name = Result.bind (Wire.field j "type_name") Wire.to_str in
  let* readable = Result.bind (Wire.field j "readable") Wire.to_bool in
  let* discerning = Result.bind (Wire.field j "discerning") level_of_json in
  let* recording = Result.bind (Wire.field j "recording") level_of_json in
  let* elapsed = Result.bind (Wire.field j "elapsed") Wire.to_float in
  Ok { Analysis.type_name; readable; discerning; recording; elapsed }

let entry_to_json (e : Census.entry) =
  Wire.Obj
    [
      ("discerning", Wire.Int e.Census.discerning);
      ("recording", Wire.Int e.Census.recording);
      ("count", Wire.Int e.Census.count);
    ]

let entry_of_json j =
  let* discerning = Result.bind (Wire.field j "discerning") Wire.to_int in
  let* recording = Result.bind (Wire.field j "recording") Wire.to_int in
  let* count = Result.bind (Wire.field j "count") Wire.to_int in
  Ok { Census.discerning; recording; count }

let entries_of_json l =
  let* entries =
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        let* e = entry_of_json e in
        Ok (e :: acc))
      (Ok []) l
  in
  Ok (List.rev entries)

let query_digest ty ~cap =
  Digest.to_hex
    (Digest.string (Printf.sprintf "rcn-analyze v1 cap=%d\n%s" cap
                      (Objtype.to_spec_string ty)))

(* The symmetry-aware content address: the key material is the
   *canonical form* of the type's transition table under the
   value/op/response permutation group, with the name and labels
   dropped, so isomorphic queries collide on purpose (their levels are
   equal by orbit invariance; the certificates a hit replays embed the
   stored representative's own spec and replay-validate on their own
   terms).  The default initial value is excluded too: the deciders
   quantify over every initial value, so levels cannot depend on it.  A
   distinct version tag keeps the keyspace disjoint from the exact
   [query_digest]. *)
let query_digest_canonical ty ~cap =
  let v = ty.Objtype.num_values
  and o = ty.Objtype.num_ops
  and r = ty.Objtype.num_responses in
  let s = Sym.make ~values:v ~ops:o ~responses:r in
  let tbl = Array.init (v * o) (fun i -> ty.Objtype.delta (i / o) (i mod o)) in
  Digest.to_hex
    (Digest.string (Printf.sprintf "rcn-analyze v2 cap=%d\n%s" cap (Sym.digest s tbl)))

(* Census and synth content addresses.  Like [query_digest], only the
   parameters a result actually depends on are part of the key —
   jobs/kernel/worker-count are excluded by the engine's (and the
   distributed merge's) determinism guarantees; sampling and synthesis
   are deterministic in their seeds, so seed and budget are included. *)
let census_digest (space : Synth.space) ~cap ~sample ~seed =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "rcn-census v1 values=%d rws=%d responses=%d cap=%d sample=%s seed=%d"
          space.Synth.num_values space.Synth.num_rws space.Synth.num_responses cap
          (match sample with None -> "none" | Some n -> string_of_int n)
          seed))

(* v2: the reroll-until-different mutation draw and the per-search
   symmetry memo changed the deterministic trajectory a given seed
   produces, so v1 records describe a search this build no longer
   runs — the bump retires them instead of replaying stale results. *)
let synth_digest (space : Synth.space) ~target ~seed ~iterations ~restart_every
    ~portfolio =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf
          "rcn-synth v2 values=%d rws=%d responses=%d target=%d seed=%d iterations=%d restart_every=%s portfolio=%d"
          space.Synth.num_values space.Synth.num_rws space.Synth.num_responses target
          seed iterations
          (match restart_every with None -> "none" | Some n -> string_of_int n)
          portfolio))

(* The canonical synth store key ([query_digest_canonical]'s sibling).
   A synth request carries no transition table — its space is three
   dimensions — so the orbit quotient that canonizes analyze keys is
   trivial here; what the canonical key collapses is *spellings of the
   same run*: [restart_every = None] and
   [restart_every = Some Synth.default_restart_every] execute
   identically, so they share a record.  A distinct version tag keeps
   the keyspace disjoint from the exact [synth_digest]. *)
let synth_digest_canonical (space : Synth.space) ~target ~seed ~iterations
    ~restart_every ~portfolio =
  let restart_every =
    Some (Option.value restart_every ~default:Synth.default_restart_every)
  in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf
          "rcn-synth v3 values=%d rws=%d responses=%d target=%d seed=%d iterations=%d restart_every=%s portfolio=%d"
          space.Synth.num_values space.Synth.num_rws space.Synth.num_responses target
          seed iterations
          (match restart_every with None -> "none" | Some n -> string_of_int n)
          portfolio))

(* ------------------------------------------------------------------ *)

module Request = struct
  type t =
    | Analyze of { spec : string; config : Config.t }
    | Census of {
        space : Synth.space;
        sample : int option;
        seed : int;
        checkpoint : string option;
        resume : bool;
        durable : bool;
        config : Config.t;
      }
    | Synth of {
        space : Synth.space;
        target : int;
        seed : int;
        iterations : int;
        restart_every : int option;
        portfolio : int;
        config : Config.t;
      }
    | Metrics
    | Ping

  let config = function
    | Analyze { config; _ } | Census { config; _ } | Synth { config; _ } -> Some config
    | Metrics | Ping -> None

  let max_census_tables = 1 lsl 24
  let max_sym_census_tables = 1 lsl 34

  (* An exhaustive census also needs a table count within its bound
     ([max_sym_census_tables] under symmetry reduction,
     [max_census_tables] otherwise; one that overflows an [int] is over
     either); a sampled one never enumerates the space. *)
  let check_space ~exhaustive ~sym space =
    let bound = if sym then max_sym_census_tables else max_census_tables in
    let too_big tables =
      Error
        (Printf.sprintf
           "an exhaustive census of %s tables exceeds the %d-table bound \
            (use --sample N to decide a random sample)"
           tables bound)
    in
    match Synth.check_space space with
    | exception Invalid_argument msg -> Error msg
    | () when not exhaustive -> Ok ()
    | () -> (
        match Census.space_size space with
        | tables when tables > bound -> too_big (string_of_int tables)
        | _ -> Ok ()
        | exception Invalid_argument _ -> too_big ("more than " ^ string_of_int max_int))

  let validate req =
    let* () = match config req with Some c -> Config.validate c | None -> Ok () in
    match req with
    | Census { sample = Some n; _ } when n < 0 -> Error "sample must be nonnegative"
    | Census { sample = Some n; _ } when n > max_census_tables ->
        Error
          (Printf.sprintf "a sample of %d tables exceeds the %d-table bound" n
             max_census_tables)
    | Census { sample = Some _; checkpoint; resume; durable; _ }
      when checkpoint <> None || resume || durable ->
        Error "sample cannot be combined with checkpoint, resume or durable \
               (checkpoints are exhaustive-only)"
    | Census { checkpoint = None; resume = true; _ } ->
        Error "resume needs a checkpoint file to resume from"
    | Census { checkpoint = None; durable = true; _ } ->
        Error "durable needs a checkpoint file to make durable"
    | Census { space; sample; config; _ } ->
        check_space ~exhaustive:(sample = None) ~sym:config.Config.sym space
    | Synth { space; _ } -> check_space ~exhaustive:false ~sym:false space
    | Analyze _ | Metrics | Ping -> Ok ()

  let envelope kind fields =
    Wire.Obj ((("rcn_request", Wire.Int 1) :: ("kind", Wire.String kind) :: fields))

  let to_json = function
    | Analyze { spec; config } ->
        envelope "analyze"
          [ ("spec", Wire.String spec); ("config", Config.to_json config) ]
    | Census { space; sample; seed; checkpoint; resume; durable; config } ->
        envelope "census"
          (space_fields space
          @ [
              ("sample", opt_json (fun n -> Wire.Int n) sample);
              ("seed", Wire.Int seed);
              ("checkpoint", opt_json (fun p -> Wire.String p) checkpoint);
              ("resume", Wire.Bool resume);
              ("durable", Wire.Bool durable);
              ("config", Config.to_json config);
            ])
    | Synth { space; target; seed; iterations; restart_every; portfolio; config } ->
        envelope "synth"
          (space_fields space
          @ [
              ("target", Wire.Int target);
              ("seed", Wire.Int seed);
              ("iterations", Wire.Int iterations);
              ("restart_every", opt_json (fun n -> Wire.Int n) restart_every);
              ("portfolio", Wire.Int portfolio);
              ("config", Config.to_json config);
            ])
    | Metrics -> envelope "metrics" []
    | Ping -> envelope "ping" []

  let of_json j =
    let* tag = Result.bind (Wire.field j "rcn_request") Wire.to_int in
    if tag <> 1 then Error (Printf.sprintf "unsupported rcn_request version %d" tag)
    else
      let* kind = Result.bind (Wire.field j "kind") Wire.to_str in
      match kind with
      | "analyze" ->
          let* spec = Result.bind (Wire.field j "spec") Wire.to_str in
          let* config = Result.bind (Wire.field j "config") Config.of_json in
          Ok (Analyze { spec; config })
      | "census" ->
          let* space = space_of_json j in
          let* sample = Wire.opt_field j "sample" Wire.to_int in
          let* seed = Result.bind (Wire.field j "seed") Wire.to_int in
          let* checkpoint = Wire.opt_field j "checkpoint" Wire.to_str in
          let* resume = Result.bind (Wire.field j "resume") Wire.to_bool in
          let* durable = Result.bind (Wire.field j "durable") Wire.to_bool in
          let* config = Result.bind (Wire.field j "config") Config.of_json in
          Ok (Census { space; sample; seed; checkpoint; resume; durable; config })
      | "synth" ->
          let* space = space_of_json j in
          let* target = Result.bind (Wire.field j "target") Wire.to_int in
          let* seed = Result.bind (Wire.field j "seed") Wire.to_int in
          let* iterations = Result.bind (Wire.field j "iterations") Wire.to_int in
          let* restart_every = Wire.opt_field j "restart_every" Wire.to_int in
          let* portfolio = Result.bind (Wire.field j "portfolio") Wire.to_int in
          let* config = Result.bind (Wire.field j "config") Config.of_json in
          Ok (Synth { space; target; seed; iterations; restart_every; portfolio; config })
      | "metrics" -> Ok Metrics
      | "ping" -> Ok Ping
      | other -> Error (Printf.sprintf "unknown request kind %S" other)

  let to_string t = Wire.to_string (to_json t)
  let of_string s = Result.bind (Wire.of_string s) of_json
end

(* ------------------------------------------------------------------ *)

(* The distributed-census wire protocol: what a worker process exchanges
   with its coordinator over the socketpair (length-prefixed by
   [Serve.Frame]).  Strictly one [reply] per [msg] — the worker always
   writes first, then blocks on the answer — so neither side ever has to
   disambiguate pipelined frames. *)
module Worker = struct
  type msg =
    | Hello of { pid : int }
    | Progress of { lease : int; at : int }
    | Result of { lease : int; lo : int; hi : int; entries : Census.entry list }

  type reply =
    | Assign of { lease : int; lo : int; hi : int; budget : float option }
    | Continue
    | Truncate of { hi : int }
    | Shutdown

  let msg_envelope kind fields =
    Wire.Obj (("rcn_worker", Wire.Int 1) :: ("kind", Wire.String kind) :: fields)

  let msg_to_json = function
    | Hello { pid } -> msg_envelope "hello" [ ("pid", Wire.Int pid) ]
    | Progress { lease; at } ->
        msg_envelope "progress" [ ("lease", Wire.Int lease); ("at", Wire.Int at) ]
    | Result { lease; lo; hi; entries } ->
        msg_envelope "result"
          [
            ("lease", Wire.Int lease);
            ("lo", Wire.Int lo);
            ("hi", Wire.Int hi);
            ("entries", Wire.List (List.map entry_to_json entries));
          ]

  let msg_of_json j =
    let* tag = Result.bind (Wire.field j "rcn_worker") Wire.to_int in
    if tag <> 1 then Error (Printf.sprintf "unsupported rcn_worker version %d" tag)
    else
      let* kind = Result.bind (Wire.field j "kind") Wire.to_str in
      match kind with
      | "hello" ->
          let* pid = Result.bind (Wire.field j "pid") Wire.to_int in
          Ok (Hello { pid })
      | "progress" ->
          let* lease = Result.bind (Wire.field j "lease") Wire.to_int in
          let* at = Result.bind (Wire.field j "at") Wire.to_int in
          Ok (Progress { lease; at })
      | "result" ->
          let* lease = Result.bind (Wire.field j "lease") Wire.to_int in
          let* lo = Result.bind (Wire.field j "lo") Wire.to_int in
          let* hi = Result.bind (Wire.field j "hi") Wire.to_int in
          let* entries_l = Result.bind (Wire.field j "entries") Wire.to_list in
          let* entries = entries_of_json entries_l in
          Ok (Result { lease; lo; hi; entries })
      | other -> Error (Printf.sprintf "unknown worker message kind %S" other)

  let reply_envelope kind fields =
    Wire.Obj (("rcn_worker_reply", Wire.Int 1) :: ("kind", Wire.String kind) :: fields)

  let reply_to_json = function
    | Assign { lease; lo; hi; budget } ->
        (* [budget] postdates the v1 frame format and is encoded only
           when present, so budget-free assignments keep their pinned
           bytes. *)
        reply_envelope "assign"
          ([ ("lease", Wire.Int lease); ("lo", Wire.Int lo); ("hi", Wire.Int hi) ]
          @ match budget with None -> [] | Some s -> [ ("budget", Wire.Float s) ])
    | Continue -> reply_envelope "continue" []
    | Truncate { hi } -> reply_envelope "truncate" [ ("hi", Wire.Int hi) ]
    | Shutdown -> reply_envelope "shutdown" []

  let reply_of_json j =
    let* tag = Result.bind (Wire.field j "rcn_worker_reply") Wire.to_int in
    if tag <> 1 then
      Error (Printf.sprintf "unsupported rcn_worker_reply version %d" tag)
    else
      let* kind = Result.bind (Wire.field j "kind") Wire.to_str in
      match kind with
      | "assign" ->
          let* lease = Result.bind (Wire.field j "lease") Wire.to_int in
          let* lo = Result.bind (Wire.field j "lo") Wire.to_int in
          let* hi = Result.bind (Wire.field j "hi") Wire.to_int in
          let* budget = Wire.opt_field j "budget" Wire.to_float in
          Ok (Assign { lease; lo; hi; budget })
      | "continue" -> Ok Continue
      | "truncate" ->
          let* hi = Result.bind (Wire.field j "hi") Wire.to_int in
          Ok (Truncate { hi })
      | "shutdown" -> Ok Shutdown
      | other -> Error (Printf.sprintf "unknown worker reply kind %S" other)

  let msg_to_string t = Wire.to_string (msg_to_json t)
  let msg_of_string s = Result.bind (Wire.of_string s) msg_of_json
  let reply_to_string t = Wire.to_string (reply_to_json t)
  let reply_of_string s = Result.bind (Wire.of_string s) reply_of_json
end

(* ------------------------------------------------------------------ *)

module Response = struct
  type census_summary = {
    entries : Census.entry list;
    total : int;
    completed : int;
    resumed : int;
    complete : bool;
  }

  type body =
    | Analysis of { analysis : Analysis.t; from_store : bool }
    | Census of census_summary
    | Synth of { witness : Synth.witness option }
    | Metrics of Wire.t
    | Pong
    | Error of { code : int; message : string }

  type t = {
    body : body;
    retries : int;
    watchdog_trips : int;
    quarantined : Supervise.quarantine list;
  }

  let make ?(retries = 0) ?(watchdog_trips = 0) ?(quarantined = []) body =
    { body; retries; watchdog_trips; quarantined }

  let err_invalid = 2
  let err_internal = 70
  let err_storage = 74
  let err_busy = 75

  let error ?(code = err_invalid) message = make (Error { code; message })

  let exit_code t =
    match t.body with
    | Error { code; _ } -> code
    | Synth { witness = None } -> 1
    | Census { complete = false; _ } -> 3
    | _ -> if t.quarantined <> [] then 3 else 0

  (* The census-summary fields double as the store payload for memoized
     census queries ([census_summary_to_json]); keeping one field list
     guarantees a warm store replay is byte-identical to the cold
     response. *)
  let census_fields (c : census_summary) =
    [
      ("entries", Wire.List (List.map entry_to_json c.entries));
      ("total", Wire.Int c.total);
      ("completed", Wire.Int c.completed);
      ("resumed", Wire.Int c.resumed);
      ("complete", Wire.Bool c.complete);
    ]

  let census_summary_to_json c = Wire.Obj (census_fields c)

  let census_summary_of_json j =
    let* entries_l = Result.bind (Wire.field j "entries") Wire.to_list in
    let* entries = entries_of_json entries_l in
    let* total = Result.bind (Wire.field j "total") Wire.to_int in
    let* completed = Result.bind (Wire.field j "completed") Wire.to_int in
    let* resumed = Result.bind (Wire.field j "resumed") Wire.to_int in
    let* complete = Result.bind (Wire.field j "complete") Wire.to_bool in
    Ok { entries; total; completed; resumed; complete }

  let witness_to_json (w : Synth.witness) =
    Wire.Obj
      [
        ("spec", Wire.String (Objtype.to_spec_string w.Synth.objtype));
        ("discerning", Wire.Int w.Synth.discerning_level);
        ("recording", Wire.Int w.Synth.recording_level);
        ("iterations", Wire.Int w.Synth.iterations);
      ]

  let witness_of_json j =
    let* spec = Result.bind (Wire.field j "spec") Wire.to_str in
    let* objtype = objtype_of_spec spec in
    let* discerning_level = Result.bind (Wire.field j "discerning") Wire.to_int in
    let* recording_level = Result.bind (Wire.field j "recording") Wire.to_int in
    let* iterations = Result.bind (Wire.field j "iterations") Wire.to_int in
    Ok { Synth.objtype; discerning_level; recording_level; iterations }

  (* The store payload for memoized synth queries: a no-witness outcome
     is cached too (re-searching cannot find what is not there). *)
  let witness_opt_to_json w = opt_json witness_to_json w

  let witness_opt_of_json = function
    | Wire.Null -> Ok None
    | j -> Result.map Option.some (witness_of_json j)

  let quarantine_to_json (q : Supervise.quarantine) =
    Wire.Obj
      [
        ("context", Wire.String q.Supervise.q_context);
        ("lo", Wire.Int q.Supervise.q_lo);
        ("hi", Wire.Int q.Supervise.q_hi);
        ("attempts", Wire.Int q.Supervise.q_attempts);
        ("error", Wire.String q.Supervise.q_error);
      ]

  let quarantine_of_json j =
    let* q_context = Result.bind (Wire.field j "context") Wire.to_str in
    let* q_lo = Result.bind (Wire.field j "lo") Wire.to_int in
    let* q_hi = Result.bind (Wire.field j "hi") Wire.to_int in
    let* q_attempts = Result.bind (Wire.field j "attempts") Wire.to_int in
    let* q_error = Result.bind (Wire.field j "error") Wire.to_str in
    Ok { Supervise.q_context; q_lo; q_hi; q_attempts; q_error }

  let envelope kind fields t =
    Wire.Obj
      (("rcn_response", Wire.Int 1) :: ("kind", Wire.String kind)
      :: fields
      @ [
          ("retries", Wire.Int t.retries);
          ("watchdog_trips", Wire.Int t.watchdog_trips);
          ("quarantined", Wire.List (List.map quarantine_to_json t.quarantined));
        ])

  let to_json t =
    match t.body with
    | Analysis { analysis; from_store } ->
        envelope "analysis"
          [
            ("from_store", Wire.Bool from_store);
            ("analysis", analysis_to_json analysis);
          ]
          t
    | Census c -> envelope "census" (census_fields c) t
    | Synth { witness } ->
        envelope "synth" [ ("witness", opt_json witness_to_json witness) ] t
    | Metrics stats -> envelope "metrics" [ ("stats", stats) ] t
    | Pong -> envelope "pong" [] t
    | Error { code; message } ->
        envelope "error" [ ("code", Wire.Int code); ("message", Wire.String message) ] t

  let of_json j =
    let* tag = Result.bind (Wire.field j "rcn_response") Wire.to_int in
    if tag <> 1 then Error (Printf.sprintf "unsupported rcn_response version %d" tag)
    else
      let* kind = Result.bind (Wire.field j "kind") Wire.to_str in
      let* retries = Result.bind (Wire.field j "retries") Wire.to_int in
      let* watchdog_trips = Result.bind (Wire.field j "watchdog_trips") Wire.to_int in
      let* quarantined_l = Result.bind (Wire.field j "quarantined") Wire.to_list in
      let* quarantined =
        List.fold_left
          (fun acc q ->
            let* acc = acc in
            let* q = quarantine_of_json q in
            Ok (q :: acc))
          (Ok []) quarantined_l
      in
      let quarantined = List.rev quarantined in
      let* body =
        match kind with
        | "analysis" ->
            let* from_store = Result.bind (Wire.field j "from_store") Wire.to_bool in
            let* analysis = Result.bind (Wire.field j "analysis") analysis_of_json in
            Ok (Analysis { analysis; from_store })
        | "census" ->
            let* c = census_summary_of_json j in
            Ok (Census c)
        | "synth" ->
            let* witness = Wire.opt_field j "witness" witness_of_json in
            Ok (Synth { witness })
        | "metrics" ->
            let* stats = Wire.field j "stats" in
            Ok (Metrics stats)
        | "pong" -> Ok Pong
        | "error" ->
            let* code = Result.bind (Wire.field j "code") Wire.to_int in
            let* message = Result.bind (Wire.field j "message") Wire.to_str in
            Ok (Error { code; message })
        | other -> Error (Printf.sprintf "unknown response kind %S" other)
      in
      Ok { body; retries; watchdog_trips; quarantined }

  let to_string t = Wire.to_string (to_json t)
  let of_string s = Result.bind (Wire.of_string s) of_json

  let quarantine_report t =
    Wire.to_string
      (Wire.Obj
         [
           ("rcn_quarantine", Wire.Int 1);
           ("retries", Wire.Int t.retries);
           ("watchdog_trips", Wire.Int t.watchdog_trips);
           ("quarantined", Wire.List (List.map quarantine_to_json t.quarantined));
         ])
    ^ "\n"
end
