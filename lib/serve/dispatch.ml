type env = {
  obs : Obs.t;
  cache : Engine.Cache.t;
  pool : Pool.t;
  store : Store.t option;
  supervision_obs : Obs.t option;
  command : string;
}

let env ?store ?supervision_obs ~obs ~command pool =
  { obs; cache = Engine.Cache.create ~obs (); pool; store; supervision_obs; command }

let metrics_response ~obs ~command =
  let line = String.trim (Obs.Stats.render ~command obs Obs.Stats.Json) in
  match Wire.of_string line with
  | Ok stats -> Api.Response.make (Api.Response.Metrics stats)
  | Error msg ->
      Api.Response.error ~code:Api.Response.err_internal
        (Printf.sprintf "stats rendering broke its own format: %s" msg)

(* The analyze store key.  Under [--sym on] the key is the canonical
   form's digest, so isomorphic queries (same table up to value /
   operation / response relabeling) share one record; the cached
   analysis is the representative's — levels are orbit invariants,
   certificates may witness a relabeled twin.  Without [sym] the key
   pins the exact spec, as always. *)
let analyze_digest ~(config : Api.Config.t) ty =
  if config.Api.Config.sym then
    Api.query_digest_canonical ty ~cap:config.Api.Config.cap
  else Api.query_digest ty ~cap:config.Api.Config.cap

(* The synth store key follows the same [--sym on] selection: the
   canonical key collapses parameter spellings that provably run the
   same search (defaulted vs explicit [restart_every]). *)
let synth_digest ~(config : Api.Config.t) space ~target ~seed ~iterations
    ~restart_every ~portfolio =
  if config.Api.Config.sym then
    Api.synth_digest_canonical space ~target ~seed ~iterations ~restart_every
      ~portfolio
  else Api.synth_digest space ~target ~seed ~iterations ~restart_every ~portfolio

(* How one memoized query kind travels through the store.  The store
   keeps the canonical body bytes of the pristine cold run, so a warm
   query replays them and its body is byte-identical to the cold one; a
   record that no longer decodes (a foreign or corrupt store file) is
   reported, not served.  Checkpoint/resume censuses are never memoized —
   their result is a function of the checkpoint file, not of the
   query. *)
type 'a stored = {
  encode : 'a -> Wire.t;
  decode : Wire.t -> ('a, string) result;
  replayed : 'a -> Api.Response.body;
}

let stored_analysis =
  {
    encode = Api.analysis_to_json;
    decode = Api.analysis_of_json;
    replayed = (fun analysis -> Api.Response.Analysis { analysis; from_store = true });
  }

let stored_census =
  {
    encode = Api.Response.census_summary_to_json;
    decode = Api.Response.census_summary_of_json;
    replayed = (fun c -> Api.Response.Census c);
  }

let stored_synth =
  {
    encode = Api.Response.witness_opt_to_json;
    decode = Api.Response.witness_opt_of_json;
    replayed = (fun witness -> Api.Response.Synth { witness });
  }

let store_hit kind store ~digest =
  Option.map
    (fun payload ->
      match Result.bind (Wire.of_string payload) kind.decode with
      | Ok v -> Api.Response.make (kind.replayed v)
      | Error msg ->
          Api.Response.error ~code:Api.Response.err_internal
            (Printf.sprintf "store record %s undecodable: %s" digest msg))
    (Store.find store digest)

let publish kind env ~digest v =
  Option.iter
    (fun store -> Store.put store ~key:digest (Wire.to_string (kind.encode v)))
    env.store

let census_memoizable ~checkpoint ~resume ~durable ~(config : Api.Config.t) =
  checkpoint = None && (not resume) && (not durable)
  && config.Api.Config.deadline = None

let fast_path ~obs ?store ~command (req : Api.Request.t) =
  match req with
  | Api.Request.Ping -> Some (Api.Response.make Api.Response.Pong)
  | Api.Request.Metrics -> Some (metrics_response ~obs ~command)
  | Api.Request.Analyze { spec; config } -> (
      match store with
      | None -> None
      | Some store -> (
          match Objtype.of_spec_string spec with
          | exception Objtype.Ill_formed _ -> None (* let [run] report it *)
          | ty -> store_hit stored_analysis store ~digest:(analyze_digest ~config ty)))
  | Api.Request.Census { space; sample; seed; checkpoint; resume; durable; config }
    when census_memoizable ~checkpoint ~resume ~durable ~config -> (
      match store with
      | None -> None
      | Some store ->
          store_hit stored_census store
            ~digest:(Api.census_digest space ~cap:config.Api.Config.cap ~sample ~seed))
  | Api.Request.Synth { space; target; seed; iterations; restart_every; portfolio; config }
    when config.Api.Config.deadline = None -> (
      match store with
      | None -> None
      | Some store ->
          store_hit stored_synth store
            ~digest:
              (synth_digest ~config space ~target ~seed ~iterations ~restart_every
                 ~portfolio))
  | _ -> None

(* The response's supervision ledger, read off the per-request
   supervisor. *)
let ledger supervisor =
  match supervisor with
  | None -> (0, 0, [])
  | Some sup ->
      let trips =
        match Supervise.watchdog sup with
        | Some wd -> Supervise.Watchdog.trips wd
        | None -> 0
      in
      (Supervise.retries sup, trips, Supervise.quarantined sup)

let run_analyze env ~spec ~(config : Api.Config.t) =
  match Objtype.of_spec_string spec with
  | exception Objtype.Ill_formed msg ->
      Api.Response.error (Printf.sprintf "bad type spec: %s" msg)
  | ty -> (
      let digest = analyze_digest ~config ty in
      (* Re-probe under the pool owner: the fast path may have lost a race
         with the compute that published this digest. *)
      match Option.bind env.store (store_hit stored_analysis ~digest) with
      | Some resp -> resp
      | None ->
          let supervisor =
            Api.Config.supervisor config ~obs:env.supervision_obs
              ~jobs:(Pool.jobs env.pool)
          in
          let analysis =
            Engine.analyze ~cache:env.cache ~obs:env.obs ?supervisor ~config env.pool ty
          in
          let retries, watchdog_trips, quarantined = ledger supervisor in
          (* Only publish pristine results: a deadline- or
             quarantine-degraded analysis is this run's truth, not the
             query's. *)
          if config.Api.Config.deadline = None && quarantined = [] then
            publish stored_analysis env ~digest analysis;
          Api.Response.make ~retries ~watchdog_trips ~quarantined
            (Api.Response.Analysis { analysis; from_store = false }))

let run_census env ~space ~sample ~seed ~checkpoint ~resume ~durable
    ~(config : Api.Config.t) =
  let memoizable = census_memoizable ~checkpoint ~resume ~durable ~config in
  let digest () =
    Api.census_digest space ~cap:config.Api.Config.cap ~sample ~seed
  in
  (* Re-probe under the pool owner: the fast path may have lost a race
     with the compute that published this digest. *)
  match
    if memoizable then
      Option.bind env.store (store_hit stored_census ~digest:(digest ()))
    else None
  with
  | Some resp -> resp
  | None ->
      let supervisor =
        Api.Config.supervisor config ~obs:env.supervision_obs
          ~jobs:(Pool.jobs env.pool)
      in
      let run =
        Engine.census ~cache:env.cache ~obs:env.obs ?supervisor
          ?sample:(Option.map (fun count -> (count, seed)) sample)
          ?checkpoint ~resume ~durable ~config env.pool space
      in
      let retries, watchdog_trips, quarantined = ledger supervisor in
      (* A checkpoint-writer failure degrades the run the same way a
         quarantined chunk does: a synthetic quarantine entry turns
         the exit PARTIAL and names the storage failure — decided
         tables past the failure were never made durable. *)
      let quarantined =
        match run.Engine.storage_error with
        | None -> quarantined
        | Some msg ->
            {
              Supervise.q_context = "census.checkpoint";
              q_lo = 0;
              q_hi = 0;
              q_attempts = 1;
              q_error = "checkpoint append failed: " ^ msg;
            }
            :: quarantined
      in
      let c =
        {
          Api.Response.entries = run.Engine.entries;
          total = run.Engine.total;
          completed = run.Engine.completed;
          resumed = run.Engine.resumed;
          complete = run.Engine.complete;
        }
      in
      (* Only publish pristine results: quarantine holes (or an
         incomplete sweep) are this run's truth, not the query's. *)
      if memoizable && c.Api.Response.complete && quarantined = [] then
        publish stored_census env ~digest:(digest ()) c;
      Api.Response.make ~retries ~watchdog_trips ~quarantined (Api.Response.Census c)

let run_synth env ~space ~target ~seed ~iterations ~restart_every ~portfolio
    ~(config : Api.Config.t) =
  let memoizable = config.Api.Config.deadline = None in
  let digest () =
    synth_digest ~config space ~target ~seed ~iterations ~restart_every ~portfolio
  in
  match
    if memoizable then
      Option.bind env.store (store_hit stored_synth ~digest:(digest ()))
    else None
  with
  | Some resp -> resp
  | None ->
      let supervisor =
        Api.Config.supervisor config ~obs:env.supervision_obs ~jobs:(Pool.jobs env.pool)
      in
      let witness =
        Engine.synth_portfolio ~seed ~max_iterations:iterations ?restart_every
          ~obs:env.obs ?supervisor ~config ~portfolio env.pool ~target space
      in
      let retries, watchdog_trips, quarantined = ledger supervisor in
      (* A no-witness outcome is as deterministic as a witness — both are
         cached; quarantine holes mean the search was cut, so neither. *)
      if memoizable && quarantined = [] then
        publish stored_synth env ~digest:(digest ()) witness;
      Api.Response.make ~retries ~watchdog_trips ~quarantined
        (Api.Response.Synth { witness })

let storage_error e =
  Api.Response.error ~code:Api.Response.err_storage
    (Option.value ~default:(Printexc.to_string e) (Fsio.error_message e))

(* Durable storage that fails mid-request has already flipped the store
   to sticky read-only, so the daemon stays up and answers honestly
   instead of crashing. *)
let guard f =
  try f () with
  | Dist_ledger.Mismatch msg -> Api.Response.error msg
  | (Fsio.Io_error _ | Fsio.Corrupt _) as e -> storage_error e
  | Unix.Unix_error (e, fn, _) ->
      Api.Response.error ~code:Api.Response.err_internal
        (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | exn -> Api.Response.error ~code:Api.Response.err_internal (Printexc.to_string exn)

let run env (req : Api.Request.t) =
  let checked f =
    match Api.Request.validate req with
    | Error msg -> Api.Response.error msg
    | Ok () -> guard f
  in
  match req with
  | Api.Request.Ping -> Api.Response.make Api.Response.Pong
  | Api.Request.Metrics -> metrics_response ~obs:env.obs ~command:env.command
  | Api.Request.Analyze { spec; config } ->
      checked (fun () -> run_analyze env ~spec ~config)
  | Api.Request.Census { space; sample; seed; checkpoint; resume; durable; config } ->
      checked (fun () ->
          run_census env ~space ~sample ~seed ~checkpoint ~resume ~durable ~config)
  | Api.Request.Synth { space; target; seed; iterations; restart_every; portfolio; config }
    ->
      checked (fun () ->
          run_synth env ~space ~target ~seed ~iterations ~restart_every ~portfolio
            ~config)

let handle env req =
  match fast_path ~obs:env.obs ?store:env.store ~command:env.command req with
  | Some resp -> resp
  | None -> run env req
  | exception ((Fsio.Io_error _ | Fsio.Corrupt _) as e) -> storage_error e
