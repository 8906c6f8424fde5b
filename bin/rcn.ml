(* rcn — command-line interface to the recoverable-consensus-numbers
   toolkit: deciders, state-machine rendering, protocol simulation,
   exhaustive certification and witness synthesis. *)

let type_arg_doc =
  "Gallery type name (see `rcn gallery`), e.g. 'test-and-set', 'T_{5,2}', \
   'x4-witness', 'team-ladder-2' — or a path to a specification file \
   produced by `rcn synth --save` / Objtype.to_spec_string."

let objtype_conv =
  Cmdliner.Arg.conv ((fun s -> Gallery.resolve s), fun ppf t -> Objtype.pp ppf t)

let kernel_conv =
  Cmdliner.Arg.conv
    (Kernel.mode_of_string, fun ppf m -> Format.pp_print_string ppf (Kernel.mode_to_string m))

(* [--jobs 0] resolves to RCN_JOBS / the host's domain count. *)
let resolve_jobs j =
  try Engine.resolve_jobs j
  with Invalid_argument msg ->
    prerr_endline
      (if j < 0 then "--jobs must be nonnegative" else msg);
    exit 2

(* Observability plumbing shared by the long-running commands: build the
   context ([--trace FILE] selects the JSONL sink), run the command body
   (which returns its exit code instead of calling [exit], so the stats
   block still prints on failure paths like a PARTIAL census), render
   [--stats] to stdout, close the sink, then exit.

   SIGINT and SIGTERM are caught for the duration of the body: telemetry
   is flushed — the [--stats] block prints what was counted so far and
   the JSONL sink is closed so no trace line is lost to stdio buffering —
   and the process exits with the conventional [128 + signal] code.
   Handlers run at OCaml safe points on the main domain, so the flush
   never tears a trace line that a worker was emitting. *)
let with_obs ~command trace stats f =
  let sink =
    match trace with Some path -> Obs.Trace.jsonl path | None -> Obs.Trace.null
  in
  let obs = Obs.create ~sink () in
  let flushed = Atomic.make false in
  let flush_telemetry () =
    if Atomic.compare_and_set flushed false true then begin
      Option.iter (fun fmt -> print_string (Obs.Stats.render ~command obs fmt)) stats;
      flush stdout;
      Obs.Trace.close sink
    end
  in
  let handle code _signum =
    flush_telemetry ();
    exit code
  in
  let restore =
    List.filter_map
      (fun (signal, code) ->
        try
          let prev = Sys.signal signal (Sys.Signal_handle (handle code)) in
          Some (signal, prev)
        with Sys_error _ | Invalid_argument _ -> None)
      [ (Sys.sigint, 130); (Sys.sigterm, 143) ]
  in
  let code =
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun (signal, prev) -> Sys.set_signal signal prev) restore;
        flush_telemetry ())
      (fun () -> f obs)
  in
  if code <> 0 then exit code

(* ------------------------------------------------------------------ *)
(* the Request/Response code path.  Every engine subcommand builds an
   [Api.Request.t], hands it to [Dispatch] — in-process by default, over
   a daemon's socket with [--connect] — and derives its printing and its
   exit code from the [Api.Response.t].  CLI and daemon cannot drift:
   they run the same requests through the same handler. *)

type supervise_opts = {
  retries : int option;  (* --retries: attempts per chunk before quarantine *)
  quarantine_report : string option;  (* --quarantine-report FILE *)
  heartbeat : float option;  (* --heartbeat: watchdog stall interval, seconds *)
  chaos_rate : float option;  (* --chaos-rate: injected failure probability *)
  chaos_seed : int;
  chaos_attempts : int;
}

(* Flags to the one serializable config record.  [--quarantine-report]
   stays CLI-only (where to write a file is not part of the query). *)
let build_config ~cap ~jobs ~kernel ~deadline ?(sym = false) sup =
  (match deadline with
  | Some s when s <= 0.0 ->
      prerr_endline "--deadline must be positive";
      exit 2
  | _ -> ());
  let config =
    Api.Config.v ~jobs ~cap ?deadline ~kernel ?retries:sup.retries
      ?heartbeat:sup.heartbeat ?chaos_rate:sup.chaos_rate ~chaos_seed:sup.chaos_seed
      ~chaos_attempts:sup.chaos_attempts ~sym ()
  in
  match Api.Config.validate config with
  | Ok () -> config
  | Error msg ->
      prerr_endline msg;
      exit 2

(* In-process dispatch: a private pool sized by the request's config,
   the CLI's own [obs] backing the supervisor ledger — exactly what the
   daemon does per request, minus the store. *)
let run_local ~obs ~command req =
  let jobs =
    resolve_jobs
      (match Api.Request.config req with
      | Some c -> c.Api.Config.jobs
      | None -> 1)
  in
  Pool.with_pool ~obs ~jobs @@ fun pool ->
  let env = Dispatch.env ~supervision_obs:obs ~obs ~command pool in
  Dispatch.handle env req

let dispatch ~connect ~obs ~command req =
  match connect with
  | None -> run_local ~obs ~command req
  | Some socket -> (
      match Client.one_shot ~socket req with
      | Ok resp -> resp
      | Error msg ->
          Api.Response.error ~code:Api.Response.err_internal
            (Printf.sprintf "daemon at %s: %s" socket msg))

(* Shared response epilogue: error reporting, the quarantine ledger, the
   degradation banner, and the one exit-code policy
   ([Api.Response.exit_code]) — identical CLI or daemon. *)
let finish ?quarantine_report (resp : Api.Response.t) on_body =
  (match resp.Api.Response.body with
  | Api.Response.Error { code = _; message } -> Printf.eprintf "rcn: %s\n" message
  | body -> on_body body);
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (Api.Response.quarantine_report resp));
      Printf.printf "quarantine report written to %s\n" path)
    quarantine_report;
  (let q = List.length resp.Api.Response.quarantined in
   if q > 0 then
     Printf.printf "SUPERVISED: %d chunk%s quarantined (results degraded, not lost)\n" q
       (if q = 1 then "" else "s"));
  Api.Response.exit_code resp

(* ------------------------------------------------------------------ *)
(* analyze *)

let analyze ty cap certs jobs kernel deadline sym sup_opts connect trace stats =
  with_obs ~command:"analyze" trace stats @@ fun obs ->
  let config = build_config ~cap ~jobs ~kernel ~deadline ~sym sup_opts in
  let req =
    Api.Request.Analyze { spec = Objtype.to_spec_string ty; config }
  in
  let resp = dispatch ~connect ~obs ~command:"analyze" req in
  finish ?quarantine_report:sup_opts.quarantine_report resp (function
    | Api.Response.Analysis { analysis = a; from_store } ->
        Format.printf "%a@." Analysis.pp a;
        if from_store then Printf.printf "(served from the result store)\n";
        if certs then begin
          (match a.Analysis.discerning.Analysis.certificate with
          | Some c -> Format.printf "@.discerning witness:@.%a@." Certificate.pp c
          | None -> ());
          match a.Analysis.recording.Analysis.certificate with
          | Some c ->
              Format.printf "@.recording witness:@.%a@.clean: %b@." Certificate.pp c
                (Certificate.is_clean c)
          | None -> ()
        end
    | _ -> prerr_endline "rcn: unexpected response kind")

(* ------------------------------------------------------------------ *)
(* gallery *)

let gallery cap jobs kernel =
  let config = Api.Config.v ~cap ~kernel () in
  Pool.with_pool ~jobs:(resolve_jobs jobs) @@ fun pool ->
  Format.printf "%-18s %-9s %-9s %-9s %-9s %-9s@." "type" "readable" "disc" "rec" "cons"
    "rcons";
  List.iter
    (fun a -> Format.printf "%a@." Analysis.pp a)
    (Engine.analyze_all ~config pool (List.map snd (Gallery.all ())))

(* ------------------------------------------------------------------ *)
(* statemachine (Figure 3) *)

let statemachine ty dot all_values =
  let reachable_only = not all_values in
  if dot then print_string (Dot.to_dot ~reachable_only ty)
  else print_string (Dot.to_ascii ~reachable_only ty)

(* ------------------------------------------------------------------ *)
(* simulate / certify *)

type packed = Packed : 'st Program.t -> packed

let protocols =
  [
    ("tnn-waitfree", "wait-free n-consensus on T_{n,n'} (paper Section 4)");
    ("tnn-recoverable", "recoverable n'-consensus on T_{n,n'} (paper Section 4)");
    ("tnn-overloaded", "the recoverable protocol run by n'+1 processes (breaks)");
    ("cas", "n-process consensus from compare-and-swap");
    ("sticky", "n-process consensus from a sticky bit");
    ("tas2", "2-process consensus from test-and-set (breaks under crashes)");
    ("race", "register-only negative control (breaks even crash-free)");
    ("election2", "recoverable consensus from a clean 2-recording certificate");
    ("discerning2", "crash-free consensus from a 2-discerning certificate (Ruppert)");
    ("tournament", "n-process recoverable consensus via a certificate tournament (use -n)");
  ]

let build_protocol name ~n ~n' =
  match name with
  | "tnn-waitfree" -> Ok (Packed (Tnn_protocol.wait_free ~n ~n'), n)
  | "tnn-recoverable" -> Ok (Packed (Tnn_protocol.recoverable ~n ~n'), n')
  | "tnn-overloaded" ->
      Ok (Packed (Tnn_protocol.recoverable_overloaded ~procs:(n' + 1) ~n ~n'), n' + 1)
  | "cas" -> Ok (Packed (Classic.cas_consensus ~nprocs:n), n)
  | "sticky" -> Ok (Packed (Classic.sticky_consensus ~nprocs:n), n)
  | "tas2" -> Ok (Packed Classic.tas_consensus_2, 2)
  | "race" -> Ok (Packed (Classic.register_race ~nprocs:2), 2)
  | "election2" -> (
      match Decide.search Decide.Recording (Gallery.team_ladder ~cap:2) ~n:2 with
      | Some cert -> Ok (Packed (Election.consensus_2 cert), 2)
      | None -> Error (`Msg "no 2-recording certificate for team-ladder-2 (unexpected)"))
  | "discerning2" -> (
      match Decide.search Decide.Discerning Gallery.test_and_set ~n:2 with
      | Some cert -> Ok (Packed (Election.discerning_consensus_2 cert), 2)
      | None -> Error (`Msg "no 2-discerning certificate for test-and-set (unexpected)"))
  | "tournament" -> (
      match Tournament.plan (Gallery.team_ladder ~cap:n) ~nprocs:n with
      | Ok plan -> Ok (Packed (Tournament.consensus plan), n)
      | Error m -> Error (`Msg ("tournament planning failed: " ^ m)))
  | other ->
      Error
        (`Msg
          (Printf.sprintf "unknown protocol %S; available: %s" other
             (String.concat ", " (List.map fst protocols))))

let binary_inputs n = List.init (1 lsl n) (fun mask -> Array.init n (fun i -> (mask lsr i) land 1))

let simulate name n n' seeds crash_prob z =
  match build_protocol name ~n ~n' with
  | Error (`Msg m) -> prerr_endline m; exit 2
  | Ok (Packed p, procs) ->
      let inputs_list = binary_inputs procs in
      let violations = ref 0 and undecided = ref 0 and runs = ref 0 in
      List.iter
        (fun inputs ->
          for seed = 1 to seeds do
            incr runs;
            let adv = Adversary.random ~crash_prob ~seed ~nprocs:procs in
            let c0 = Config.initial p ~inputs in
            let budget = Budget.counter ~z ~nprocs:procs in
            let final, _, out =
              Exec.run_adversary p c0
                ~pick:(fun ~decided b -> adv ~decided b)
                ~budget ~fuel:5000 ()
            in
            if not out.Exec.all_decided then incr undecided
            else if not (Checker.is_ok (Checker.consensus p final)) then incr violations
          done)
        inputs_list;
      Printf.printf "%s: %d runs, %d agreement/validity violations, %d incomplete\n"
        p.Program.name !runs !violations !undecided;
      if !violations > 0 then exit 1

let certify name n n' z max_events =
  match build_protocol name ~n ~n' with
  | Error (`Msg m) -> prerr_endline m; exit 2
  | Ok (Packed p, procs) -> (
      let inputs_list = binary_inputs procs in
      match Counterexample.certify ~max_events ~z ~inputs_list p with
      | Ok (), truncated ->
          Printf.printf "%s: certified, no violation in E_%d^* executions%s\n" p.Program.name z
            (if truncated then " (TRUNCATED — result is partial)" else " (exhaustive)")
      | Error r, _ ->
          Printf.printf "%s: VIOLATION with inputs [%s]:\n  schedule: %s\n" p.Program.name
            (String.concat "; " (Array.to_list (Array.map string_of_int r.Counterexample.inputs)))
            (Sched.to_string r.Counterexample.schedule);
          exit 1)

(* ------------------------------------------------------------------ *)
(* trace *)

let trace name n n' schedule_text inputs_text =
  match build_protocol name ~n ~n' with
  | Error (`Msg m) -> prerr_endline m; exit 2
  | Ok (Packed p, procs) -> (
      match Sched.of_string schedule_text with
      | Error m -> prerr_endline ("bad schedule: " ^ m); exit 2
      | Ok sched ->
          let inputs =
            match inputs_text with
            | None -> Array.init procs (fun i -> i mod 2)
            | Some text ->
                let digits = List.init (String.length text) (String.get text) in
                Array.of_list (List.map (fun c -> Char.code c - Char.code '0') digits)
          in
          if Array.length inputs <> procs then begin
            Printf.eprintf "expected %d inputs\n" procs;
            exit 2
          end;
          let c0 = Config.initial p ~inputs in
          let final, events = Exec.run_schedule p c0 sched in
          Format.printf "%a" (Exec.pp_trace p) events;
          Array.iteri
            (fun i d ->
              match d with
              | Some v -> Format.printf "p%d decided %d@." i v
              | None -> Format.printf "p%d undecided@." i)
            (Config.decisions p final);
          Format.printf "verdict: %a@." Checker.pp_verdict (Checker.consensus p final))

(* ------------------------------------------------------------------ *)
(* synth *)

let synth target values rws responses seed iters incremental save portfolio jobs
    deadline sup_opts connect trace stats =
  with_obs ~command:"synth" trace stats @@ fun obs ->
  let space = { Synth.num_values = values; num_rws = rws; num_responses = responses } in
  let config = build_config ~cap:5 ~jobs ~kernel:Kernel.Trie ~deadline sup_opts in
  let config = { config with Api.Config.incremental } in
  let req =
    Api.Request.Synth
      { space; target; seed; iterations = iters; restart_every = None; portfolio; config }
  in
  let resp = dispatch ~connect ~obs ~command:"synth" req in
  finish ?quarantine_report:sup_opts.quarantine_report resp (function
    | Api.Response.Synth { witness = Some w } ->
        Printf.printf "witness found after %d evaluations:\n" w.Synth.iterations;
        Format.printf "%a@." Objtype.pp_table w.Synth.objtype;
        Printf.printf "consensus number %d, recoverable consensus number %d\n"
          w.Synth.discerning_level w.Synth.recording_level;
        Option.iter
          (fun path ->
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc (Objtype.to_spec_string w.Synth.objtype));
            Printf.printf "saved to %s (re-analyze with `rcn analyze %s`)\n" path path)
          save
    | Api.Response.Synth { witness = None } ->
        Printf.printf "no witness found within %d evaluations\n" iters
    | _ -> prerr_endline "rcn: unexpected response kind")

(* ------------------------------------------------------------------ *)
(* chain (Theorem 13's construction) *)

let chain name n n' z max_events inputs_text =
  match build_protocol name ~n ~n' with
  | Error (`Msg m) -> prerr_endline m; exit 2
  | Ok (Packed p, procs) ->
      let inputs =
        match inputs_text with
        | None -> Array.init procs (fun i -> i mod 2)
        | Some text -> Array.init (String.length text) (fun i -> Char.code text.[i] - Char.code '0')
      in
      if Array.length inputs <> procs then begin
        Printf.eprintf "expected %d inputs\n" procs;
        exit 2
      end;
      let ctx = Explore.create ~z ~max_events p in
      let steps, outcome = Explore.theorem13_chain ctx (Explore.root ctx ~inputs) in
      List.iteri
        (fun i (s : Explore.chain_step) ->
          Format.printf "round %d: critical [%s]@." i (Sched.to_string s.Explore.schedule);
          List.iter
            (fun (p, v) -> Format.printf "  p%d on team %d@." p v)
            s.Explore.step_teams;
          Format.printf "  classification: %s@."
            (match s.Explore.step_classification with
            | Explore.N_recording -> "n-recording"
            | Explore.Hiding v -> Printf.sprintf "%d-hiding" v
            | Explore.Neither -> "neither"))
        steps;
      (match outcome with
      | Explore.Reached_recording ->
          Format.printf "chain ended at an n-recording configuration (Theorem 13)@."
      | Explore.Exhausted i -> Format.printf "chain exhausted after %d rounds@." i
      | Explore.Stuck m -> Format.printf "chain stuck: %s@." m)

(* ------------------------------------------------------------------ *)
(* census *)

(* "SLOT:N,SLOT:N" fault-injection specs for the distributed census. *)
let parse_slot_spec ~flag text =
  match text with
  | None -> []
  | Some text ->
      List.map
        (fun part ->
          match String.split_on_char ':' part with
          | [ slot; n ] -> (
              match (int_of_string_opt slot, int_of_string_opt n) with
              | Some slot, Some n when slot >= 0 && n > 0 -> (slot, n)
              | _ ->
                  Printf.eprintf "%s: bad entry %S (want SLOT:N)\n" flag part;
                  exit 2)
          | _ ->
              Printf.eprintf "%s: bad entry %S (want SLOT:N)\n" flag part;
              exit 2)
        (String.split_on_char ',' text)

(* A census body, either path; [flag] names the progress file option a
   PARTIAL run is finished with. *)
let print_census ~flag progress = function
  | Api.Response.Census run ->
      Format.printf "%a@." Census.pp run.Api.Response.entries;
      Option.iter
        (fun path ->
          if run.Api.Response.resumed > 0 then
            Printf.printf "resumed %d previously decided tables from %s\n"
              run.Api.Response.resumed path)
        progress;
      if not run.Api.Response.complete then
        Printf.printf "PARTIAL: %d of %d tables decided%s\n" run.Api.Response.completed
          run.Api.Response.total
          (match progress with
          | Some path -> Printf.sprintf " (re-run with %s %s --resume to finish)" flag path
          | None -> "")
  | _ -> prerr_endline "rcn: unexpected response kind"

(* The distributed path: Dist.census over worker processes, folded back
   into the same Api.Response shape so printing, the quarantine banner
   and the exit-code policy are exactly the single-process ones. *)
let census_dist ~obs ~space ~config ~workers ~ledger ~resume ~lease_ttl ~chunk
    ~stride ~crash ~throttle sup_opts =
  let resp =
    Dispatch.guard @@ fun () ->
    match
      Dist.census ~obs ?ledger ~resume ?lease_ttl ?chunk ?stride
        ?range_attempts:config.Api.Config.retries ~crash ~throttle ~workers
        ~config space
    with
    | outcome ->
        Api.Response.make ~quarantined:outcome.Dist.quarantined
          (Api.Response.Census
             {
               Api.Response.entries = outcome.Dist.entries;
               total = outcome.Dist.total;
               completed = outcome.Dist.completed;
               resumed = outcome.Dist.resumed;
               complete = outcome.Dist.complete;
             })
    | exception Invalid_argument msg -> Api.Response.error msg
  in
  finish ?quarantine_report:sup_opts.quarantine_report resp
    (print_census ~flag:"--ledger" ledger)

let census values rws responses cap sample_count seed jobs kernel deadline sym
    checkpoint resume durable workers ledger lease_ttl dist_chunk dist_stride
    dist_crash dist_throttle sup_opts connect trace stats =
  with_obs ~command:"census" trace stats @@ fun obs ->
  let space = { Synth.num_values = values; num_rws = rws; num_responses = responses } in
  if workers < 0 then begin
    prerr_endline "--workers must be nonnegative";
    exit 2
  end;
  if workers > 0 then begin
    (* the distributed coordinator owns sharding and durability; the
       single-process conveniences don't compose with it *)
    List.iter
      (fun (set, flag) ->
        if set then begin
          Printf.eprintf "%s cannot be combined with --workers\n" flag;
          exit 2
        end)
      [
        (connect <> None, "--connect");
        (sample_count <> None, "--sample");
        (checkpoint <> None, "--checkpoint (use --ledger)");
        (durable, "--durable (the ledger is always fsync'd)");
      ];
    let config = build_config ~cap ~jobs ~kernel ~deadline ~sym sup_opts in
    (* the ledger is this path's progress file: validate it as one *)
    (match
       Api.Request.validate
         (Api.Request.Census
            { space; sample = None; seed; checkpoint = ledger; resume; durable; config })
     with
    | Ok () -> ()
    | Error msg ->
        Printf.eprintf "rcn: %s\n" msg;
        exit 2);
    census_dist ~obs ~space ~config ~workers ~ledger ~resume ~lease_ttl
      ~chunk:dist_chunk ~stride:dist_stride
      ~crash:(parse_slot_spec ~flag:"--dist-crash" dist_crash)
      ~throttle:(parse_slot_spec ~flag:"--dist-throttle" dist_throttle)
      sup_opts
  end
  else begin
    let config = build_config ~cap ~jobs ~kernel ~deadline ~sym sup_opts in
    let req =
      Api.Request.Census
        { space; sample = sample_count; seed; checkpoint; resume; durable; config }
    in
    let resp = dispatch ~connect ~obs ~command:"census" req in
    finish ?quarantine_report:sup_opts.quarantine_report resp
      (print_census ~flag:"--checkpoint" checkpoint)
  end

(* ------------------------------------------------------------------ *)
(* worker: the child process half of `rcn census --workers N`.  Speaks
   the Api.Worker frame protocol on stdin (the coordinator's socketpair
   end); never meant to be run by hand. *)

let worker config_json values rws responses stride throttle_us crash_after =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Sys_error _ | Invalid_argument _ -> ());
  let space = { Synth.num_values = values; num_rws = rws; num_responses = responses } in
  match Result.bind (Wire.of_string config_json) Api.Config.of_json with
  | Error msg ->
      Printf.eprintf "rcn worker: bad --config: %s\n" msg;
      exit 2
  | Ok config ->
      exit (Dist_worker.run ~stride ~throttle_us ~crash_after ~config ~space
              ~fd:Unix.stdin ())

(* ------------------------------------------------------------------ *)
(* soak: the kill(-9) chaos harness.  Spawns a real [rcn census
   --checkpoint --resume] child, SIGKILLs it at seeded progress points,
   resumes it until it completes, and asserts the recovered histogram is
   bit-identical to an uninterrupted in-process reference. *)

(* Completed census progress: lines that are "<magic> done " record
   headers (the prefix follows [Dist_ledger.magic], so a magic bump
   cannot silently turn the soaks into no-kill runs).  Payload lines are
   single-line JSON (or the header string), so the prefix cannot occur
   mid-record. *)
let count_done_records path =
  let prefix = Dist_ledger.magic ^ " done " in
  if not (Sys.file_exists path) then 0
  else
    In_channel.with_open_bin path (fun ic ->
        let n = ref 0 in
        let rec loop () =
          match In_channel.input_line ic with
          | Some line ->
              if String.starts_with ~prefix line then incr n;
              loop ()
          | None -> ()
        in
        loop ();
        !n)

(* Spawn one process and watch a progress counter: SIGKILL it when the
   counter reaches [target] ([max_int] = let it finish), fail the cycle
   past [timeout] seconds of wall clock. *)
let watch_child ~argv ~count ~target ~timeout =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process argv.(0) argv devnull devnull Unix.stderr in
  Unix.close devnull;
  let t0 = Obs.Clock.now () in
  let kill_and_reap () =
    Unix.kill pid Sys.sigkill;
    ignore (Fsio.Retry.eintr (fun () -> Unix.waitpid [] pid))
  in
  let rec watch () =
    match Fsio.Retry.eintr (fun () -> Unix.waitpid [ Unix.WNOHANG ] pid) with
    | 0, _ ->
        if count () >= target then begin
          kill_and_reap ();
          `Killed (count ())
        end
        else if Obs.Clock.now () -. t0 > timeout then begin
          kill_and_reap ();
          `Timeout
        end
        else begin
          Obs.Clock.sleep 0.005;
          watch ()
        end
    | _, Unix.WEXITED 0 -> `Completed
    | _, status -> `Failed status
  in
  watch ()

(* The census child a soak kills: this binary, the soaked space, and
   the path-specific [extra] flags. *)
let soak_argv ~values ~rws ~responses ~cap ~jobs ~kernel extra =
  Array.of_list
    ([
       Sys.executable_name; "census";
       "--values"; string_of_int values;
       "--rws"; string_of_int rws;
       "--responses"; string_of_int responses;
       "--cap"; string_of_int cap;
       "--jobs"; string_of_int jobs;
       "--kernel"; Kernel.mode_to_string kernel;
     ]
    @ extra)

(* The soak loop: one child per kill target, SIGKILLed once [count]
   reaches the target, then one final run left to finish.  [who] names
   the child in the log, [progress] the denominator of [count].  Returns
   the number of kills, or [None] after a timeout or a failed child. *)
let kill_cycles ~argv ~count ~targets ~timeout ~who ~progress =
  let killed = ref 0 in
  let rec go i = function
    | [] -> (
        match watch_child ~argv:(argv ()) ~count ~target:max_int ~timeout with
        | `Completed -> Some !killed
        | `Timeout ->
            Printf.printf "final run: TIMEOUT after %.0fs\n%!" timeout;
            None
        | `Killed _ | `Failed _ ->
            Printf.printf "final run: %s failed\n%!" who;
            None)
    | target :: rest -> (
        match watch_child ~argv:(argv ()) ~count ~target ~timeout with
        | `Killed at ->
            incr killed;
            Printf.printf "cycle %d: %s killed at %d/%s\n%!" i who at progress;
            go (i + 1) rest
        | `Completed ->
            Printf.printf "cycle %d: census completed before kill point %d\n%!" i target;
            go (i + 1) rest
        | `Timeout ->
            Printf.printf "cycle %d: TIMEOUT after %.0fs\n%!" i timeout;
            None
        | `Failed _ ->
            Printf.printf "cycle %d: %s failed\n%!" i who;
            None)
  in
  go 1 targets

(* soak --dist: the kill(-9) soak generalized to whole processes.  Every
   coordinator incarnation injects one seeded self-SIGKILL per worker
   slot; the coordinator itself is SIGKILLed at seeded ledger-progress
   points and resumed from the ledger.  The final audit replays the
   ledger the way a recovering coordinator would (Dist_ledger.plan_of_ledger)
   and insists on full disjoint coverage with a histogram bit-identical
   to the uninterrupted in-process census. *)
let soak_dist ~obs ~space ~values ~rws ~responses ~cap ~kills ~coordinator_kills
    ~seed ~jobs ~kernel ~ledger ~timeout ~workers =
  if workers < 1 then begin
    prerr_endline "--workers must be >= 1 with --dist";
    exit 2
  end;
  if coordinator_kills < 1 then begin
    prerr_endline "--coordinator-kills must be >= 1";
    exit 2
  end;
  let config = Api.Config.v ~cap ~kernel ~jobs () in
  let reference =
    Pool.with_pool ~obs ~jobs @@ fun pool -> Engine.census ~obs ~config pool space
  in
  let total = reference.Engine.total in
  let path, temp =
    match ledger with
    | Some p -> (p, false)
    | None -> (Filename.temp_file "rcn_soak_dist" ".ledger", true)
  in
  if Sys.file_exists path then Sys.remove path;
  let chunk = max 32 (1 + ((total - 1) / max 1 (4 * workers))) in
  let chunks = (total + chunk - 1) / chunk in
  Printf.printf
    "soak --dist: %d tables in %d chunks, %d workers (1 seeded crash each per \
     incarnation), %d coordinator kill(s), seed %d\n%!"
    total chunks workers coordinator_kills seed;
  let rng = Random.State.make [| 0xd157; seed; kills; coordinator_kills |] in
  (* early enough to fire inside the first lease even in small spaces *)
  let crash_bound = max 2 (min 200 (chunk / 2)) in
  let crash_spec () =
    List.init workers (fun i ->
        Printf.sprintf "%d:%d" i (1 + Random.State.int rng crash_bound))
    |> String.concat ","
  in
  let targets =
    List.init coordinator_kills (fun _ ->
        1 + Random.State.int rng (max 1 (chunks - 1)))
    |> List.sort compare
  in
  let child_argv () =
    soak_argv ~values ~rws ~responses ~cap ~jobs ~kernel
      [
        "--workers"; string_of_int workers;
        "--ledger"; path;
        "--resume";
        "--retries"; "6";
        "--dist-chunk"; string_of_int chunk;
        "--dist-stride"; "16";
        "--dist-crash"; crash_spec ();
      ]
  in
  match
    kill_cycles ~argv:child_argv ~count:(fun () -> count_done_records path) ~targets
      ~timeout ~who:"coordinator" ~progress:(Printf.sprintf "%d ledger results" chunks)
  with
  | None -> 1
  | Some coord_kills ->
      let expected = Dist_ledger.header ~space ~cap ~total () in
      let plan = Dist_ledger.plan_of_ledger ~expected ~total path in
      let identical = plan.Dist_ledger.plan_entries = reference.Engine.entries in
      let covered =
        plan.Dist_ledger.plan_covered = total && plan.Dist_ledger.plan_gaps = []
      in
      if covered && identical && plan.Dist_ledger.plan_deaths >= kills then begin
        Printf.printf
          "soak --dist: OK — survived %d worker death(s) and %d coordinator \
           kill(-9)s; ledger-merged histogram bit-identical to the \
           single-process census (%d tables)\n"
          plan.Dist_ledger.plan_deaths coord_kills total;
        if temp then Sys.remove path;
        0
      end
      else begin
        Printf.printf
          "soak --dist: FAIL — covered=%b identical=%b deaths=%d (wanted >= %d); \
           ledger kept at %s\n"
          covered identical plan.Dist_ledger.plan_deaths kills path;
        1
      end

let soak values rws responses cap kills seed jobs kernel checkpoint timeout dist
    workers coordinator_kills ledger trace stats =
  with_obs ~command:"soak" trace stats @@ fun obs ->
  let jobs = resolve_jobs jobs in
  if kills < 1 then begin
    prerr_endline "--kills must be >= 1";
    exit 2
  end;
  if timeout <= 0.0 then begin
    prerr_endline "--timeout must be positive";
    exit 2
  end;
  let space = { Synth.num_values = values; num_rws = rws; num_responses = responses } in
  if dist then
    soak_dist ~obs ~space ~values ~rws ~responses ~cap ~kills ~coordinator_kills
      ~seed ~jobs ~kernel ~ledger ~timeout ~workers
  else begin
  let path, temp =
    match checkpoint with
    | Some p -> (p, false)
    | None -> (Filename.temp_file "rcn_soak" ".ckpt", true)
  in
  if Sys.file_exists path then Sys.remove path;
  let config = Api.Config.v ~cap ~kernel () in
  (* The uninterrupted truth the recovered run must reproduce. *)
  let reference =
    Pool.with_pool ~obs ~jobs @@ fun pool -> Engine.census ~obs ~config pool space
  in
  let total = reference.Engine.total in
  (* An uninterrupted run appends one Done record per 32-table chunk. *)
  let records = (total + 31) / 32 in
  Printf.printf "soak: %d tables (%d values, %d rws, %d responses), %d kill cycles, seed %d\n%!"
    total values rws responses kills seed;
  (* Seeded ascending kill points over the Done-record count, so each
     cycle makes progress before dying; identical seeds kill at
     identical progress, making failures replayable. *)
  let targets =
    let rng = Random.State.make [| 0x50a4; seed; kills |] in
    List.init kills (fun _ ->
        max 1 (int_of_float (float_of_int records *. (0.05 +. Random.State.float rng 0.85))))
    |> List.sort compare
  in
  let argv () =
    soak_argv ~values ~rws ~responses ~cap ~jobs ~kernel
      [ "--checkpoint"; path; "--resume"; "--durable" ]
  in
  match
    kill_cycles ~argv ~count:(fun () -> count_done_records path) ~targets ~timeout
      ~who:"child" ~progress:(Printf.sprintf "%d records" records)
  with
  | None -> 1
  | Some killed ->
    (* Resume the finished checkpoint in-process: every table must
       come from the file, and the histogram must be bit-identical
       to the uninterrupted reference. *)
    let final =
      Pool.with_pool ~obs ~jobs @@ fun pool ->
      Engine.census ~obs ~checkpoint:path ~resume:true ~config pool space
    in
    if
      final.Engine.complete
      && final.Engine.resumed = total
      && final.Engine.entries = reference.Engine.entries
    then begin
      Printf.printf
        "soak: OK — survived %d kill(-9)s; recovered histogram bit-identical to \
         reference (%d tables)\n"
        killed total;
      if temp then Sys.remove path;
      0
    end
    else begin
      Printf.printf
        "soak: FAIL — recovered run differs from reference (complete=%b resumed=%d/%d \
         entries_match=%b); checkpoint kept at %s\n"
        final.Engine.complete final.Engine.resumed total
        (final.Engine.entries = reference.Engine.entries)
        path;
      1
    end
  end

(* ------------------------------------------------------------------ *)
(* store maintenance *)

(* ------------------------------------------------------------------ *)
(* crashtest: enumerate seeded fault plans against every durable
   artifact — the serve store log and the census ledger (the one
   progress format of both the distributed coordinator and the
   in-process checkpoint) — re-open after each plan, and assert the
   recovery invariants:

   - recovery never raises on torn input (a crash can only tear the
     tail, and replay truncates it);
   - no record acknowledged by an honest append+fsync is ever lost
     (records acknowledged across a lying fsync are exempt: losing them
     to a power-loss crash is the fsyncgate outcome the model exists to
     expose);
   - injected mid-log corruption is always detected and reported
     ([Fsio.Corrupt]), never silently truncated.

   Deterministic by construction: plans fire by global operation index
   and the seeded plans derive from [--seed] via the pinned Fsio LCG,
   so a failing plan label reproduces the failure exactly. *)

type crashtest_workload = {
  ct_attempted : (string * string) list;
      (* (id, exact bytes) of every record the workload tried to append,
         in order — recovery must find a per-record-equal prefix *)
  ct_honest : (string * string) list;
      (* the honestly-acknowledged subset: append + fsync returned and
         the fsync did not lie — recovery must reproduce every one *)
}

type crashtest_artifact = {
  ct_name : string;
  ct_workload : path:string -> Fsio.Injector.t option -> crashtest_workload;
  ct_recover : path:string -> (string * string) list;
      (* replay the artifact; raises are the driver's to judge *)
  ct_prefix : bool;  (* recovery yields a prefix of the append order *)
}

let ct_lie injector =
  match injector with Some i -> Fsio.Injector.lie_count i | None -> 0

(* Ack bookkeeping shared by the workloads: an append lands in the
   volatile set; the next non-lying fsync promotes the whole volatile
   set (an honest fsync persists every byte before it, including bytes
   an earlier fsync lied about). *)
let ct_tracker injector =
  let attempted = ref [] and honest = ref [] and vol = ref [] in
  let attempt id bytes = attempted := (id, bytes) :: !attempted in
  let appended id bytes ~lie_before =
    vol := (id, bytes) :: !vol;
    if ct_lie injector = lie_before then begin
      honest := !vol @ !honest;
      vol := []
    end
  in
  let result () =
    { ct_attempted = List.rev !attempted; ct_honest = List.rev !honest }
  in
  (attempt, appended, result)

(* --- store ------------------------------------------------------- *)

let ct_store_items =
  List.init 6 (fun k ->
      ( Printf.sprintf "k%d" k,
        Printf.sprintf "payload-%d-%s" k (String.make (8 + (3 * k)) 'x') ))

let ct_store_workload ~path injector =
  let attempt, appended, result = ct_tracker injector in
  (try
     let store = Store.open_store ?injector ~fsync:true path in
     List.iter
       (fun (k, v) ->
         let lie_before = ct_lie injector in
         attempt k v;
         match Store.put store ~key:k v with
         | () ->
             (* a degraded store drops the put without raising — no ack *)
             if not (Store.readonly store) then appended k v ~lie_before
         | exception Fsio.Io_error _ -> ())
       ct_store_items;
     Store.close store
   with Fsio.Crashed | Fsio.Io_error _ -> ());
  result ()

let ct_store_recover ~path =
  let store = Store.open_store path in
  Fun.protect
    ~finally:(fun () -> try Store.close store with Fsio.Io_error _ -> ())
    (fun () ->
      List.filter_map
        (fun (k, _) -> Option.map (fun v -> (k, v)) (Store.find store k))
        ct_store_items)

(* The byte the corruption corpus flips in a clean artifact: the first
   payload byte of the first record — mid-log (more records follow),
   past the magic, and covered by the CRC.  Both artifacts are
   Fsio.Record logs. *)
let ct_record_flip contents =
  match String.index_opt contents '\n' with
  | Some nl when nl + 1 < String.length contents -> nl + 1
  | _ -> invalid_arg "crashtest: clean artifact too short to corrupt"

(* --- dist ledger -------------------------------------------------- *)

let ct_space = { Synth.num_values = 2; num_rws = 2; num_responses = 2 }
let ct_expected_ledger = Dist_ledger.header ~space:ct_space ~cap:2 ~total:16 ()

let ct_ledger_records =
  [
    Dist_ledger.Grant { lease = 1; lo = 0; hi = 8; worker = 0 };
    Dist_ledger.Done { lo = 0; hi = 8; entries = [ (1, 1, 4); (2, 1, 4) ] };
    Dist_ledger.Grant { lease = 2; lo = 8; hi = 16; worker = 1 };
    Dist_ledger.Expire { lease = 2; lo = 8; hi = 16; worker = 1 };
    Dist_ledger.Death { worker = 1; pid = 4242 };
    Dist_ledger.Quarantine { lo = 8; hi = 16; attempts = 3; error = "chaos" };
  ]

let ct_ledger_workload ~path injector =
  let attempt, appended, result = ct_tracker injector in
  (try
     let header_bytes = Dist_ledger.encode (Dist_ledger.Header ct_expected_ledger) in
     let lie_before = ct_lie injector in
     attempt "header" header_bytes;
     let led, _ =
       Dist_ledger.open_ledger ?injector ~fsync:true ~expected:ct_expected_ledger
         ~resume:true path
     in
     if Dist_ledger.degraded led = None then
       appended "header" header_bytes ~lie_before;
     List.iteri
       (fun i r ->
         (* once degraded, appends drop — nothing further is attempted *)
         if Dist_ledger.degraded led = None then begin
           let lie_before = ct_lie injector in
           let id = Printf.sprintf "r%d" i in
           attempt id (Dist_ledger.encode r);
           Dist_ledger.append led r;
           if Dist_ledger.degraded led = None then
             appended id (Dist_ledger.encode r) ~lie_before
         end)
       ct_ledger_records;
     Dist_ledger.close led
   with Fsio.Crashed | Fsio.Io_error _ -> ());
  result ()

let ct_ledger_recover ~path =
  let records, _torn = Dist_ledger.load path ~expected:ct_expected_ledger in
  List.map (fun r -> ("", Dist_ledger.encode r)) records

let ct_artifacts =
  [
    {
      ct_name = "store";
      ct_workload = ct_store_workload;
      ct_recover = ct_store_recover;
      ct_prefix = false;  (* the store is a map; order is not observable *)
    };
    {
      ct_name = "ledger";
      ct_workload = ct_ledger_workload;
      ct_recover = ct_ledger_recover;
      ct_prefix = true;
    };
  ]

(* --- the driver --------------------------------------------------- *)

let ct_rm_rf dir =
  let rec go path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun e -> go (Filename.concat path e)) (Sys.readdir path);
        (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> ( try Sys.remove path with Sys_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  go dir

let ct_check_recovery out ~artifact ~label (w : crashtest_workload) recovered =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        incr out;
        Printf.eprintf "crashtest: VIOLATION [%s/%s] %s\n" artifact label msg)
      fmt
  in
  (* no acknowledged record is ever lost *)
  List.iter
    (fun (id, bytes) ->
      match List.find_opt (fun (_, b) -> b = bytes) recovered with
      | Some _ -> ()
      | None -> fail "acknowledged record %s lost after recovery" id)
    w.ct_honest;
  (* nothing recovered that was never written *)
  List.iter
    (fun (_, bytes) ->
      if not (List.exists (fun (_, b) -> b = bytes) w.ct_attempted) then
        fail "recovery produced bytes that were never appended")
    recovered

let ct_check_prefix out ~artifact ~label (w : crashtest_workload) recovered =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        incr out;
        Printf.eprintf "crashtest: VIOLATION [%s/%s] %s\n" artifact label msg)
      fmt
  in
  let rec go i att rec_ =
    match (att, rec_) with
    | _, [] -> ()
    | [], _ :: _ -> fail "recovery has more records than were appended"
    | (_, ab) :: att', (_, rb) :: rec_' ->
        if ab <> rb then fail "recovered record %d differs from append order" i
        else go (i + 1) att' rec_'
  in
  go 0 w.ct_attempted recovered

let crashtest artifact_names seed dir keep trace stats =
  with_obs ~command:"crashtest" trace stats @@ fun obs ->
  let c_plans = Obs.counter obs "crashtest.plans" in
  let c_violations = Obs.counter obs "crashtest.violations" in
  let artifacts =
    match artifact_names with
    | [] -> ct_artifacts
    | names ->
        List.map
          (fun n ->
            match List.find_opt (fun a -> a.ct_name = n) ct_artifacts with
            | Some a -> a
            | None ->
                Printf.eprintf
                  "rcn crashtest: unknown artifact %S (store|ledger)\n" n;
                exit 2)
          names
  in
  let base =
    match dir with
    | Some d -> d
    | None ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "rcn-crashtest-%d" (Unix.getpid ()))
  in
  ct_rm_rf base;
  Unix.mkdir base 0o755;
  let violations = ref 0 in
  let run_plan artifact ~label injector =
    let dir = Filename.concat base (artifact.ct_name ^ "-" ^ label) in
    Unix.mkdir dir 0o755;
    let path = Filename.concat dir "artifact.log" in
    let w =
      try artifact.ct_workload ~path injector
      with e ->
        incr violations;
        Printf.eprintf
          "crashtest: VIOLATION [%s/%s] workload leaked an exception: %s\n"
          artifact.ct_name label (Printexc.to_string e);
        { ct_attempted = []; ct_honest = [] }
    in
    Obs.Metrics.Counter.incr c_plans;
    let before = !violations in
    (match artifact.ct_recover ~path with
    | recovered ->
        ct_check_recovery violations ~artifact:artifact.ct_name ~label w recovered;
        if artifact.ct_prefix then
          ct_check_prefix violations ~artifact:artifact.ct_name ~label w recovered
    | exception e ->
        incr violations;
        Printf.eprintf "crashtest: VIOLATION [%s/%s] recovery raised: %s\n"
          artifact.ct_name label (Printexc.to_string e));
    if !violations = before then ct_rm_rf dir
  in
  List.iter
    (fun artifact ->
      (* probe: fault-free run learns the operation count *)
      let probe = Fsio.Injector.of_plan [] in
      run_plan artifact ~label:"probe" (Some probe);
      let ops = Fsio.Injector.ops probe in
      (* every point fault at every operation boundary *)
      for i = 0 to ops - 1 do
        List.iter
          (fun (label, plan) -> run_plan artifact ~label (Some (Fsio.Injector.of_plan plan)))
          [
            (Printf.sprintf "kill@%d" i, [ (i, Fsio.Crash { lose_volatile = false }) ]);
            (Printf.sprintf "powerloss@%d" i,
             [ (i, Fsio.Crash { lose_volatile = true }) ]);
            (Printf.sprintf "enospc@%d" i, [ (i, Fsio.Err Unix.ENOSPC) ]);
            (Printf.sprintf "eio@%d" i, [ (i, Fsio.Err Unix.EIO) ]);
            (Printf.sprintf "torn@%d" i, [ (i, Fsio.Torn_write { bytes = 3 }) ]);
            (Printf.sprintf "fsyncgate@%d" i,
             [ (i, Fsio.Fsync_lie); (i + 2, Fsio.Crash { lose_volatile = true }) ]);
          ]
      done;
      (* seeded combined plans *)
      for k = 0 to 7 do
        run_plan artifact
          ~label:(Printf.sprintf "seeded@%d" k)
          (Some (Fsio.Injector.seeded ~seed:(seed + (1000 * k)) ~rate:0.2 ~horizon:ops))
      done;
      (* corruption corpus: flip one CRC-covered mid-log byte of a clean
         artifact and insist the flip is detected, not eaten *)
      let dir = Filename.concat base (artifact.ct_name ^ "-corrupt") in
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "artifact.log" in
      ignore (artifact.ct_workload ~path None);
      let contents = In_channel.with_open_bin path In_channel.input_all in
      let off = ct_record_flip contents in
      let bytes = Bytes.of_string contents in
      Bytes.set bytes off (Char.chr (Char.code (Bytes.get bytes off) lxor 1));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc bytes);
      Obs.Metrics.Counter.incr c_plans;
      let before = !violations in
      (match artifact.ct_recover ~path with
      | _ ->
          incr violations;
          Printf.eprintf
            "crashtest: VIOLATION [%s/corrupt] flipped byte at offset %d was \
             silently accepted\n"
            artifact.ct_name off
      | exception Fsio.Corrupt _ -> ()
      | exception e ->
          incr violations;
          Printf.eprintf
            "crashtest: VIOLATION [%s/corrupt] flip detected but misreported: %s\n"
            artifact.ct_name (Printexc.to_string e));
      if !violations = before then ct_rm_rf dir)
    artifacts;
  Obs.Metrics.Counter.add c_violations !violations;
  let plans = Obs.Metrics.Counter.value c_plans in
  if !violations = 0 then begin
    if not keep then ct_rm_rf base;
    Printf.printf "crashtest: %d plans across %s: all recovery invariants hold\n"
      plans
      (String.concat ", " (List.map (fun a -> a.ct_name) artifacts));
    0
  end
  else begin
    Printf.printf
      "crashtest: %d violations in %d plans (artifacts kept under %s)\n"
      !violations plans base;
    1
  end

let store_compact file max_bytes trace stats =
  with_obs ~command:"store-compact" trace stats @@ fun obs ->
  (match max_bytes with
  | Some n when n < 0 ->
      prerr_endline "--max-bytes must be nonnegative";
      exit 2
  | _ -> ());
  match Store.compact ~obs ?max_bytes file with
  | kept, dropped ->
      Printf.printf "compacted %s: %d records kept, %d bytes dropped\n" file
        kept dropped;
      0
  | exception Sys_error msg ->
      Printf.eprintf "rcn store compact: %s\n" msg;
      1
  | exception ((Fsio.Io_error _ | Fsio.Corrupt _) as e) ->
      Printf.eprintf "rcn store compact: %s\n"
        (Option.value ~default:(Printexc.to_string e) (Fsio.error_message e));
      Api.Response.err_storage
  | exception Unix.Unix_error (e, fn, _) ->
      Printf.eprintf "rcn store compact: %s: %s\n" fn (Unix.error_message e);
      1

(* ------------------------------------------------------------------ *)
(* inject *)

let inject proto_names n n' seeds z fuel shrink_per_cell report_file require_violation
    trace stats =
  with_obs ~command:"inject" trace stats @@ fun obs ->
  let targets =
    List.map
      (fun name ->
        match build_protocol name ~n ~n' with
        | Error (`Msg m) -> prerr_endline m; exit 2
        | Ok (Packed p, _) -> (name, Inject.Target p))
      proto_names
  in
  let grid = Inject.default_grid ~z ~fuel ~shrink_per_cell ~seeds () in
  let report = Inject.run ~obs ~grid targets in
  let text = Inject.report_to_string report in
  print_string text;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text);
      Printf.printf "report written to %s\n" path)
    report_file;
  let violations = Inject.total_violations report in
  if require_violation && violations = 0 then begin
    prerr_endline "inject: expected at least one violation, found none";
    1
  end
  else if (not require_violation) && violations > 0 then 1
  else 0

(* ------------------------------------------------------------------ *)
(* robustness *)

let robustness names cap =
  let types =
    List.map
      (fun name ->
        match Gallery.resolve name with Ok t -> t | Error (`Msg m) -> prerr_endline m; exit 2)
      names
  in
  Format.printf "%a@." Robustness.pp_report (Robustness.analyze ~cap types)

(* ------------------------------------------------------------------ *)
(* serve: the analysis-as-a-service daemon.  Signal handling differs
   from [with_obs]: SIGINT/SIGTERM request a graceful stop (drain the
   queue, persist the store, exit 0) instead of exiting 130/143 — a
   daemon asked to stop and stopping cleanly has succeeded. *)

let serve socket store jobs queue_limit fsync trace stats =
  let sink =
    match trace with Some path -> Obs.Trace.jsonl path | None -> Obs.Trace.null
  in
  let obs = Obs.create ~sink () in
  let jobs = resolve_jobs jobs in
  let daemon =
    try Serve.create ~jobs ~queue_limit ~fsync ~obs ~socket ~store ()
    with
    | Unix.Unix_error (e, _, _) ->
        Printf.eprintf "rcn serve: cannot listen on %s: %s\n" socket
          (Unix.error_message e);
        exit 2
    | Sys_error msg ->
        Printf.eprintf "rcn serve: cannot open store %s: %s\n" store msg;
        exit 2
    | (Fsio.Io_error _ | Fsio.Corrupt _) as e ->
        Printf.eprintf "rcn serve: store %s: %s\n" store
          (Option.value ~default:(Printexc.to_string e) (Fsio.error_message e));
        exit Api.Response.err_storage
  in
  List.iter
    (fun signal ->
      try Sys.set_signal signal (Sys.Signal_handle (fun _ -> Serve.stop daemon))
      with Sys_error _ | Invalid_argument _ -> ())
    [ Sys.sigint; Sys.sigterm ];
  Printf.printf "rcn serve: listening on %s (store %s, %d jobs)\n%!" socket store jobs;
  Serve.run daemon;
  Option.iter (fun fmt -> print_string (Obs.Stats.render ~command:"serve" obs fmt)) stats;
  flush stdout;
  Obs.Trace.close sink

(* ------------------------------------------------------------------ *)
(* request: print the canonical wire form of a query — what [--connect]
   would send — for scripting against a daemon with any socket tool. *)

let request kind ty_opt cap values rws responses sample seed target iters portfolio
    jobs kernel deadline sup_opts =
  let config () = build_config ~cap ~jobs ~kernel ~deadline sup_opts in
  let space () =
    { Synth.num_values = values; num_rws = rws; num_responses = responses }
  in
  let req =
    match kind with
    | "ping" -> Api.Request.Ping
    | "metrics" -> Api.Request.Metrics
    | "analyze" -> (
        match ty_opt with
        | Some ty ->
            Api.Request.Analyze { spec = Objtype.to_spec_string ty; config = config () }
        | None ->
            prerr_endline "rcn request analyze needs a TYPE argument";
            exit 2)
    | "census" ->
        Api.Request.Census
          {
            space = space ();
            sample;
            seed;
            checkpoint = None;
            resume = false;
            durable = false;
            config = config ();
          }
    | "synth" ->
        Api.Request.Synth
          {
            space = space ();
            target;
            seed;
            iterations = iters;
            restart_every = None;
            portfolio;
            config = config ();
          }
    | other ->
        Printf.eprintf
          "rcn request: unknown kind %S (expected analyze, census, synth, metrics or \
           ping)\n"
          other;
        exit 2
  in
  print_endline (Api.Request.to_string req)

(* ------------------------------------------------------------------ *)
(* cmdliner plumbing *)

open Cmdliner

let cap_t =
  Arg.(value & opt int 5 & info [ "cap" ] ~docv:"N" ~doc:"Scan levels up to $(docv).")

let jobs_t =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"J"
        ~doc:
          "Worker domains for the decision engine (results are identical at \
           every job count).  0 means automatic: $(b,RCN_JOBS) when set, \
           otherwise the host's recommended domain count.")

let kernel_t =
  Arg.(
    value & opt kernel_conv Kernel.Trie
    & info [ "kernel" ] ~docv:"MODE"
        ~doc:
          "Decision kernel: $(b,on) / $(b,trie) (default; compiled \
           transition tables plus the schedule-prefix trie) or $(b,off) / \
           $(b,reference) (the direct reference checkers).  Both modes \
           return bit-identical results at every job count; the escape \
           hatch exists for benchmarking and for differential debugging.")

let deadline_t =
  Arg.(
    value & opt (some float) None
    & info [ "deadline" ] ~docv:"S"
        ~doc:
          "Wall-clock budget in seconds.  When it expires the engine \
           degrades instead of lying: level scans report honest \
           $(b,at-least) lower bounds and a census reports exactly the \
           tables it decided.")

let sym_t =
  Arg.(
    value
    & opt (enum [ ("on", true); ("off", false) ]) false
    & info [ "sym" ] ~docv:"MODE"
        ~doc:
          "Symmetry reduction: $(b,on) canonizes transition tables under \
           the value/operation/response relabeling group and decides one \
           representative per isomorphism class, weighting each verdict by \
           its orbit size.  The census histogram is bit-identical to \
           $(b,off) (the default) while deciding far fewer tables; an \
           analyze query served from the store may hit a cached isomorphic \
           type.")

let connect_t =
  Arg.(
    value & opt (some string) None
    & info [ "connect" ] ~docv:"SOCKET"
        ~doc:
          "Send the query to a running $(b,rcn serve) daemon over its \
           Unix-domain socket instead of computing in-process.  Output, \
           PARTIAL/quarantine semantics and the exit code are identical \
           either way — both paths run the same Request/Response handler.")

let trace_t =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a JSONL trace (one span/event object per line, flushed as \
           emitted) to $(docv).")

let stats_t =
  Arg.(
    value
    & opt (some (enum [ ("text", Obs.Stats.Text); ("json", Obs.Stats.Json) ])) None
    & info [ "stats" ] ~docv:"FORMAT"
        ~doc:
          "Print a machine-readable metrics block (counters and histograms) to \
           stdout after the command: $(b,text) is one line per metric, \
           $(b,json) a single greppable object tagged $(b,rcn_stats).")

let supervise_t =
  let retries =
    Arg.(
      value & opt (some int) None
      & info [ "retries" ] ~docv:"K"
          ~doc:
            "Self-heal: retry a failing chunk of the fan-out up to $(docv) \
             attempts (capped exponential backoff with deterministic jitter) \
             before quarantining it.  Quarantined work degrades the result \
             honestly — $(b,at-least) floors, a PARTIAL census — instead of \
             aborting the run.  Any supervision flag enables the layer; \
             without them the engine aborts on the first failure, as before.")
  in
  let quarantine_report =
    Arg.(
      value & opt (some string) None
      & info [ "quarantine-report" ] ~docv:"FILE"
          ~doc:
            "Write the machine-readable quarantine ledger (JSON: context, \
             rank range, attempts, exception per quarantined chunk, plus \
             retry and watchdog-trip totals) to $(docv).")
  in
  let heartbeat =
    Arg.(
      value & opt (some float) None
      & info [ "heartbeat" ] ~docv:"S"
          ~doc:
            "Watchdog: workers heartbeat per chunk attempt; a worker silent \
             for more than $(docv) seconds trips the watchdog, which cancels \
             the sweep cooperatively and retries it with a halved chunk size \
             (the final round runs unwatchdogged, so slow work still \
             completes).")
  in
  let chaos_rate =
    Arg.(
      value & opt (some float) None
      & info [ "chaos-rate" ] ~docv:"P"
          ~doc:
            "Fault injection: make each chunk fail with probability $(docv) \
             (deterministic in $(b,--chaos-seed)), $(i,before) any real work \
             runs, so recovered results stay bit-identical.  For exercising \
             the retry path; see also $(b,--chaos-attempts).")
  in
  let chaos_seed =
    Arg.(
      value & opt int 0
      & info [ "chaos-seed" ] ~docv:"S" ~doc:"Seed for $(b,--chaos-rate) draws.")
  in
  let chaos_attempts =
    Arg.(
      value & opt int 1
      & info [ "chaos-attempts" ] ~docv:"A"
          ~doc:
            "A chunk picked by $(b,--chaos-rate) fails its first $(docv) \
             attempts, then succeeds — set it at or above $(b,--retries) to \
             force quarantine.")
  in
  Term.(
    const (fun retries quarantine_report heartbeat chaos_rate chaos_seed chaos_attempts ->
        { retries; quarantine_report; heartbeat; chaos_rate; chaos_seed; chaos_attempts })
    $ retries $ quarantine_report $ heartbeat $ chaos_rate $ chaos_seed $ chaos_attempts)

let ty_t = Arg.(required & pos 0 (some objtype_conv) None & info [] ~docv:"TYPE" ~doc:type_arg_doc)

let n_t = Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Parameter n of T_{n,n'} / process count.")
let n'_t = Arg.(value & opt int 2 & info [ "nprime" ] ~docv:"N'" ~doc:"Parameter n' of T_{n,n'}.")
let z_t = Arg.(value & opt int 1 & info [ "z" ] ~docv:"Z" ~doc:"Crash budget parameter z of E_z^*.")

let analyze_cmd =
  let certs =
    Arg.(value & flag & info [ "certificates" ] ~doc:"Also print witnessing certificates.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Determine (recoverable) consensus numbers of a gallery type")
    Term.(
      const analyze $ ty_t $ cap_t $ certs $ jobs_t $ kernel_t $ deadline_t $ sym_t
      $ supervise_t $ connect_t $ trace_t $ stats_t)

let gallery_cmd =
  Cmd.v
    (Cmd.info "gallery" ~doc:"Analyze every gallery type (experiment E5)")
    Term.(const gallery $ cap_t $ jobs_t $ kernel_t)

let statemachine_cmd =
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit GraphViz dot instead of ASCII.") in
  let all_values =
    Arg.(value & flag & info [ "all-values" ] ~doc:"Include values unreachable from the initial value.")
  in
  Cmd.v
    (Cmd.info "statemachine"
       ~doc:"Render a type's state-machine diagram (paper Figure 3 is 'T_{5,2}')")
    Term.(const statemachine $ ty_t $ dot $ all_values)

let proto_t =
  let doc =
    Printf.sprintf "Protocol: %s."
      (String.concat "; " (List.map (fun (n, d) -> Printf.sprintf "%s (%s)" n d) protocols))
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROTOCOL" ~doc)

let simulate_cmd =
  let seeds = Arg.(value & opt int 50 & info [ "seeds" ] ~docv:"K" ~doc:"Random adversaries per input vector.") in
  let crash_prob =
    Arg.(value & opt float 0.2 & info [ "crash-prob" ] ~docv:"P" ~doc:"Crash probability per turn.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a protocol under random crash adversaries")
    Term.(const simulate $ proto_t $ n_t $ n'_t $ seeds $ crash_prob $ z_t)

let certify_cmd =
  let max_events =
    Arg.(value & opt int 60 & info [ "max-events" ] ~docv:"D" ~doc:"Execution length cap.")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:"Exhaustively model-check a protocol over bounded-crash executions")
    Term.(const certify $ proto_t $ n_t $ n'_t $ z_t $ max_events)

let synth_cmd =
  let target = Arg.(value & opt int 4 & info [ "target" ] ~docv:"N" ~doc:"Witness consensus number.") in
  let values = Arg.(value & opt int 5 & info [ "values" ] ~docv:"V" ~doc:"Values in the search space.") in
  let rws = Arg.(value & opt int 4 & info [ "rws" ] ~docv:"R" ~doc:"RMW operations in the search space.") in
  let responses = Arg.(value & opt int 5 & info [ "responses" ] ~docv:"K" ~doc:"RMW responses.") in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S" ~doc:"Random seed.") in
  let iters = Arg.(value & opt int 20000 & info [ "iterations" ] ~docv:"I" ~doc:"Fitness evaluation budget.") in
  let incremental =
    Arg.(
      value
      & opt (enum [ ("on", true); ("off", false) ]) true
      & info [ "incremental" ] ~docv:"MODE"
          ~doc:
            "Warm-start neighborhood search: $(b,on) (the default) holds one \
             compiled decision kernel per fitness level across the whole climb \
             and steps each level to a candidate's table with delta \
             invalidation, deciding the upper levels over the level below; \
             $(b,off) recompiles kernels on every candidate — \
             the ablation baseline.  The fitness trajectory and the witness \
             are bit-identical in both modes at a fixed seed.")
  in
  let save =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc:"Write the witness's specification to $(docv).")
  in
  let portfolio =
    Arg.(value & opt int 1 & info [ "portfolio" ] ~docv:"P"
           ~doc:"Independently seeded climbs run across the worker domains; \
                 the lowest-seeded success wins.")
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Search for a consensus-number gap witness (experiment E6)")
    Term.(
      const synth $ target $ values $ rws $ responses $ seed $ iters $ incremental
      $ save $ portfolio $ jobs_t $ deadline_t $ supervise_t $ connect_t $ trace_t
      $ stats_t)

let trace_cmd =
  let schedule =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"SCHEDULE"
           ~doc:"Schedule in the paper's notation, e.g. 'p0 p1 c1 p1'.")
  in
  let inputs =
    Arg.(value & opt (some string) None & info [ "inputs" ] ~docv:"BITS"
           ~doc:"Binary inputs, one digit per process (default alternating).")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Replay a schedule on a protocol and print the annotated trace")
    Term.(const trace $ proto_t $ n_t $ n'_t $ schedule $ inputs)

let chain_cmd =
  let max_events =
    Arg.(value & opt int 120 & info [ "max-events" ] ~docv:"D" ~doc:"Execution length cap.")
  in
  let inputs =
    Arg.(value & opt (some string) None & info [ "inputs" ] ~docv:"BITS"
           ~doc:"Binary inputs, one digit per process (default alternating).")
  in
  Cmd.v
    (Cmd.info "chain"
       ~doc:"Walk Theorem 13's chain construction (Figures 1-2) on a protocol")
    Term.(const chain $ proto_t $ n_t $ n'_t $ z_t $ max_events $ inputs)

let census_cmd =
  let values = Arg.(value & opt int 3 & info [ "values" ] ~docv:"V" ~doc:"Values per type.") in
  let rws = Arg.(value & opt int 2 & info [ "rws" ] ~docv:"R" ~doc:"RMW operations per type.") in
  let responses = Arg.(value & opt int 2 & info [ "responses" ] ~docv:"K" ~doc:"RMW responses per type.") in
  let sample_count =
    Arg.(value & opt (some int) None & info [ "sample" ] ~docv:"N"
           ~doc:"Sample $(docv) random types instead of exhausting the space.")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S" ~doc:"Sampling seed.") in
  let checkpoint =
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
           ~doc:"Record decided ranges in the census ledger $(docv) (the \
                 $(b,--ledger) format of $(b,--workers)), flushed as the sweep \
                 goes, so an interrupted census loses no finished work.")
  in
  let resume =
    Arg.(value & flag & info [ "resume" ]
           ~doc:"Load previously decided tables from the $(b,--checkpoint) file \
                 (with $(b,--workers): the $(b,--ledger) file) and recompute \
                 only the missing ones.  Either path resumes a file the other \
                 wrote.")
  in
  let durable =
    Arg.(value & flag & info [ "durable" ]
           ~doc:"fsync the $(b,--checkpoint) file after every append, extending \
                 crash safety from process death ($(b,kill -9)) to machine \
                 death, at the cost of one disk round trip per appended record.")
  in
  let workers =
    Arg.(value & opt int 0 & info [ "workers" ] ~docv:"N"
           ~doc:"Distribute the census over $(docv) crash-prone worker \
                 $(i,processes) (each running its own $(b,--jobs) domain \
                 pool), coordinated through a crash-safe lease ledger with \
                 heartbeat leases, work stealing and automatic respawn.  The \
                 merged histogram is bit-identical to the single-process \
                 census.  0 (the default) computes in-process.")
  in
  let ledger =
    Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE"
           ~doc:"Lease ledger path for $(b,--workers) (default: a temporary \
                 file).  Every grant, result, expiry, steal and death is \
                 appended fsync'd; $(b,--resume) replays completed ranges \
                 from it, so killing the coordinator loses no finished work.")
  in
  let lease_ttl =
    Arg.(value & opt (some float) None & info [ "lease-ttl" ] ~docv:"S"
           ~doc:"Heartbeat budget per lease (default 30): a worker silent \
                 past $(docv) seconds is SIGKILLed and its range re-leased.")
  in
  let dist_chunk =
    Arg.(value & opt (some int) None & info [ "dist-chunk" ] ~docv:"N"
           ~doc:"Ranks per lease (default: the space over 4x the workers).")
  in
  let dist_stride =
    Arg.(value & opt (some int) None & info [ "dist-stride" ] ~docv:"N"
           ~doc:"Worker batch-and-heartbeat granularity in ranks (default 32).")
  in
  let dist_crash =
    Arg.(value & opt (some string) None & info [ "dist-crash" ] ~docv:"SPEC"
           ~doc:"Fault injection: $(b,SLOT:K,...) SIGKILLs slot SLOT's \
                 first-generation worker after K tables (respawned workers \
                 run clean) — the soak and smoke harness hook.")
  in
  let dist_throttle =
    Arg.(value & opt (some string) None & info [ "dist-throttle" ] ~docv:"SPEC"
           ~doc:"Straggler injection: $(b,SLOT:US,...) delays slot SLOT's \
                 first-generation worker by US microseconds per table, \
                 exercising the work-stealing path.")
  in
  Cmd.v
    (Cmd.info "census"
       ~doc:"Histogram (discerning, recording) levels over a whole space of small types")
    Term.(
      const census $ values $ rws $ responses $ cap_t $ sample_count $ seed $ jobs_t
      $ kernel_t $ deadline_t $ sym_t $ checkpoint $ resume $ durable $ workers
      $ ledger $ lease_ttl $ dist_chunk $ dist_stride $ dist_crash $ dist_throttle
      $ supervise_t $ connect_t $ trace_t $ stats_t)

let worker_cmd =
  let config =
    Arg.(required & opt (some string) None & info [ "config" ] ~docv:"JSON"
           ~doc:"The Api.Config record, in its canonical wire form.")
  in
  let values = Arg.(value & opt int 3 & info [ "values" ] ~docv:"V" ~doc:"Values per type.") in
  let rws = Arg.(value & opt int 2 & info [ "rws" ] ~docv:"R" ~doc:"RMW operations per type.") in
  let responses = Arg.(value & opt int 2 & info [ "responses" ] ~docv:"K" ~doc:"RMW responses per type.") in
  let stride =
    Arg.(value & opt int 32 & info [ "stride" ] ~docv:"N"
           ~doc:"Tables decided between Progress heartbeats.")
  in
  let throttle_us =
    Arg.(value & opt int 0 & info [ "throttle-us" ] ~docv:"US"
           ~doc:"Sleep $(docv) microseconds per table (straggler injection).")
  in
  let crash_after =
    Arg.(value & opt int 0 & info [ "crash-after" ] ~docv:"K"
           ~doc:"SIGKILL this process after $(docv) tables (crash injection).")
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Distributed-census worker process: speaks the Api.Worker frame \
          protocol on stdin.  Spawned by $(b,rcn census --workers); not \
          meant to be run by hand.")
    Term.(
      const worker $ config $ values $ rws $ responses $ stride $ throttle_us
      $ crash_after)

let store_cmd =
  let compact =
    let file =
      Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
             ~doc:"The store log to compact in place.")
    in
    let max_bytes =
      Arg.(value & opt (some int) None & info [ "max-bytes" ] ~docv:"N"
             ~doc:"Eviction budget: after deduplication, evict records \
                   oldest-first-seen until the rewritten log fits in $(docv) \
                   bytes.  Idempotent, and covered by the same \
                   rename-atomicity crash argument as plain compaction.")
    in
    Cmd.v
      (Cmd.info "compact"
         ~doc:
           "Rewrite a result-store log, dropping superseded duplicate records \
            and any torn tail.  Crash-safe: the new log is fully written and \
            fsync'd to a sibling temp file, then renamed over the original — \
            a kill at any point leaves a valid log.  Run it on a store no \
            daemon has open.")
      Term.(const store_compact $ file $ max_bytes $ trace_t $ stats_t)
  in
  Cmd.group
    (Cmd.info "store" ~doc:"Maintain the persistent result store")
    [ compact ]

let soak_cmd =
  let values = Arg.(value & opt int 3 & info [ "values" ] ~docv:"V" ~doc:"Values per type.") in
  let rws = Arg.(value & opt int 2 & info [ "rws" ] ~docv:"R" ~doc:"RMW operations per type.") in
  let responses = Arg.(value & opt int 2 & info [ "responses" ] ~docv:"K" ~doc:"RMW responses per type.") in
  let kills =
    Arg.(value & opt int 5 & info [ "kills" ] ~docv:"N"
           ~doc:"SIGKILL the census child at $(docv) seeded progress points \
                 before letting it finish.")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S"
           ~doc:"Seed for the kill points; identical seeds kill at identical \
                 checkpoint progress.")
  in
  let checkpoint =
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
           ~doc:"Checkpoint file handed to the census child (default: a fresh \
                 temporary file, removed on success, kept on failure).")
  in
  let timeout =
    Arg.(value & opt float 300.0 & info [ "timeout" ] ~docv:"S"
           ~doc:"Per-cycle hang guard: a child silent past $(docv) seconds \
                 fails the soak.")
  in
  let dist =
    Arg.(value & flag & info [ "dist" ]
           ~doc:"Soak the $(i,distributed) census instead: every coordinator \
                 incarnation gets one seeded worker SIGKILL per slot, the \
                 coordinator itself is killed at seeded lease-ledger progress \
                 points and resumed, and the final ledger replay must cover \
                 the space disjointly with a histogram bit-identical to the \
                 single-process census.  $(b,--kills) becomes the minimum \
                 worker-death count the audit requires.")
  in
  let workers =
    Arg.(value & opt int 3 & info [ "workers" ] ~docv:"N"
           ~doc:"Worker processes per coordinator incarnation (with $(b,--dist)).")
  in
  let coordinator_kills =
    Arg.(value & opt int 1 & info [ "coordinator-kills" ] ~docv:"N"
           ~doc:"Coordinator kill(-9)+resume cycles (with $(b,--dist)).")
  in
  let ledger =
    Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE"
           ~doc:"Lease ledger handed to the coordinator (with $(b,--dist); \
                 default: a fresh temporary file, removed on success, kept on \
                 failure).")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Chaos-soak the crash-recovery paths: repeatedly $(b,kill -9) a real \
          census child at seeded progress points, resume it to completion, and \
          verify the recovered histogram is bit-identical to an uninterrupted \
          reference.  Plain form kills a $(b,census --checkpoint --resume \
          --durable) child; $(b,--dist) kills whole worker processes $(i,and) \
          the distributed-census coordinator.")
    Term.(
      const soak $ values $ rws $ responses $ cap_t $ kills $ seed $ jobs_t $ kernel_t
      $ checkpoint $ timeout $ dist $ workers $ coordinator_kills $ ledger $ trace_t
      $ stats_t)

let inject_cmd =
  let protocols_t =
    Arg.(value & opt (list string) [ "race"; "tas2"; "tnn-overloaded" ]
           & info [ "protocols" ] ~docv:"NAMES"
               ~doc:"Comma-separated protocol names (see `rcn simulate --help`); \
                     the default trio is known-broken, exercising the shrinker.")
  in
  let seeds =
    Arg.(value & opt int 5 & info [ "seeds" ] ~docv:"K"
           ~doc:"Seeds per adversary parameterization (campaign uses 1..$(docv)).")
  in
  let fuel =
    Arg.(value & opt int 2000 & info [ "fuel" ] ~docv:"F" ~doc:"Event cap per run.")
  in
  let shrink_per_cell =
    Arg.(value & opt int 1 & info [ "shrink-per-cell" ] ~docv:"M"
           ~doc:"Violations per (protocol, adversary) cell to shrink into findings.")
  in
  let report =
    Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE"
           ~doc:"Also write the campaign report to $(docv).")
  in
  let require_violation =
    Arg.(value & flag & info [ "require-violation" ]
           ~doc:"Invert the exit convention: fail (exit 1) when the campaign \
                 finds $(i,no) violation — for smoke-testing the harness \
                 against known-broken protocols.")
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Fault-injection campaign: sweep seeded crash adversaries over \
          protocols, shrink every violation to a minimal replayable schedule")
    Term.(
      const inject $ protocols_t $ n_t $ n'_t $ seeds $ z_t $ fuel $ shrink_per_cell
      $ report $ require_violation $ trace_t $ stats_t)

let serve_cmd =
  let socket =
    Arg.(
      value
      & opt string "rcn.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path to listen on.")
  in
  let store =
    Arg.(
      value
      & opt string "rcn.store"
      & info [ "store" ] ~docv:"FILE"
          ~doc:
            "Persistent content-addressed result store (append log).  Repeat \
             analyze queries are answered from it byte-identically, across \
             restarts and crashes.")
  in
  let queue_limit =
    Arg.(
      value & opt int 64
      & info [ "queue-limit" ] ~docv:"N"
          ~doc:
            "Admission control: refuse engine requests (exit code 75 at the \
             client) once $(docv) are already queued.  Pings, metrics scrapes \
             and store hits are always answered.")
  in
  let fsync =
    Arg.(
      value & flag
      & info [ "fsync" ]
          ~doc:
            "fsync the store after every append, like $(b,census --durable): \
             crash safety against machine death, one disk round trip per new \
             result.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the analysis daemon: accept analyze/census/synth requests over a \
          Unix-domain socket, one engine request at a time on a shared domain \
          pool, answering repeat analyze queries from the persistent result \
          store.  SIGTERM stops it cleanly (drain, persist, exit 0).")
    Term.(const serve $ socket $ store $ jobs_t $ queue_limit $ fsync $ trace_t $ stats_t)

let request_cmd =
  let kind =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"KIND" ~doc:"analyze, census, synth, metrics or ping.")
  in
  let ty_opt = Arg.(value & pos 1 (some objtype_conv) None & info [] ~docv:"TYPE" ~doc:type_arg_doc) in
  let values = Arg.(value & opt int 3 & info [ "values" ] ~docv:"V" ~doc:"Values per type (census/synth).") in
  let rws = Arg.(value & opt int 2 & info [ "rws" ] ~docv:"R" ~doc:"RMW operations (census/synth).") in
  let responses = Arg.(value & opt int 2 & info [ "responses" ] ~docv:"K" ~doc:"RMW responses (census/synth).") in
  let sample =
    Arg.(value & opt (some int) None & info [ "sample" ] ~docv:"N" ~doc:"Census sampling count.")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S" ~doc:"Random seed.") in
  let target = Arg.(value & opt int 4 & info [ "target" ] ~docv:"N" ~doc:"Synth witness consensus number.") in
  let iters = Arg.(value & opt int 20000 & info [ "iterations" ] ~docv:"I" ~doc:"Synth evaluation budget.") in
  let portfolio = Arg.(value & opt int 1 & info [ "portfolio" ] ~docv:"P" ~doc:"Synth portfolio size.") in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Print the canonical serve-protocol request (single-line JSON) for a \
          query — what $(b,--connect) would send — for scripting against a \
          daemon with any socket tool.")
    Term.(
      const request $ kind $ ty_opt $ cap_t $ values $ rws $ responses $ sample $ seed
      $ target $ iters $ portfolio $ jobs_t $ kernel_t $ deadline_t $ supervise_t)

let robustness_cmd =
  let tys = Arg.(non_empty & pos_all string [] & info [] ~docv:"TYPE" ~doc:type_arg_doc) in
  Cmd.v
    (Cmd.info "robustness"
       ~doc:"Combined recoverable-consensus power of a set of readable types (Theorem 14)")
    Term.(const robustness $ tys $ cap_t)

let crashtest_cmd =
  let artifacts =
    Arg.(value & opt (list string) [] & info [ "artifact" ] ~docv:"NAMES"
           ~doc:"Comma-separated subset of store, ledger (default: both).")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S"
           ~doc:"Seed for the combined (multi-fault) plans; the exhaustive \
                 single-fault sweep is seed-independent.")
  in
  let dir =
    Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR"
           ~doc:"Scratch directory for the per-plan artifacts (default: a \
                 fresh temporary directory).  Plans that pass are removed as \
                 they go; violating plans are kept for inspection.")
  in
  let keep =
    Arg.(value & flag & info [ "keep" ]
           ~doc:"Keep the scratch directory even when every plan passes.")
  in
  Cmd.v
    (Cmd.info "crashtest"
       ~doc:
         "Fault-plan sweep over every durable artifact: run each artifact's \
          workload under a crash, I/O-error, torn-write or lying-fsync fault \
          injected at every operation boundary (plus seeded multi-fault \
          plans), re-open after each plan, and assert the recovery \
          invariants — replay never raises on torn input, no record \
          acknowledged by an honest fsync is ever lost, and injected \
          mid-log corruption is reported, never silently eaten.  Exit 0 \
          when every plan holds, 1 on any violation.")
    Term.(const crashtest $ artifacts $ seed $ dir $ keep $ trace_t $ stats_t)

let main =
  Cmd.group
    (Cmd.info "rcn" ~version:"1.0.0"
       ~doc:"Determining recoverable consensus numbers (PODC 2024 reproduction)")
    [
      analyze_cmd; gallery_cmd; statemachine_cmd; simulate_cmd; certify_cmd; trace_cmd;
      chain_cmd; synth_cmd; robustness_cmd; census_cmd; worker_cmd; soak_cmd; inject_cmd;
      serve_cmd; request_cmd; store_cmd; crashtest_cmd;
    ]

let () = exit (Cmd.eval main)
