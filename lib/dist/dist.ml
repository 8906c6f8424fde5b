(* The distributed census coordinator.

   The rank space [0, total) is sharded into chunks held in a pending
   queue.  N worker processes (rcn worker) are spawned over socketpairs;
   each Waiting worker is granted a lease on the next pending chunk.
   All coordinator state that matters is reconstructible from the
   fsync'd lease ledger: completed ranges (Done records) are trusted on
   resume, everything else is re-leased.

   The failure model, in one place:

   - A worker that dies (reaped via waitpid, or EOF on its socket) has
     its lease revoked and the FULL range re-queued with attempts + 1 —
     progress heartbeats only renew leases; partial results never
     survive a death, which is what makes the merge independent of the
     crash schedule.
   - A lease whose deadline passes without a heartbeat is expired: the
     worker is SIGKILLed (it may be alive but wedged) and the range
     re-queued.
   - Dead workers respawn with seeded backoff (Supervise.Policy), up to
     max_spawns per slot; a slot that exhausts its spawns retires.
   - A range that fails range_attempts grants is quarantined — recorded
     in the ledger and the outcome, never silently dropped — and the
     census degrades to an honest partial (exit 3), like any other
     supervised sweep.
   - Work stealing: when a worker goes idle with nothing pending, the
     straggler with the most remaining work is marked; at its next
     heartbeat the tail above the midpoint is re-queued and the victim
     truncated.  Stealing only moves undecided work, so it cannot
     double-count.

   Merging is a plain histogram sum over Done ranges, which a bitmap
   proves disjoint and complete — hence bit-identical to Engine.census
   regardless of worker count, crash schedule or steal order. *)

type outcome = {
  entries : Census.entry list;
  total : int;
  completed : int;
  resumed : int;
  complete : bool;
  quarantined : Supervise.quarantine list;
  deaths : int;
}

(* Coordinator-side per-worker state machine. *)

type lease = {
  id : int;
  lo : int;
  mutable hi : int;
  mutable at : int;  (** every rank below [at] is decided by the holder *)
  attempts : int;  (** prior failed grants of this range *)
  mutable deadline : float;
  mutable steal_to : int;  (** pending steal point; [-1] when none *)
}

type slot_state =
  | Starting  (** spawned; Hello not yet received *)
  | Waiting  (** idle, blocked on our next reply *)
  | Busy of lease
  | Cooling  (** dead; respawn backoff running *)
  | Finishing  (** sent Shutdown; awaiting exit *)
  | Retired  (** reaped for good — cleanly done or spawns exhausted *)

type slot = {
  index : int;
  mutable pid : int;
  mutable fd : Unix.file_descr option;
  mutable state : slot_state;
  mutable spawns : int;
  mutable respawn_at : float;
}

let default_policy =
  Supervise.Policy.v ~max_attempts:3 ~base_backoff:0.01 ~max_backoff:0.25 ()

let census ?obs ?rcn ?ledger ?(resume = false) ?(fsync = true)
    ?(lease_ttl = 30.) ?chunk ?(stride = 32) ?steal_min ?(range_attempts = 3)
    ?(max_spawns = 5) ?(policy = default_policy) ?(crash = []) ?(throttle = [])
    ~workers ~(config : Api.Config.t) space =
  if workers < 1 then invalid_arg "Dist.census: workers must be positive";
  if lease_ttl <= 0. then invalid_arg "Dist.census: lease_ttl must be positive";
  if stride < 1 then invalid_arg "Dist.census: stride must be positive";
  if range_attempts < 1 then
    invalid_arg "Dist.census: range_attempts must be positive";
  if max_spawns < 1 then invalid_arg "Dist.census: max_spawns must be positive";
  let total = Census.space_size space in
  let cap = config.Api.Config.cap in
  let counter name = Option.map (fun o -> Obs.counter o name) obs in
  let c_granted = counter "dist.leases_granted" in
  let c_expired = counter "dist.leases_expired" in
  let c_stolen = counter "dist.leases_stolen" in
  let c_spawned = counter "dist.workers_spawned" in
  let c_killed = counter "dist.workers_killed" in
  let c_respawned = counter "dist.workers_respawned" in
  let c_quarantined = counter "dist.ranges_quarantined" in
  let c_resumed = counter "dist.ranks_resumed" in
  let c_cut = counter "dist.deadline_truncations" in
  let bump c = Option.iter Obs.Metrics.Counter.incr c in
  (* The wall-clock budget is resolved against the monotonic clock
     exactly once, here.  Workers never see [config.deadline]: each
     assignment carries the seconds *remaining* at grant time, so a
     worker (re)spawned late in the run inherits the tail of the budget
     instead of restarting it. *)
  let deadline_abs = Option.map Obs.Clock.after config.Api.Config.deadline in
  let expired () = Obs.Clock.expired deadline_abs in
  (* Symmetry reduction: the rank space the leases shard is the space of
     canonical-class ranks, and each rank accounts for its orbit's
     tables.  The scan is deterministic, so every worker derives the
     identical representative list on its own — assignments stay plain
     [lo, hi) rank ranges on the wire. *)
  let rs = Engine.census_ranks ?obs ~sym:config.Api.Config.sym space in
  let ranks = rs.Engine.ranks in
  let weight_of = rs.Engine.weight in
  let rcn = match rcn with Some p -> p | None -> Sys.executable_name in
  let ledger_path, temp_ledger =
    match ledger with
    | Some p -> (p, false)
    | None ->
        if resume then
          invalid_arg "Dist.census: resume needs an explicit ledger path";
        (Filename.temp_file "rcn-dist" ".ledger", true)
  in
  let expected =
    Dist_ledger.header ?sym_classes:rs.Engine.sym_classes ~space ~cap ~total ()
  in
  let led, replayed =
    Dist_ledger.open_ledger ?obs ~fsync ~expected ~resume ledger_path
  in
  let covered, hist, resumed, _ =
    Dist_ledger.replay_done ~total:ranks ~weight:weight_of replayed
  in
  Option.iter (fun c -> Obs.Metrics.Counter.add c resumed) c_resumed;
  let completed = ref resumed in
  let accounted = ref resumed in
  (* decided or quarantined, in table units *)
  let quarantined = ref [] in
  let deaths = ref 0 in
  let chunk =
    match chunk with
    | Some c when c >= 1 -> c
    | Some _ -> invalid_arg "Dist.census: chunk must be positive"
    | None -> max stride (1 + ((ranks - 1) / max 1 (4 * workers)))
  in
  let steal_min = match steal_min with Some s -> max 2 s | None -> 2 * stride in
  (* Pending ranges: (lo, hi, failed grants so far). *)
  let pending : (int * int * int) Queue.t = Queue.create () in
  List.iter
    (fun (lo, hi) ->
      let i = ref lo in
      while !i < hi do
        let j = min (!i + chunk) hi in
        Queue.add (!i, j, 0) pending;
        i := j
      done)
    (Dist_ledger.gaps_of covered ranks);
  let quarantine_range ~lo ~hi ~attempts ~error =
    Bytes.fill covered lo (hi - lo) '\002';
    accounted := !accounted + weight_of ~lo ~hi;
    quarantined :=
      {
        Supervise.q_context = "dist.census";
        q_lo = lo;
        q_hi = hi;
        q_attempts = attempts;
        q_error = error;
      }
      :: !quarantined;
    Dist_ledger.append led (Dist_ledger.Quarantine { lo; hi; attempts; error });
    bump c_quarantined
  in
  let requeue ~lo ~hi ~attempts ~error =
    if lo >= hi then () (* a lease truncated to nothing holds no work *)
    else if expired () then
      (* Past the deadline nothing is re-granted; leave the range in
         [pending] unescalated so it shows as an honest gap (resumable),
         not a spurious quarantine. *)
      Queue.add (lo, hi, attempts) pending
    else if attempts + 1 >= range_attempts then
      quarantine_range ~lo ~hi ~attempts:(attempts + 1) ~error
    else Queue.add (lo, hi, attempts + 1) pending
  in
  let all_work_done () = !accounted = total in
  let slots =
    Array.init workers (fun index ->
        { index; pid = -1; fd = None; state = Retired; spawns = 0; respawn_at = 0. })
  in
  let busy_exists () =
    Array.exists (fun s -> match s.state with Busy _ -> true | _ -> false) slots
  in
  (* Spawn plumbing.  The worker inherits its end of the socketpair as
     stdin; our end is close-on-exec so sibling workers cannot hold a
     dead worker's connection open and defeat EOF detection. *)
  let worker_argv slot =
    let injected spec = if slot.spawns = 0 then List.assoc_opt slot.index spec else None in
    let base =
      [
        rcn;
        "worker";
        "--values";
        string_of_int space.Synth.num_values;
        "--rws";
        string_of_int space.Synth.num_rws;
        "--responses";
        string_of_int space.Synth.num_responses;
        "--stride";
        string_of_int stride;
        "--config";
        (* The deadline is stripped: a worker must never resolve the
           user's budget against its own spawn time (that is exactly the
           respawn-resets-the-deadline bug).  What remains of the budget
           travels in each Assign instead. *)
        Wire.to_string (Api.Config.to_json { config with Api.Config.deadline = None });
      ]
    in
    let base =
      match injected crash with
      | Some k -> base @ [ "--crash-after"; string_of_int k ]
      | None -> base
    in
    let base =
      match injected throttle with
      | Some us -> base @ [ "--throttle-us"; string_of_int us ]
      | None -> base
    in
    Array.of_list base
  in
  let spawn slot =
    let ours, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.set_close_on_exec ours;
    let argv = worker_argv slot in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid = Unix.create_process rcn argv theirs devnull Unix.stderr in
    Unix.close theirs;
    Unix.close devnull;
    slot.pid <- pid;
    slot.fd <- Some ours;
    slot.state <- Starting;
    slot.spawns <- slot.spawns + 1;
    bump c_spawned
  in
  let close_slot_fd slot =
    match slot.fd with
    | None -> ()
    | Some fd ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        slot.fd <- None
  in
  let reply slot r =
    match slot.fd with
    | None -> ()
    | Some fd -> (
        try Frame.write fd (Api.Worker.reply_to_string r)
        with Unix.Unix_error _ -> () (* dying worker; the reap will see it *))
  in
  let revoke ~error slot lease =
    Dist_ledger.append led
      (Dist_ledger.Expire
         { lease = lease.id; lo = lease.lo; hi = lease.hi; worker = slot.index });
    bump c_expired;
    requeue ~lo:lease.lo ~hi:lease.hi ~attempts:lease.attempts ~error
  in
  let abandon_or_cool slot =
    if slot.spawns >= max_spawns then slot.state <- Retired
    else begin
      slot.state <- Cooling;
      slot.respawn_at <-
        Obs.Clock.now ()
        +. Supervise.Policy.backoff policy ~key:slot.index ~attempt:slot.spawns
    end
  in
  (* The worker process is known dead (already reaped). *)
  let on_death slot ~error =
    incr deaths;
    Dist_ledger.append led
      (Dist_ledger.Death { worker = slot.index; pid = slot.pid });
    let was = slot.state in
    close_slot_fd slot;
    slot.pid <- -1;
    (match was with Busy lease -> revoke ~error slot lease | _ -> ());
    match was with
    | Finishing -> slot.state <- Retired
    | _ -> abandon_or_cool slot
  in
  let kill_slot slot ~error =
    (try Unix.kill slot.pid Sys.sigkill with Unix.Unix_error _ -> ());
    bump c_killed;
    (try ignore (Fsio.Retry.eintr (fun () -> Unix.waitpid [] slot.pid))
     with Unix.Unix_error _ -> ());
    on_death slot ~error
  in
  (* Mark the straggler holding the most remaining work for a steal; the
     split happens at its next heartbeat, which is the only moment the
     coordinator knows a safe cut point. *)
  let mark_steal () =
    let best = ref None in
    Array.iter
      (fun s ->
        match s.state with
        | Busy l when l.steal_to < 0 ->
            let remaining = l.hi - l.at in
            if remaining >= steal_min then begin
              match !best with
              | Some (_, r) when r >= remaining -> ()
              | _ -> best := Some (l, remaining)
            end
        | _ -> ())
      slots;
    match !best with
    | Some (l, _) -> l.steal_to <- l.at + ((l.hi - l.at) / 2)
    | None -> ()
  in
  let lease_ctr = ref 0 in
  let try_assign slot =
    if expired () then begin
      (* Budget exhausted: nothing is granted anymore, idle workers are
         sent home, and busy ones get truncated at their next
         heartbeat. *)
      reply slot Api.Worker.Shutdown;
      slot.state <- Finishing
    end
    else if not (Queue.is_empty pending) then begin
      let lo, hi, attempts = Queue.pop pending in
      incr lease_ctr;
      let lease =
        {
          id = !lease_ctr;
          lo;
          hi;
          at = lo;
          attempts;
          deadline = Obs.Clock.now () +. lease_ttl;
          steal_to = -1;
        }
      in
      slot.state <- Busy lease;
      Dist_ledger.append led
        (Dist_ledger.Grant { lease = lease.id; lo; hi; worker = slot.index });
      bump c_granted;
      let budget =
        Option.map (fun d -> Float.max 0. (d -. Obs.Clock.now ())) deadline_abs
      in
      reply slot (Api.Worker.Assign { lease = lease.id; lo; hi; budget })
    end
    else if all_work_done () && not (busy_exists ()) then begin
      reply slot Api.Worker.Shutdown;
      slot.state <- Finishing
    end
    else
      (* Idle with work still leased elsewhere: set up a steal and stay
         Waiting; the split lands in [pending] at the victim's next
         heartbeat and the drain loop hands it over. *)
      mark_steal ()
  in
  let drain_pending () =
    Array.iter
      (fun s ->
        match s.state with
        | Waiting when not (Queue.is_empty pending) -> try_assign s
        | _ -> ())
      slots
  in
  let on_progress slot lease_id at =
    match slot.state with
    | Busy l when l.id = lease_id ->
        l.at <- max l.at at;
        l.deadline <- Obs.Clock.now () +. lease_ttl;
        if expired () then begin
          (* Deadline cut: truncate the lease at the progress point.
             Decided work below [at] still comes back in the Result; the
             abandoned tail is recorded and stays an honest gap. *)
          let cut = l.at in
          if cut < l.hi then begin
            Dist_ledger.append led
              (Dist_ledger.Expire
                 { lease = l.id; lo = cut; hi = l.hi; worker = slot.index });
            bump c_cut
          end;
          l.hi <- cut;
          l.steal_to <- -1;
          reply slot (Api.Worker.Truncate { hi = cut })
        end
        else if l.steal_to > l.at then begin
          let cut = l.steal_to in
          Dist_ledger.append led
            (Dist_ledger.Steal
               { lease = l.id; victim = slot.index; at = l.at; hi = l.hi });
          Queue.add (cut, l.hi, 0) pending;
          l.hi <- cut;
          l.steal_to <- -1;
          bump c_stolen;
          reply slot (Api.Worker.Truncate { hi = cut });
          drain_pending ()
        end
        else begin
          (* an overtaken steal point is stale: cancel it *)
          l.steal_to <- -1;
          reply slot Api.Worker.Continue
        end
    | _ -> reply slot Api.Worker.Continue
  in
  let on_result slot lease_id lo hi entries =
    match slot.state with
    | Busy l when l.id = lease_id && lo = l.lo && hi = l.hi && lo = hi ->
        (* A deadline truncation at the lease's own [lo] leaves nothing
           to report: no Done record, no coverage — just hand the worker
           its Shutdown via [try_assign]. *)
        if entries <> [] then kill_slot slot ~error:"inconsistent result"
        else begin
          slot.state <- Waiting;
          try_assign slot
        end
    | Busy l when l.id = lease_id && lo = l.lo && hi = l.hi ->
        let triples =
          List.map
            (fun (e : Census.entry) ->
              (e.Census.discerning, e.Census.recording, e.Census.count))
            entries
        in
        (* the resume fold's own trust check, applied live *)
        if not (Dist_ledger.absorb ~covered ~hist ~weight:weight_of ~lo ~hi triples)
        then kill_slot slot ~error:"inconsistent result"
        else begin
          Dist_ledger.append led (Dist_ledger.Done { lo; hi; entries = triples });
          completed := !completed + weight_of ~lo ~hi;
          accounted := !accounted + weight_of ~lo ~hi;
          slot.state <- Waiting;
          try_assign slot
        end
    | _ -> kill_slot slot ~error:"result for a lease not held"
  in
  let handle_readable slot =
    match slot.fd with
    | None -> ()
    | Some fd -> (
        match Frame.read fd with
        | Frame.Frame s -> (
            match Api.Worker.msg_of_string s with
            | Ok (Api.Worker.Hello _) -> (
                match slot.state with
                | Starting ->
                    slot.state <- Waiting;
                    try_assign slot
                | _ -> kill_slot slot ~error:"unexpected hello")
            | Ok (Api.Worker.Progress { lease; at }) -> on_progress slot lease at
            | Ok (Api.Worker.Result { lease; lo; hi; entries }) ->
                on_result slot lease lo hi entries
            | Error e -> kill_slot slot ~error:("protocol: " ^ e))
        | Frame.Eof -> (
            match slot.state with
            | Finishing ->
                (* the expected EOF of a worker told to shut down *)
                (try ignore (Fsio.Retry.eintr (fun () -> Unix.waitpid [] slot.pid))
                 with Unix.Unix_error _ -> ());
                close_slot_fd slot;
                slot.pid <- -1;
                slot.state <- Retired
            | _ -> kill_slot slot ~error:"connection closed")
        | Frame.Bad m -> kill_slot slot ~error:("bad frame: " ^ m))
  in
  let tick () =
    let now = Obs.Clock.now () in
    (* reap exits *)
    Array.iter
      (fun slot ->
        if slot.pid >= 0 then
          match Fsio.Retry.eintr (fun () -> Unix.waitpid [ Unix.WNOHANG ] slot.pid) with
          | 0, _ -> ()
          | _ -> (
              match slot.state with
              | Finishing ->
                  close_slot_fd slot;
                  slot.pid <- -1;
                  slot.state <- Retired
              | _ -> on_death slot ~error:"worker died")
          | exception Unix.Unix_error (Unix.ECHILD, _, _) -> (
              match slot.state with
              | Finishing ->
                  close_slot_fd slot;
                  slot.pid <- -1;
                  slot.state <- Retired
              | _ -> on_death slot ~error:"worker vanished"))
      slots;
    (* lease expiry: a missed heartbeat revokes the lease and kills the
       (possibly wedged) holder *)
    Array.iter
      (fun slot ->
        match slot.state with
        | Busy l when now > l.deadline -> kill_slot slot ~error:"lease expired"
        | _ -> ())
      slots;
    (* due respawns — pointless once the budget is spent: a respawned
       worker would only be shut down again, and respawning must never
       stretch the user's wall clock *)
    Array.iter
      (fun slot ->
        match slot.state with
        | Cooling when now >= slot.respawn_at ->
            if all_work_done () || expired () then slot.state <- Retired
            else begin
              spawn slot;
              bump c_respawned
            end
        | _ -> ())
      slots;
    (* livelock guard: no slot can ever run again but work remains.  Not
       past the deadline — an out-of-time range is a gap, not a
       quarantine. *)
    let runnable =
      Array.exists
        (fun s -> match s.state with Retired -> false | _ -> true)
        slots
    in
    if (not runnable) && (not (expired ())) && not (Queue.is_empty pending) then begin
      Queue.iter
        (fun (lo, hi, attempts) ->
          quarantine_range ~lo ~hi ~attempts ~error:"workers exhausted")
        pending;
      Queue.clear pending
    end;
    drain_pending ();
    (* termination: once nothing remains — or the budget is spent — shut
       the idle fleet down *)
    if expired () || (all_work_done () && not (busy_exists ())) then
      Array.iter
        (fun slot ->
          match slot.state with
          | Waiting -> try_assign slot (* hits the Shutdown branch *)
          | Cooling -> slot.state <- Retired
          | _ -> ())
        slots
  in
  let finished () =
    Array.for_all
      (fun s -> match s.state with Retired -> true | _ -> false)
      slots
    && (all_work_done () || expired ())
  in
  let cleanup () =
    Array.iter
      (fun slot ->
        if slot.pid >= 0 then begin
          (try Unix.kill slot.pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Fsio.Retry.eintr (fun () -> Unix.waitpid [] slot.pid))
          with Unix.Unix_error _ -> ()
        end;
        close_slot_fd slot)
      slots;
    Dist_ledger.close led;
    if temp_ledger then try Sys.remove ledger_path with Sys_error _ -> ()
  in
  let prev_pipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ -> None
  in
  let restore_pipe () =
    match prev_pipe with
    | Some b -> ( try Sys.set_signal Sys.sigpipe b with Invalid_argument _ -> ())
    | None -> ()
  in
  Fun.protect
    ~finally:(fun () ->
      cleanup ();
      restore_pipe ())
    (fun () ->
      if (not (all_work_done ())) && not (expired ()) then Array.iter spawn slots;
      while not (finished ()) do
        let fds =
          Array.fold_left
            (fun acc s -> match s.fd with Some fd -> fd :: acc | None -> acc)
            [] slots
        in
        let readable =
          if fds = [] then begin
            Obs.Clock.sleep 0.01;
            []
          end
          else
            match Unix.select fds [] [] 0.05 with
            | r, _, _ -> r
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
        in
        List.iter
          (fun fd ->
            match Array.find_opt (fun s -> s.fd = Some fd) slots with
            | Some slot -> handle_readable slot
            | None -> ())
          readable;
        tick ()
      done;
      (* A degraded ledger means results past the failure point were
         never made durable: the run is reported PARTIAL via a
         synthetic quarantine entry, the same honesty channel as a
         poisoned range — never a silent success. *)
      let quarantined =
        match Dist_ledger.degraded led with
        | None -> List.rev !quarantined
        | Some reason ->
            {
              Supervise.q_context = "dist.ledger";
              q_lo = 0;
              q_hi = 0;
              q_attempts = 1;
              q_error = "ledger append failed: " ^ reason;
            }
            :: List.rev !quarantined
      in
      {
        entries = Census.of_histogram hist;
        total;
        completed = !completed;
        resumed;
        complete = (!completed = total) && Dist_ledger.degraded led = None;
        quarantined;
        deaths = !deaths;
      })
