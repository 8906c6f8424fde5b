(* The worker half of the distributed census: one process, one
   socketpair to the coordinator (inherited as fd 0), one domain pool.
   Strictly half-duplex: write one message, block for one reply.

   The worker decides a leased range in [stride]-sized batches.  Between
   batches it heartbeats a Progress message — which is simultaneously
   the lease renewal and the coordinator's steal point: the reply may
   truncate the range ("stop at hi, the tail was re-leased elsewhere").
   Work below the reported progress point is never stolen, so the
   histogram the worker finally reports covers exactly [lo, hi) of the
   (possibly truncated) range, disjoint from everyone else's.

   Failure handling is one-sided by design: a worker that loses its
   coordinator is an orphan and exits 0 quietly.  The socket says so in
   one of three ways: EOF on read, EPIPE on write, or ECONNRESET on
   either (the coordinator died, e.g. kill -9, with bytes the worker
   sent still unread).  A worker that receives a nonsensical reply
   exits 70; the coordinator's lease machinery handles everything
   else. *)

exception Bye of int

let crash_self () = Unix.kill (Unix.getpid ()) Sys.sigkill

let run ?obs ?(stride = 32) ?(throttle_us = 0) ?(crash_after = 0)
    ~(config : Api.Config.t) ~space ~fd () =
  if stride < 1 then invalid_arg "Dist_worker.run: stride must be positive";
  let cap = config.Api.Config.cap in
  let kernel = config.Api.Config.kernel in
  let jobs = Engine.resolve_jobs config.Api.Config.jobs in
  let cache = Engine.Cache.create ?obs () in
  (* Warm per-process-count state up front, exactly like Engine.census:
     decided levels must not depend on which worker decides a table. *)
  Engine.warm_census ?obs cache ~kernel ~cap;
  let send msg = Frame.write fd (Api.Worker.msg_to_string msg) in
  let recv () =
    match Frame.read fd with
    | Frame.Frame s -> (
        match Api.Worker.reply_of_string s with
        | Ok r -> r
        | Error _ -> raise (Bye 70))
    | Frame.Eof -> raise (Bye 0) (* coordinator is gone: orphan, exit *)
    | Frame.Bad _ -> raise (Bye 70)
  in
  (* Under symmetry reduction the coordinator leases canonical-class
     ranks: the worker derives the same deterministic rank space, decides
     each rank's representative and weights the verdict by its orbit —
     exactly the sym sweep of [Engine.census]. *)
  let rs = Engine.census_ranks ~sym:config.Api.Config.sym space in
  let tables = Atomic.make 0 in
  let decide chain rank =
    let levels =
      Engine.census_levels ?obs ~chain cache ~kernel ~cap
        (Synth.to_objtype (rs.Engine.genome rank))
    in
    if throttle_us > 0 then
      Obs.Clock.sleep (float_of_int throttle_us /. 1_000_000.);
    if crash_after > 0 && 1 + Atomic.fetch_and_add tables 1 >= crash_after then
      crash_self ();
    levels
  in
  let process pool ~lease ~lo ~hi ~stop_at =
    let hist : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
    let bump key w =
      Hashtbl.replace hist key
        (w + Option.value ~default:0 (Hashtbl.find_opt hist key))
    in
    let cur = ref lo in
    let stop = ref hi in
    let exchange () =
      (* one Progress, one reply — the lease renewal, the steal point,
         and (past the assignment's budget) the deadline cut *)
      send (Api.Worker.Progress { lease; at = !cur });
      match recv () with
      | Api.Worker.Continue -> ()
      | Api.Worker.Truncate { hi } ->
          (* the coordinator never cuts below the progress point it is
             answering, but clamp defensively: decided work stays. *)
          stop := max !cur (min !stop hi)
      | Api.Worker.Shutdown -> raise (Bye 0)
      | Api.Worker.Assign _ -> raise (Bye 70)
    in
    while !cur < !stop do
      if Obs.Clock.expired stop_at then
        (* Over budget: report where we are and obey the coordinator's
           answer.  A Continue (the coordinator's clock disagrees) runs
           one more batch rather than spinning on the exchange. *)
        exchange ();
      if !cur < !stop then begin
        let base = !cur in
        let next = min (base + stride) !stop in
        let batch = Array.make (next - base) (0, 0) in
        let chain = Engine.census_chain () in
        Pool.parallel_for pool ~chunk:4 (next - base) (fun a b ->
            for k = a to b - 1 do
              batch.(k) <- decide chain (base + k)
            done);
        Array.iteri
          (fun k lv -> bump lv (rs.Engine.weight ~lo:(base + k) ~hi:(base + k + 1)))
          batch;
        cur := next;
        if !cur < !stop && not (Obs.Clock.expired stop_at) then exchange ()
      end
    done;
    send
      (Api.Worker.Result
         { lease; lo; hi = !stop; entries = Census.of_histogram hist })
  in
  try
    Pool.with_pool ?obs ~jobs @@ fun pool ->
    send (Api.Worker.Hello { pid = Unix.getpid () });
    let rec loop () =
      match recv () with
      | Api.Worker.Assign { lease; lo; hi; budget } ->
          (* [budget] is the whole census' remaining seconds at grant
             time, resolved by the coordinator: anchoring it here, at
             receipt, keeps the absolute cutoff aligned across every
             (re)spawn instead of restarting per process. *)
          process pool ~lease ~lo ~hi ~stop_at:(Option.map Obs.Clock.after budget);
          loop ()
      | Api.Worker.Shutdown -> 0
      | Api.Worker.Continue | Api.Worker.Truncate _ -> 70
    in
    loop ()
  with
  | Bye code -> code
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> 0
  | Sys_error _ -> 0
