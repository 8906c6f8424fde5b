(** The worker process body of the distributed census.

    [run ~config ~space ~fd ()] speaks the {!Api.Worker} protocol over
    [fd] (the coordinator's socketpair end, inherited as stdin by the
    [rcn worker] subcommand): send [Hello], then loop — receive an
    [Assign]ed rank range, decide it in [stride]-sized batches on a
    domain pool of [config.jobs] workers via [Engine.census_levels]
    (warming the same per-process-count state as [Engine.census], so
    decided levels are independent of which worker decides a table; the
    compiled path climbs the same pruned ladder, [Kernel.exists ~below]
    the [n - 1] kernel at each rung [n >= 3], and starts a census chain
    at each batch: each domain's kernels are retargeted at the first
    table of a batch they decide and {!Kernel.step}ped after that),
    heartbeat [Progress] between batches, obey [Truncate] steals, and
    report the range's histogram as [Result].

    Returns the process exit code: [0] on [Shutdown] {e and} on losing
    the coordinator (EOF, EPIPE or ECONNRESET — an orphan exits quietly; the
    coordinator's lease machinery owns all failure handling), [70] on a
    protocol violation.

    [throttle_us] sleeps that many microseconds per decided table and
    [crash_after] SIGKILLs the process after that many tables — the
    deterministic straggler/crash injection hooks that the soak, smoke
    and test harnesses drive through [rcn worker]'s flags. *)

val run :
  ?obs:Obs.t ->
  ?stride:int ->
  ?throttle_us:int ->
  ?crash_after:int ->
  config:Api.Config.t ->
  space:Synth.space ->
  fd:Unix.file_descr ->
  unit ->
  int
