(** Seeded fault campaigns over the memcpy microbenchmark.

    Replays the §III-A memcpy kernel through the full host path (malloc,
    DMA up, command, await, DMA down, byte-for-byte verification) with a
    {!Fault.Injector} threaded through the whole stack, and reports what
    was injected, what the recovery machinery (ECC scrub, AXI retry,
    watchdog resend, quarantine + rerouting) absorbed, and what it cost
    in throughput. Same plan (same seed) — bit-identical campaign. *)

val config : n_cores:int -> Beethoven.Config.t
(** The memcpy system used by campaigns, with a configurable core count
    (>= 2 cores gives the watchdog somewhere to reroute after a
    quarantine). *)

type result = {
  seed : int;
  iters : int;
  bytes : int;
  injected : int;
  recovered : int;
  unrecovered : int;
  pending : int;  (** lost-message faults never resolved either way *)
  quarantines : int;
  ecc_corrected : int;
  ecc_uncorrectable : int;
  command_timeouts : int;
  command_retries : int;
  failed_commands : int;  (** awaits that raised (recovery exhausted) *)
  corrupt_iters : int;  (** iterations whose round-tripped data mismatched *)
  wall_ps : int;
  bandwidth_gbs : float;  (** end-to-end: payload bytes / total sim time *)
  data_ok : bool;
  counters : string;  (** [Fault.Injector.counters_line] digest *)
  log : Fault.Log.entry list;
}

val run :
  ?bytes:int ->
  ?iters:int ->
  ?n_cores:int ->
  ?tracer:Trace.t ->
  plan:Fault.Plan.t ->
  platform:Platform.Device.t ->
  unit ->
  result
(** Run [iters] (default 4) round-trips of [bytes] (default 64 KB) under
    [plan]. Never hangs: the watchdog's retries are bounded, a zero-time
    cycle raises {!Desim.Engine.Livelock}, and the queue is drained
    before the result is assembled. [tracer] records the whole campaign as spans;
    note at-least-once delivery means duplicate responses can outlive
    their root command span, so validate such traces with
    [Trace.check ~strict:false]. *)

val clean : result -> bool
(** No unrecovered faults, nothing pending, data verified — what the
    default recoverable-only mix must achieve. *)

val render : result -> string

type curve_point = {
  cp_scale : float;
  cp_result : result;
  cp_relative : float;  (** throughput relative to the fault-free run *)
}

val degradation :
  ?seed:int ->
  ?bytes:int ->
  ?iters:int ->
  platform:Platform.Device.t ->
  unit ->
  curve_point list
(** Throughput-degradation curve: the default recoverable mix scaled by
    0.0 (the fault-free baseline), 0.5, 1, 2 and 4. *)

val render_curve : curve_point list -> string
