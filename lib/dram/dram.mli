(** Cycle-approximate DRAM timing model — the DRAMsim3 substitute.

    The model is timing-only: data contents live in the host-memory model of
    the {!Runtime} library. Requests are decomposed into bus-width bursts
    (64 B for a x64 DDR4 device at BL8); each burst is scheduled against
    per-bank row state (activate/precharge/CAS timings) and a shared data
    bus with read/write turnaround penalties. {!submit} reserves every
    burst when it is called, in arrival order: there is no request queue,
    so a row hit never overtakes an earlier miss (no FR-FCFS reordering).
    Simulation time is in picoseconds. *)

module Config : sig
  type t = {
    name : string;
    tck_ps : int;  (** DRAM clock period *)
    cl : int;  (** CAS latency, cycles *)
    trcd : int;  (** RAS-to-CAS delay, cycles *)
    trp : int;  (** row precharge, cycles *)
    tras : int;  (** row active minimum, cycles *)
    tccd : int;  (** column-to-column, cycles *)
    tburst : int;  (** data transfer per burst, cycles (BL8 on DDR = 4) *)
    tturnaround : int;  (** bus direction switch penalty, cycles *)
    trefi : int;  (** refresh interval, cycles *)
    trfc : int;  (** refresh duration, cycles (0 disables refresh) *)
    bus_bytes : int;  (** data bus width in bytes (8 for x64) *)
    row_bytes : int;  (** row (page) size in bytes *)
    n_banks : int;
    n_channels : int;
  }

  val ddr4_2400 : t
  (** One 64-bit DDR4-2400 channel: 19.2 GB/s peak. *)

  val ddr4_2400_quad : t
  (** Four channels, the AWS F1 / U200 board configuration. *)

  val burst_bytes : t -> int
  (** Bytes moved per device burst = [bus_bytes * 8] (BL8). *)

  val peak_bandwidth_gbs : t -> float
end

type t

type dir = Read | Write

val create : Desim.Engine.t -> Config.t -> t
val config : t -> Config.t

val set_burst_hook : t -> (addr:int -> bytes:int -> dir:dir -> unit) -> unit
(** Install a callback fired at every device burst's data completion
    time, before the requester's [on_chunk]. The SoC uses it to model
    DRAM bit errors and the SECDED scrub-on-read path without coupling
    the timing model to data contents. *)

val set_tracer : t -> Trace.t -> unit
(** Attach a structured tracer: every {!submit} records a ["dram"] span
    (parented on the submitting AXI burst's span when given) annotated
    with the row-hit/miss and bank-conflict deltas it produced, and bumps
    the [dram.row_hits]/[dram.row_misses]/[dram.bank_conflicts] registry
    counters. *)

val submit :
  t ->
  addr:int ->
  bytes:int ->
  dir:dir ->
  ?on_chunk:(chunk:int -> unit) ->
  on_complete:(unit -> unit) ->
  ?span:int ->
  unit ->
  unit
(** Issue a request. [on_chunk] fires as each device burst's data completes
    on the bus (chunk 0, 1, …, in order within the request); [on_complete]
    fires with the last chunk. For reads, a chunk completion is the time its
    data has been returned; for writes, the time it has been accepted.
    [span] is the parent trace span (see {!set_tracer}). *)

(** {1 Statistics} *)

val bytes_read : t -> int
val bytes_written : t -> int
val row_hits : t -> int
val row_misses : t -> int

val bank_conflicts : t -> int
(** Bursts whose column command stalled behind a busy bank. *)

val achieved_bandwidth_gbs : t -> float
(** Total traffic divided by elapsed simulation time. *)
