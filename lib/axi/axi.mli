(** AXI4 memory-port model.

    Encodes the protocol behaviour the paper's §III-A microbenchmark turns
    on: bursts are bounded in length and may not cross 4 KB; transactions
    that share an AXI ID are serviced strictly in order (no overlap — the
    conservative behaviour of the Xilinx DDR controller front-end the paper
    measured), while transactions on distinct IDs proceed concurrently and
    may complete out of order. With a tracer, every burst records a span
    and its data beats; {!Trace.axi_timeline} renders them as the Fig. 5
    timeline. *)

module Resp : sig
  type t =
    | Okay
    | Slverr  (** slave error — the transaction reached a slave that failed *)
    | Decerr  (** decode error — no slave claimed the address *)

  val name : t -> string
  val is_error : t -> bool
end

module Params : sig
  type t = {
    data_bytes : int;  (** bytes per data beat (64 on the F1 shell) *)
    max_burst_beats : int;  (** AXI4 limit: 256; DDR IP sweet spot: 64 *)
    n_ids : int;  (** number of distinct AXI IDs available *)
  }

  val aws_f1 : t
  (** 512-bit data bus, 64-beat max burst, 16 IDs. *)

  val kria : t
  (** 128-bit data bus on the Zynq MPSoC HP ports. *)
end

module Burst : sig
  type segment = { addr : int; beats : int }

  val boundary : int
  (** AXI bursts may not cross this boundary (4096). *)

  val split : params:Params.t -> addr:int -> bytes:int -> segment list
  (** Decompose a transfer into legal AXI bursts: beat-aligned lengths of at
      most [max_burst_beats], never crossing a 4 KB boundary. [bytes] must
      be a multiple of [data_bytes] and [addr] beat-aligned. *)
end

type t

val create :
  ?tracer:Trace.t ->
  ?name:string ->
  ?fault:Fault.Injector.t ->
  Desim.Engine.t ->
  Dram.t ->
  Params.t ->
  t
(** With [fault], each burst reaching the head of its ID queue may be
    turned into a transient SLVERR/DECERR: no data beats fire and the
    error response arrives after roughly a CAS latency. With [tracer],
    every burst opens a span (track ["<name> rd id<NN>"]) carrying the
    response code, byte counters, per-direction latency series, and an
    outstanding-transaction occupancy sample stream; [name] defaults to
    ["axi"] and prefixes all registry entries for this port. *)

val params : t -> Params.t

val read :
  ?span:int ->
  t ->
  id:int ->
  addr:int ->
  beats:int ->
  on_beat:(beat:int -> unit) ->
  on_done:(Resp.t -> unit) ->
  unit
(** Issue one read burst. [on_beat] fires as each data beat is delivered in
    order; [on_done] after the last beat with the response code (on an
    error response no beats fire at all). Raises [Invalid_argument] for
    illegal bursts (too long, 4 KB crossing, bad id). [span] is the parent
    span (typically a reader stream) for the burst's trace span. *)

val write :
  ?span:int ->
  t ->
  id:int ->
  addr:int ->
  beats:int ->
  on_done:(Resp.t -> unit) ->
  unit
(** Issue one write burst; the master is assumed to supply write data at
    full rate. [on_done] fires with the B response code. *)

(** {1 Statistics} *)

val read_latency : t -> Desim.Stats.series
(** Per-transaction latency (issue to last beat), picoseconds. *)

val write_latency : t -> Desim.Stats.series
val reads_issued : t -> int
val writes_issued : t -> int

val error_responses : t -> int
(** Number of injected SLVERR/DECERR responses returned. *)
