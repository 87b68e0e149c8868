(** The simulated accelerated system.

    Instantiates an elaborated design as live simulation components: device
    DRAM (contents + timing), the AXI memory port, command/memory NoCs
    (latency from the floorplan), and one process per core running a
    user-supplied {!behavior} — the transaction-level equivalent of the
    RTL a Beethoven user writes. Readers and Writers implement the
    prefetching, bursting, and AXI-ID policies of the paper's memory
    primitives; their timing flows entirely from the {!Dram}/{!Axi}
    models. *)

type t

module Reader : sig
  type r

  val beat_bytes : r -> int
  (** The channel's AXI beat width on the elaborated platform — the
      widest legal [item_bytes] (and its divisor granule). A kernel
      meant to run on any platform sizes its items against this instead
      of hard-coding the discrete-FPGA 64 B beat. *)

  val stream :
    r ->
    addr:int ->
    bytes:int ->
    ?item_bytes:int ->
    on_item:(offset:int -> unit) ->
    on_done:(unit -> unit) ->
    unit ->
    unit
  (** Stream a contiguous region. [on_item] fires once per [item_bytes]
      window (default: the channel's configured port width), at most one
      item per fabric cycle, in address order, as prefetched data becomes
      available. Buffer capacity and the in-flight transaction limit come
      from the channel configuration. *)

  val bulk :
    r -> addr:int -> bytes:int -> on_done:(unit -> unit) -> unit
  (** Fetch a region at full channel throughput without item-level
      delivery; [on_done] fires when the last beat has arrived. *)

  val stream_strided :
    r ->
    addr:int ->
    row_bytes:int ->
    stride:int ->
    n_rows:int ->
    ?item_bytes:int ->
    on_item:(row:int -> offset:int -> unit) ->
    on_done:(unit -> unit) ->
    unit ->
    unit
  (** Strided access (one of the "other communication primitives" §II-B
      notes the design admits): stream [n_rows] rows of [row_bytes]
      starting [stride] bytes apart. Rows are fetched in order, one
      stream at a time — the low-effort strided Reader. *)
end

module Writer : sig
  type w

  val begin_txn : w -> addr:int -> bytes:int -> on_done:(unit -> unit) -> unit
  (** Open a write stream. The core then {!push}es exactly
      [bytes / item_bytes] items. [on_done] fires when the final write
      response returns. *)

  val push : w -> on_accept:(unit -> unit) -> unit
  (** Offer one item; [on_accept] fires when buffer space admits it (at
      most one per fabric cycle). *)

  val bulk : w -> addr:int -> bytes:int -> on_done:(unit -> unit) -> unit
  (** Write a region at full channel throughput (data assumed ready). *)
end

module Scratchpad : sig
  type sp

  val init_from_memory :
    sp -> addr:int -> ?bytes:int -> on_done:(unit -> unit) -> unit -> unit
  (** Fill the scratchpad from device memory through its built-in Reader
      (timing + contents). Default [bytes] = the whole scratchpad. *)

  val get : sp -> int -> Bytes.t
  (** Row contents ([data_bits/8] bytes, zero-padded). *)

  val set : sp -> int -> Bytes.t -> unit
  val get_u64 : sp -> int -> int64
  val set_u64 : sp -> int -> int64 -> unit
  val depth : sp -> int
  val latency : sp -> int
end

(** Execution context handed to a core behavior. *)
type ctx = {
  engine : Desim.Engine.t;
  clock_ps : int;
  core_id : int;
  system : Config.system;
  soc : t;
}

val reader : ctx -> ?idx:int -> string -> Reader.r
val writer : ctx -> ?idx:int -> string -> Writer.w
val scratchpad : ctx -> string -> Scratchpad.sp

module Intercore : sig
  type port
  (** An [IntraCoreMemoryPortOut]: a write port into a scratchpad that
      lives in another System's cores (§II-B, appendix A). Writes route
      over the command fabric with the corresponding NoC latency, at most
      one per fabric cycle per channel. *)

  val write :
    port ->
    target_core:int ->
    row:int ->
    data:Bytes.t ->
    on_done:(unit -> unit) ->
    unit
  (** Raises [Invalid_argument] on a bad core index, row, or data width
      (must equal the target scratchpad's row width). *)
end

val intercore_out : ctx -> string -> Intercore.port
(** Look up a declared [intra_core_port] by name. *)

val after_cycles : ctx -> int -> (unit -> unit) -> unit
(** Model [n] fabric cycles of compute. *)

type behavior = ctx -> Rocc.t list -> respond:(int64 -> unit) -> unit
(** Invoked once per (possibly multi-beat) command; must eventually call
    [respond]. Cores execute one command at a time; further commands queue
    at the core. *)

val create :
  ?memory_bytes:int ->
  ?tracer:Trace.t ->
  ?fault:Fault.Injector.t ->
  ?policy:Fault.Policy.t ->
  Elaborate.t ->
  behaviors:(string -> behavior) ->
  t
(** [behaviors] maps a system name to its core behavior. Default device
    memory: 64 MB. With [fault], the injector is threaded through the
    whole stack: DRAM read bursts may flip bits (caught by the SECDED
    scrub-on-read path), AXI bursts may error (retried with exponential
    backoff up to [policy.axi_max_retries]), command/response beats may be
    dropped or delayed in the command NoC, and a planned core hang makes
    its victim swallow traffic until the runtime quarantines it.

    With [tracer], the whole stack records structured spans and counters:
    core execution, reader/writer streams, AXI bursts (every port, named
    [ddr0..ddrN]), DRAM activity, and command-NoC hops, all correlated by
    the issuing command's span/transaction id. Absent the tracer no
    recording happens anywhere on the hot path. *)

val engine : t -> Desim.Engine.t

val uid : t -> int
(** Unique per SoC instance within the process. *)

val tracer : t -> Trace.t option
(** The structured tracer given at construction, if any. *)

val fault_injector : t -> Fault.Injector.t option
val policy : t -> Fault.Policy.t

val cmd_key : t -> system_id:int -> core_id:int -> int
(** The command-NoC endpoint id of a core — the routing key under which
    lost-message faults are recorded and resolved. *)

val core_hung : t -> system_id:int -> core_id:int -> bool
(** True once an injected hang has fired on the core. *)

val design : t -> Elaborate.t
val platform : t -> Platform.Device.t
val dram : t -> Dram.t

val axi_ports : t -> Axi.t array
(** One port per DDR controller; memory channels are assigned round-robin
    by endpoint, as a platform developer's channel mapping would. *)

val send_command :
  ?span:int -> t -> Rocc.t -> on_response:(Rocc.response -> unit) -> unit
(** Deliver a RoCC command beat through the MMIO frontend and the command
    NoC. [on_response] fires (at the MMIO boundary) for the final beat's
    response when the command declares one. [span] is the issuing host
    command's trace span: NoC hops and the core's execution span parent
    under it. *)

(** {1 Device memory contents} *)

val coherent_transactions : t -> int
(** Embedded platforms: memory transactions issued with AXI-ACE coherence
    (always 0 on discrete platforms, where DMA copies take that role). *)

val stats_report : t -> string
(** Human-readable counters: DRAM traffic and locality, AXI transaction
    counts and latencies, fabric message counts. *)

val mem_size : t -> int
val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u32 : t -> int -> int32
val write_u32 : t -> int -> int32 -> unit
val read_u64 : t -> int -> int64
val write_u64 : t -> int -> int64 -> unit
val blit_in : t -> src:Bytes.t -> dst_addr:int -> unit
val blit_out : t -> src_addr:int -> dst:Bytes.t -> unit
val copy_within : t -> src:int -> dst:int -> bytes:int -> unit
