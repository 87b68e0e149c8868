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
      ⌈[bytes] / [item_bytes]⌉ items of the channel's port width.
      [on_done] fires when the final write response returns. The region,
      rounded out to whole AXI beats, ships as the same legal bursts
      {!Reader.stream} plans, each once the unshipped pushed bytes cover
      it or every item is in. The buffer is counted in bytes, so an item
      may be wider than the beat. Raises [Invalid_argument] when the
      buffer cannot hold a burst plus one item, less the granule item and
      beat share: that item could wait for room only the burst frees. *)

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

  val load_row : sp -> int -> Bytes.t -> bool
  (** [load_row sp row buf] makes [buf] (one row wide) hold the row's
      contents and says whether that changed it. It compares in place:
      a row [buf] already holds costs no copy and no allocation. Raises
      [Invalid_argument] on a bad row or buffer width. *)

  val set : sp -> int -> Bytes.t -> unit
  val depth : sp -> int
end

(** Execution context handed to a core behavior. *)
type ctx = {
  engine : Desim.Engine.t;
  clock_ps : int;
  core_id : int;
  system : Config.system;
  soc : t;
}

val reader : ctx -> string -> Reader.r
val writer : ctx -> string -> Writer.w
(** The core's Reader or Writer declared under that name. Raises
    [Invalid_argument] when the system declares none. *)

val scratchpad : ctx -> string -> Scratchpad.sp

module Intercore : sig
  type port
  (** An [IntraCoreMemoryPortOut]: a write port into a scratchpad that
      lives in another System's cores (§II-B, appendix A). Writes route
      over the command fabric with the corresponding NoC latency, at most
      one per fabric cycle. *)

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
(** {!create} applies a core's behavior to its [ctx] once, while it builds
    the SoC, so the applied part can hold state the core keeps across
    commands (and must not look up channels yet). The result is invoked
    once per (possibly multi-beat) command and must eventually call
    [respond]. Cores execute one command at a time; further commands
    queue at the core. *)

val create :
  ?memory_bytes:int ->
  ?tracer:Trace.t ->
  ?fault:Fault.Injector.t ->
  Elaborate.t ->
  behaviors:(string -> behavior) ->
  t
(** [behaviors] maps a system name to its core behavior. Default device
    memory: 64 MB; a non-positive [memory_bytes] raises
    [Invalid_argument]. With [fault], the injector is threaded through the
    whole stack: DRAM read bursts may flip bits (caught by the SECDED
    scrub-on-read path), AXI bursts may error (retried with exponential
    backoff up to {!Fault.Policy.default}'s [axi_max_retries]),
    command/response beats may be dropped or delayed in the command NoC,
    and a planned core hang makes its victim swallow traffic until the
    runtime quarantines it.

    With [tracer], the whole stack records structured spans and counters:
    core execution, reader/writer streams, AXI bursts (every port, named
    [ddr0..ddrN]), DRAM activity, and command-NoC hops, all correlated by
    the issuing command's span/transaction id. Absent the tracer no
    recording happens anywhere on the hot path. *)

val engine : t -> Desim.Engine.t

val tracer : t -> Trace.t option
(** The structured tracer given at construction, if any. *)

val fault_injector : t -> Fault.Injector.t option

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

(** {1 Device memory contents}

    Device memory is [mem_size] bytes held as 4 KB pages, each allocated
    on the first write that touches it. Memory that was never written
    reads as zero, and reading allocates nothing, so host memory follows
    the bytes a run writes, not [mem_size]. Words are little-endian and
    may straddle pages. An access that reaches below address 0 or at or
    past [mem_size], or has a negative length, raises [Invalid_argument],
    as a [Bytes.t] of that size would. *)

val coherent_transactions : t -> int
(** Embedded platforms: memory transactions issued with AXI-ACE coherence
    (always 0 on discrete platforms, where DMA copies take that role). *)

val stats_report : t -> string
(** Human-readable counters: DRAM traffic and locality, AXI transaction
    counts and latencies, fabric message counts. *)

val mem_size : t -> int
(** The [memory_bytes] the SoC was created with. *)

val read_u8 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val read_u32 : t -> int -> int32
val write_u32 : t -> int -> int32 -> unit
val read_u64 : t -> int -> int64
val write_u64 : t -> int -> int64 -> unit
val blit_in : t -> src:Bytes.t -> dst_addr:int -> unit
val blit_out : t -> src_addr:int -> dst:Bytes.t -> unit

val copy_within : t -> src:int -> dst:int -> bytes:int -> unit
(** Like [Bytes.blit] within one buffer: correct when the two ranges
    overlap. *)
