(** SLR-aware tree interconnect generator.

    Beethoven's on-chip networks (for commands, memory traffic, and
    intra-accelerator communication) are trees of buffers: one subtree per
    SLR containing the endpoints placed there, subtree roots joined to the
    network root across die-crossing links with extra pipelining. Fanout
    and per-hop buffering are the platform-tunable knobs the paper
    describes. The same structure yields both a latency model (used by the
    SoC simulation) and a buffer count (used by the resource estimator —
    the "Interconnect" row of Table II). *)

module Params : sig
  type t = {
    max_fanout : int;  (** max children per tree node *)
    node_latency_cycles : int;  (** pipeline stages per buffer node *)
    slr_crossing_latency_cycles : int;  (** per die crossing *)
    clock_ps : int;  (** fabric clock period *)
  }

  val default : clock_ps:int -> t
  (** fanout 4, 1 cycle per node, 4 cycles per SLR crossing. *)
end

type endpoint = { ep_id : int; ep_slr : int }
type t

val build : Params.t -> root_slr:int -> endpoints:endpoint list -> t
(** Raises [Invalid_argument] on duplicate endpoint ids. An empty endpoint
    list is legal (a design with no memory channels has an empty memory
    fabric). *)

(** {1 Structure} *)

val n_buffers : t -> int
(** Internal tree nodes, including SLR-crossing pipeline buffers. *)

val n_slr_crossings : t -> int
val depth_of : t -> ep_id:int -> int
(** Hops (tree nodes traversed) from the root to the endpoint. *)

val latency_ps : t -> ep_id:int -> int
(** One-way latency: a whole number of fabric cycles. *)

val describe : t -> string
(** Human-readable topology summary. *)

(** {1 Messaging} *)

type delivery =
  | Delivered
  | Dropped  (** a fault swallowed the message; the callback never fires *)
  | Delayed of int  (** delivered, but a fault added this many ps *)

val send :
  t -> Desim.Engine.t -> ep_id:int ->
  ?tracer:Trace.t -> ?label:string -> ?span:int ->
  ?fault:Fault.Injector.t * Fault.Class.t ->
  (unit -> unit) -> delivery
(** Deliver a message from the root to [ep_id] (or vice versa — the tree is
    symmetric): the callback fires after the one-way latency. With
    [fault], the injector may drop the message (using the given drop
    class — the callback then never fires, and the caller is told via
    [Dropped] so it can account for the loss) or delay it by a bounded
    random amount. Delayed messages never overtake earlier ones to the
    same endpoint: the tree preserves per-route ordering.

    With [tracer], the hop records a span from send to arrival (parented
    on [span], lane ["noc <label>"]) and feeds the per-label hop-latency
    series and histogram; drops become instants. *)

val messages_sent : t -> int
