(** Resource cost model for Beethoven-generated logic.

    Base (logic-only) costs of each primitive; memory cells are chosen
    separately during floorplanning with the SLR-utilization-aware mapper.
    The constants are calibrated against the per-component utilization the
    paper publishes for the 23-core A³ design (Table II), which is the one
    public ground truth for this generator's output. *)

val mmio_frontend : Platform.Resources.t
(** The AXI-MMIO command/response system (one per accelerator). *)

val noc_buffer : width_bits:int -> Platform.Resources.t
(** One interconnect tree node switching a payload of the given width. *)

val mem_noc_width_bits : Platform.Device.t -> int
(** Payload width of the memory interconnect: data bus + address + id. *)

val cmd_noc_width_bits : int
(** RoCC command width + routing. *)

type kernel_size = {
  ks_nodes : int;  (** nodes in the circuit's topological order *)
  ks_register_bits : int;  (** total width of its registers *)
}
(** The two figures of an RTL-DSL kernel the logic estimate reads. *)

val kernel_size : Hw.Circuit.t -> kernel_size
(** Of the circuit as given; the estimate reads the constant-folded
    netlist's, as the tool flow would see it. *)

val core_logic :
  ?kernel_size:kernel_size ->
  Config.system ->
  Platform.Device.t ->
  Platform.Resources.t
(** Per-core logic cost: kernel + all primitive bases (no memory cells).
    A kernel circuit without declared [kernel_resources] is estimated
    from [kernel_size], which must be that of its constant fold; without
    it the circuit is folded here. *)
