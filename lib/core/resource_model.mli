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

val core_logic :
  Config.system -> Platform.Device.t -> Platform.Resources.t
(** Per-core logic cost: kernel + all primitive bases (no memory cells). *)
