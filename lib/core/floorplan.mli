(** SLR-aware core placement and memory-cell mapping.

    Greedy capacity balancing: cores are placed one at a time onto the SLR
    whose peak utilization stays lowest, accounting for the shell's
    footprint (which biases placement away from SLR0/1 on the F1, the
    affinity behaviour the paper describes). Each placed core's memories
    are then mapped to BRAM/URAM with the 80 % spill rule against that
    SLR's running totals — so identical cores can legitimately end up with
    different cell mixes (Table II's 45/15 BRAM vs 0/32 URAM cores). *)

type memory_map = {
  mm_name : string;  (** scratchpad or channel-buffer name *)
  mm_choice : Platform.Fpga_mem.choice;
}

type core_place = {
  cp_system : string;
  cp_core : int;  (** index within the system *)
  cp_slr : int;
  cp_memories : memory_map list;
  cp_total : Platform.Resources.t;  (** logic + memory cells *)
}

type t = {
  places : core_place list;
  used_per_slr : Platform.Resources.t array;  (** includes shell *)
  platform : Platform.Device.t;
}

val place :
  ?kernel_sizes:(string * Resource_model.kernel_size) list ->
  Config.t ->
  Platform.Device.t ->
  t
(** Raises [Failure] with a diagnostic when the design cannot fit.
    [kernel_sizes] gives, per system name, the {!Resource_model.kernel_size}
    of the system's constant-folded kernel circuit (as
    {!Check.analyze_kernel} records it); a system missing from it has its
    circuit folded here. *)

val slr_of : t -> system:string -> core:int -> int

val constraints : t -> string
(** Vivado-style pblock placement constraints enforcing the floorplan. *)

val render : t -> string
(** ASCII floorplan in the style of Fig. 8: cores listed per SLR. *)
