(** ASIC SRAM memory compiler.

    Technology libraries ship a fixed set of SRAM macros; a requested
    memory must be assembled by banking (parallel macros selected by high
    address bits) and cascading (widening the word by placing macros side
    by side). Beethoven provides this "memory compiler-like utility" for
    its ASIC backends (ASAP7, Synopsys educational PDK); this module
    implements it with an area-minimizing macro selection. *)

type macro = {
  macro_name : string;
  words : int;
  bits : int;  (** word width *)
  area_um2 : float;
}

val asap7_library : macro list
(** A representative 7-nm-class macro set. *)

val saed32_library : macro list
(** Synopsys educational 32-nm-class macro set (larger macros). *)

type plan = {
  macro : macro;
  banks : int;  (** depth-wise replication *)
  cascade : int;  (** width-wise replication *)
  total_area_um2 : float;
  overhead_bits : int;  (** allocated minus requested storage *)
}

val compile : library:macro list -> width_bits:int -> depth:int -> plan
(** Pick the macro and arrangement minimizing total area. Raises
    [Invalid_argument] on an empty library or non-positive dimensions. *)

val describe : plan -> string
