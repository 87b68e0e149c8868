(** RTL signal graph — the hardware-construction half of the Chisel
    substitute. Accelerator cores (Fig. 2 of the paper) are written against
    this module; {!Circuit} snapshots a design, {!Cyclesim} executes it and
    {!Verilog} prints it.

    All signals are unsigned bitvectors. Sequential elements ({!reg},
    {!Mem}) latch on the single implicit clock. *)

type t

val uid : t -> int
val width : t -> int

(** {1 Constants and inputs} *)

val const : Bits.t -> t
val of_int : width:int -> int -> t
val vdd : t (** 1-bit constant 1 *)

val gnd : t (** 1-bit constant 0 *)

val input : string -> int -> t
(** A named circuit input of the given width. *)

(** {1 Wires (late assignment / feedback)} *)

val wire : int -> t
val assign : t -> t -> unit
(** [assign w d] drives wire [w] with [d]. A wire may be assigned once. *)

(** {1 Combinational operators} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t (** truncating at operand width *)

val ( +: ) : t -> t -> t
val ( -: ) : t -> t -> t
val ( *: ) : t -> t -> t
val ( &: ) : t -> t -> t
val ( |: ) : t -> t -> t
val ( ^: ) : t -> t -> t
val lnot : t -> t
val ( ==: ) : t -> t -> t (** 1-bit result *)

val ( <>: ) : t -> t -> t
val ( <: ) : t -> t -> t (** unsigned less-than, 1-bit *)

val ( <=: ) : t -> t -> t
val ( >: ) : t -> t -> t
val ( >=: ) : t -> t -> t
val sll : t -> int -> t
val srl : t -> int -> t
val sra : t -> int -> t

val mux2 : t -> t -> t -> t
(** [mux2 sel on_true on_false]; [sel] must be 1 bit wide. *)

val mux : t -> t list -> t
(** [mux sel cases] selects [cases[sel]]; out-of-range selects the last
    case. At least one case required, all the same width. Raises
    [Invalid_argument] when the selector is too narrow to reach every
    case (e.g. a 1-bit selector with three cases) — the extra cases
    would be silently unreachable. *)

val select : t -> hi:int -> lo:int -> t
val bit : t -> int -> t
val msb : t -> t
val concat : t list -> t (** head of the list = most-significant bits *)

val uresize : t -> int -> t (** zero-extend / truncate *)

val sext : t -> int -> t (** sign-extend / truncate *)

val repeat : t -> int -> t (** concatenate [n >= 1] copies *)

val zero : int -> t
val reduce_or : t -> t

(** {1 Sequential elements} *)

val reg : ?enable:t -> ?clear:t -> ?init:Bits.t -> t -> t
(** [reg d] is a register latching [d] each cycle ([enable] high, default
    always). [clear] synchronously resets to [init] (default zeros). *)

module Mem : sig
  type mem
  (** Multi-port memory. Writes commit at the cycle boundary; synchronous
      reads observe the pre-write contents (read-first). *)

  val create : ?name:string -> size:int -> width:int -> unit -> mem

  val write : mem -> enable:t -> addr:t -> data:t -> unit
  (** All ports raise [Invalid_argument] when the address is too narrow to
      index every entry of the memory; wider addresses are accepted (and
      range-checked at simulation time), but {!Lint} flags them. *)

  val read_async : mem -> addr:t -> t
  val read_sync : mem -> ?enable:t -> addr:t -> unit -> t
  val size : mem -> int
end

(** {1 Naming} *)

val ( -- ) : t -> string -> t
(** Attach a debug/Verilog name. *)

val name_of : t -> string option

(** {1 Construction tracking}

    {!Lint} can only find dead logic (nodes that never reach an output) if
    it knows what was built, since a {!Circuit} keeps reachable nodes
    only. *)

val tracking : (unit -> 'a) -> 'a * t list
(** [tracking f] runs [f] and additionally returns every signal created
    during the call, in creation order. Nested calls record into the
    innermost scope. *)

(** {1 Internals exposed for Circuit/Cyclesim/Verilog} *)

type kind =
  | Const of Bits.t
  | Input of string
  | Wire of t option ref
  | Op2 of op2 * t * t
  | Not of t
  | Shift of shift * int * t
  | Mux of t * t list
  | Select of int * int * t
  | Concat of t list
  | Reg of reg_spec
  | Mem_read_async of Mem.mem * t
  | Mem_read_sync of Mem.mem * t * t (* mem, addr, enable *)

and op2 = Add | Sub | Mul | And | Or | Xor | Eq | Lt
and shift = Sll | Srl | Sra
and reg_spec = { d : t; enable : t option; clear : t option; init : Bits.t }

val kind : t -> kind

type write_port = { wp_enable : t; wp_addr : t; wp_data : t }

val mem_uid : Mem.mem -> int

val mem_addr_bits : Mem.mem -> int
(** Bits needed to index every entry (>= 1). *)

val mem_size : Mem.mem -> int
val mem_width : Mem.mem -> int
val mem_name : Mem.mem -> string
(** The name given to {!Mem.create}; an unnamed memory's is [mem_<uid>]. *)

val mem_given_name : Mem.mem -> string option
(** The name given to {!Mem.create}, if one was. *)

val mem_write_ports : Mem.mem -> write_port list
