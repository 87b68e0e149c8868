(** Backend-agnostic RTL simulation.

    {!Cyclesim} (the reference interpreter) and {!Compile} (the
    levelized compiled backend) implement the same evaluation model and
    the same module interface {!S}; this module pins that interface down
    and provides a runtime-selectable dispatch so callers (the bench
    harnesses, [beethoven_gen sim]) can switch backends with a value
    instead of a functor. [Core.Rtl_core] drives {!Compile} directly,
    through its port handles. *)

(** The simulator operations both backends provide, with identical
    semantics and exceptions (see {!Cyclesim} for the documentation of
    each). *)
module type S = sig
  type t

  val create : Circuit.t -> t
  val set_input : t -> string -> Bits.t -> unit
  val set_input_int : t -> string -> int -> unit
  val output : t -> string -> Bits.t
  val output_int : t -> string -> int

  val peek : t -> Signal.t -> Bits.t
  (** Any signal's value, settled first: like {!output} and
      {!output_int}, it is valid at any time. *)

  val settle : t -> unit
  (** Bring every combinational value up to date with the inputs, the
      state and the memories. {!Cyclesim} re-evaluates the whole netlist;
      {!Compile} re-evaluates only the slots whose dependencies changed
      (see {!Compile}). *)

  val step : t -> unit
  (** Settle, then advance one clock edge. {!Compile} leaves the edge's
      changes queued for the next read or settle; no caller can tell,
      since every read settles first. *)

  val cycle : t -> int
  val read_memory : t -> Signal.Mem.mem -> int -> Bits.t
  val write_memory : t -> Signal.Mem.mem -> int -> Bits.t -> unit
end

type backend = Interpreter | Compiled

val backend_name : backend -> string
(** ["interpreter"] / ["compiled"]. *)

val backend_of_string : string -> backend option
(** Inverse of {!backend_name}; [None] on anything else. *)

type t
(** A simulator instance of either backend. *)

val create : ?backend:backend -> Circuit.t -> t
(** Defaults to {!Compiled}; the interpreter remains the differential
    reference. *)

val backend : t -> backend

val set_input : t -> string -> Bits.t -> unit
val set_input_int : t -> string -> int -> unit
val output : t -> string -> Bits.t
val output_int : t -> string -> int
val peek : t -> Signal.t -> Bits.t
val settle : t -> unit
val step : t -> unit
val cycle : t -> int
val read_memory : t -> Signal.Mem.mem -> int -> Bits.t
val write_memory : t -> Signal.Mem.mem -> int -> Bits.t -> unit

(** {1 Differential check} *)

val random_bits : Random.State.t -> int -> Bits.t
(** A random value of the given width, drawn 16 bits at a time. *)

val lockstep :
  Circuit.t ->
  cycles:int ->
  stimulus:(int -> (string * Bits.t) list) ->
  (unit, string) result
(** Run both backends side by side: cycle [n] (from 1) drives the inputs
    [stimulus n] lists, then compares every output and memory word
    before the edge. [Error] names the first divergence, ["cycle N,
    output O"] or ["cycle N, memory M[A]"]. *)
