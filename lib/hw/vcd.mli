(** VCD waveform dumping for {!Cyclesim} — the debugging artifact the
    paper's simulation platform (Verilator/VCS) provides; wire it into a
    test bench to inspect a Core's behaviour cycle by cycle. *)

type t

val create : Cyclesim.t -> signals:(string * Signal.t) list -> t
(** Watch the given (name, signal) pairs. The timescale is the
    composer's 4000 ps fabric clock; one {!sample} = one timestep. *)

val sample : t -> unit
(** Record the watched signals' current values (call after each
    [Cyclesim.step]). Only changed values are emitted. *)

val contents : t -> string
(** The VCD file text accumulated so far (header + value changes). *)

val write_file : t -> string -> unit
