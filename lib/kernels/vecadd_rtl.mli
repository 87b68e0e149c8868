(** Fig. 2 as real RTL: the vector-add Core written in the {!Hw} DSL and
    executed inside the composed SoC through {!Beethoven.Rtl_core} — the
    32-bit adder in this netlist is what computes the results. The add is
    in place (one Reader and one Writer on the same vector), as in the
    paper's listing. *)

val command : Beethoven.Cmd_spec.command
(** Single-beat command: [vec_addr] (payload 1), [addend]+[n_eles]
    (payload 2). *)

val circuit : unit -> Hw.Circuit.t
(** A fresh instance of the core netlist. {!config} declares one as its
    system's [kernel_circuit]: the netlist the composer lints, places and
    emits, and the one {!behavior} simulates. *)

val config : ?n_cores:int -> unit -> Beethoven.Config.t
val behavior : Beethoven.Soc.behavior

val run :
  ?n_cores:int ->
  ?n_eles:int ->
  platform:Platform.Device.t ->
  unit ->
  bool * int64 list * int
(** End-to-end: returns (outputs correct, per-core responses, simulated
    picoseconds). *)
