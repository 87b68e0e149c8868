(** Netlist optimization.

    The composer sits between the user's RTL and the tool flow, so it can
    clean the netlist the way FIRRTL does for Chisel: constant folding,
    identity simplification (x+0, x&0, mux on a constant selector, …) and
    — implicitly, because {!Circuit.create} only keeps reachable nodes —
    dead-code elimination. The transformed circuit is observationally
    identical: same ports, same cycle-by-cycle behaviour. *)

val eval_op2 : Signal.op2 -> Bits.t -> Bits.t -> Bits.t
(** Evaluate a binary operator on constant operands — the single source of
    truth shared by the folder, {!Dataflow}'s transfer functions and
    {!Cyclesim}-agreement tests. *)

val constant_fold : Circuit.t -> Circuit.t
(** Rebuild the circuit with constants propagated. *)

val node_count : Circuit.t -> int
(** The number of nodes in the circuit's topological order. *)
