(** A closed design: named outputs plus everything reachable from them.

    [create] walks the graph, checks that every wire is assigned and that
    there are no combinational cycles, and records a topological order of
    the combinational logic used by both the simulator and the Verilog
    printer. [analyze] is the soft path: the same checks reported as
    {!Diag} diagnostics instead of an exception, used by {!Lint}. *)

type t

val analyze :
  name:string -> outputs:(string * Signal.t) list -> (t, Diag.t list) result
(** Structural check without raising: returns [Error diags] listing every
    problem found (rules [no-outputs], [dup-output-port], [undriven-wire]
    with the first consumer as context, [comb-loop] with the full cycle
    path, [input-width-conflict]) or [Ok circuit] when clean. *)

val create : name:string -> outputs:(string * Signal.t) list -> t
(** Raises [Failure] on dangling wires, duplicate port names, or
    combinational loops (reporting the full cycle path: names + kinds). *)

val name : t -> string
val outputs : t -> (string * Signal.t) list
val inputs : t -> (string * int) list
(** Discovered [(name, width)] inputs, sorted by name. Duplicate input
    names must agree on width. *)

val signals_in_topo_order : t -> Signal.t list
(** Combinational evaluation order; sequential nodes (registers, sync
    memory reads) appear as sources. *)

val registers : t -> Signal.t list

val memories : t -> Signal.Mem.mem list
(** In the order the walk from the outputs first reaches them, a function
    of the design alone. *)

val sync_reads : t -> Signal.t list

(** {1 Graph introspection (used by {!Lint} and the back-ends)} *)

val comb_deps : Signal.t -> Signal.t list
(** Combinational fan-in: signals whose current-cycle value the node
    needs. Empty for registers and synchronous reads. *)

val seq_deps : Signal.t -> Signal.t list
(** Fan-in of sequential elements, sampled at the cycle boundary. *)

val kind_name : Signal.t -> string
val describe : Signal.t -> string
(** ["signal #12 (count, wire)"] — uid, name when present, kind. *)
