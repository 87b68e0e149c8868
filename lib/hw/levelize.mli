(** Levelized view of a {!Circuit}: every node of the netlist flattened
    into one array in level order, with integer-slot dependency edges and
    fanout counts.

    Level 0 holds the sources — constants, inputs, registers and
    synchronous memory reads (whose current-cycle value depends on state,
    not on combinational fan-in). A node sits at level [n] when every
    combinational dependency sits at a level strictly below [n]
    (specifically [1 + max (level deps)]). Within a level, nodes are
    ordered by uid, so the layout is a deterministic function of the
    circuit alone.

    This array is the contract for compiled backends: evaluating slots
    [0..n) in order is valid (dependencies always resolve to lower
    slots), and so is evaluating level by level in any order within a
    level, over preallocated value arrays indexed by slot — no hashing,
    no pointer chasing. {!Compile} queues changed slots per level;
    {!Dataflow} and {!Sta} run over the whole array. *)

type node = {
  n_slot : int;  (** index of this node in {!nodes} *)
  n_signal : Signal.t;
  n_level : int;
  n_deps : int array;
      (** slots of the combinational dependencies, in {!Circuit.comb_deps}
          order; every entry is [< n_slot]. The per-kind layout is part of
          the contract (compiled backends decode operands positionally
          from it): [Op2 (op, a, b)] is [[|a; b|]]; [Not], [Shift] and
          [Select] are [[|a|]]; [Mux (sel, cases)] is [sel] followed by
          the cases in order; [Concat parts] is the parts MSB-first;
          [Wire] is its driver; [Mem_read_async] is [[|addr|]]; sources
          ([Const], [Input], [Reg], [Mem_read_sync]) are empty. *)
  n_fanout : int;
      (** number of loads: combinational consumers, sequential-element
          inputs (register d/enable/clear, sync-read address/enable) and
          memory write-port references, counting one per reference *)
}

type t

val of_circuit : Circuit.t -> t

val circuit : t -> Circuit.t
val nodes : t -> node array
(** Level-major, uid-minor order. Do not mutate. *)

val n_nodes : t -> int
val n_levels : t -> int
(** Number of distinct levels ([comb_depth + 1]); at least 1 for any
    well-formed circuit. *)

val comb_depth : t -> int
(** Highest level = length of the longest combinational dependency
    chain. 0 for a circuit of sources only. *)

val level_slice : t -> int -> int * int
(** [(first_slot, count)] of a level's contiguous slice of {!nodes}. *)

val slot_of : t -> Signal.t -> int
(** Raises [Not_found] for signals outside the circuit. *)

val max_fanout : t -> int
(** Largest fanout of any node (0 for a single-node circuit). *)

val hotspots : t -> n:int -> node list
(** The [n] highest-fanout nodes, fanout descending, ties by uid
    ascending — the nets replication/pipelining should look at first. *)
