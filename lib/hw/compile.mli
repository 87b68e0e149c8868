(** Compiled cycle-accurate simulator over the {!Levelize} IR.

    Drop-in replacement for {!Cyclesim} (same evaluation model: settle,
    then registers latch read-before-write and memories commit
    read-first), but instead of interpreting the signal graph through
    per-uid hashtables it specializes the circuit once at {!create}:

    - every node gets a dense slot (the {!Levelize} slot order, which is
      a valid evaluation order) in preallocated value arrays — signals of
      width [<= 62] live in a plain [int array] with no per-cycle
      allocation, wider signals in a [Bits.t array];
    - every combinational node becomes one closure specialized to its
      kind, operand slots and width mask. A wide concat of narrow parts
      writes its limbs in one allocation ({!Bits.concat_ints});
    - the three-node shape {!Signal.sext} builds (msb select, repeat of
      that bit, concat with the source) becomes one closure over the
      source, when the select and the repeat feed nothing else and are
      not outputs. Those two {e fused} slots are never evaluated by
      {!settle}; {!peek} recomputes them from their settled inputs, so
      every signal still reads its exact value;
    - registers and synchronous memory reads become latch/commit
      closures, memory write ports write closures.

    Evaluation is change-driven. A combinational slot is re-evaluated
    only when one of its dependencies changed since its last evaluation,
    level by level in {!Levelize} order, and a slot that recomputes to
    the value it held does not propagate further. Each slot lists each of
    its consumers once. Slots are queued at exactly these places:
    - {!set_input}, {!set_input_int}, {!set} or {!set_int} with a value
      different from the current one queues the input's consumers;
    - a register or synchronous read that latches a different value at
      {!step} queues its consumers;
    - a memory write, by a write port at {!step} or by {!write_memory},
      that changes a word queues every asynchronous read of that memory.

    The clock edge is change-driven too. {!step} latches and commits only
    the registers and synchronous reads marked since the last edge, and
    an element is marked at exactly these places:
    - a register, when its [d], [enable] or [clear] signal changes value
      (by any of the above, or by a settle that changes the slot);
    - a synchronous read, when its address or enable changes value, or
      when a word of its memory changes (by a write port at {!step} or
      by {!write_memory});
    - every element, once, at {!create}: the first edge latches them all.

    An element whose inputs held still latches the value it already
    holds, so skipping it changes nothing. Memory write ports still run
    at every edge, in declaration order.

    The first settle after {!create} evaluates every slot outside a fused
    sign extension. A settle with nothing queued does no work, so the
    cost of a cycle follows the number of nodes whose inputs changed,
    not the size of the netlist.

    Outputs are bit-identical to {!Cyclesim} on every circuit (the
    lockstep and interleaved-order qcheck properties in
    [test/test_compile.ml] hold both backends to that). Unlike the interpreter, an unconnected wire is rejected
    here at {!create} time with [Invalid_argument] naming the wire,
    before the first [step] can trip over it. *)

type t

val create : Circuit.t -> t
(** Compile the circuit. Raises [Invalid_argument] naming the offending
    signal if the circuit contains an unconnected wire. *)

(** {1 Port handles}

    A handle names a port once: {!in_port} and {!out_port} resolve the
    name to its slots, and reads and writes through the handle do no
    lookup. {!set_int} and {!get_int} on a port of at most 62 bits box
    nothing and allocate nothing. A handle belongs to the simulator that
    resolved it: {!set}, {!set_int}, {!get} and {!get_int} raise
    [Invalid_argument] on a handle of another simulator. The string API
    below is a thin wrapper over these. *)

type in_port
type out_port

val in_port : t -> string -> in_port
(** Raises [Not_found] for unknown inputs. *)

val out_port : t -> string -> out_port
(** Raises [Not_found] for unknown outputs. *)

val set : t -> in_port -> Bits.t -> unit
(** Raises [Invalid_argument] on width mismatch. Values persist across
    cycles until overwritten. *)

val set_int : t -> in_port -> int -> unit
(** The low bits of a non-negative int (as {!Bits.of_int}); raises
    [Invalid_argument] on a negative value. *)

val get : t -> out_port -> Bits.t
(** Settles whatever is queued, then reads the output. *)

val get_int : t -> out_port -> int
(** As {!get}, as an int: the value of a port of at most 62 bits, the
    low 62 bits of a wider one (as {!Bits.to_int_trunc}). Never
    allocates; raises only on a handle of another simulator. *)

(** {1 By name} *)

val set_input : t -> string -> Bits.t -> unit
(** [set t (in_port t name)]: raises [Not_found] for unknown ports,
    [Invalid_argument] on width mismatch. *)

val set_input_int : t -> string -> int -> unit
val output : t -> string -> Bits.t
(** [get t (out_port t name)]: raises [Not_found] for unknown ports. *)

val output_int : t -> string -> int
(** Exact: on a port wider than 62 bits raises [Failure] when the value
    does not fit an int (as {!Bits.to_int}). *)

val peek : t -> Signal.t -> Bits.t
(** Read any signal's settled value (for debugging/tests). Settles
    whatever is queued first, as {!output} and {!output_int} do, so it
    is valid at any time; a fused slot (see above) is recomputed from
    its settled inputs. *)

val settle : t -> unit
(** Re-evaluate the queued slots (see above) without advancing the
    clock; visits only those slots and their changed fan-out. *)

val step : t -> unit
(** Settle, then advance one clock edge: the marked registers and
    synchronous reads latch, every memory write port runs, the latched
    elements commit. It does not settle afterwards; what the edge changed
    stays queued until the next {!settle}, {!get}, {!get_int}, {!output},
    {!output_int}, {!peek} or {!step}. *)

val cycle : t -> int
(** Number of clock edges so far. *)

val read_memory : t -> Signal.Mem.mem -> int -> Bits.t
val write_memory : t -> Signal.Mem.mem -> int -> Bits.t -> unit
(** Backdoor memory access for test benches. *)
