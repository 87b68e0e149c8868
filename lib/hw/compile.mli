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
      kind, operand slots and width mask;
    - registers, synchronous memory reads and memory write ports become
      latch/commit closures, so a clock edge is two tight array loops.

    Evaluation is change-driven. A combinational slot is re-evaluated
    only when one of its dependencies changed since its last evaluation,
    level by level in {!Levelize} order, and a slot that recomputes to
    the value it held does not propagate further. Slots are queued at
    exactly these places:
    - {!set_input} / {!set_input_int} with a value different from the
      current one queues the input's consumers;
    - a register or synchronous read that latches a different value at
      {!step} queues its consumers;
    - a memory write, by a write port at {!step} or by {!write_memory},
      that changes a word queues every asynchronous read of that memory.

    The first settle after {!create} evaluates every slot. A settle with
    nothing queued does no work, so the cost of a cycle follows the
    number of nodes whose inputs changed, not the size of the netlist.

    Outputs are bit-identical to {!Cyclesim} on every circuit (the
    lockstep and interleaved-order qcheck properties in
    [test/test_compile.ml] hold both backends to that). Unlike the interpreter, an unconnected wire is rejected
    here at {!create} time with [Invalid_argument] naming the wire,
    before the first [step] can trip over it. *)

type t

val create : Circuit.t -> t
(** Compile the circuit. Raises [Invalid_argument] naming the offending
    signal if the circuit contains an unconnected wire. *)

val set_input : t -> string -> Bits.t -> unit
(** Raises [Not_found] for unknown ports, [Invalid_argument] on width
    mismatch. Values persist across cycles until overwritten. *)

val set_input_int : t -> string -> int -> unit
val output : t -> string -> Bits.t
(** Settles whatever is queued, then reads the output. Raises [Not_found]
    for unknown ports. *)

val output_int : t -> string -> int

val peek : t -> Signal.t -> Bits.t
(** Read any signal's settled value (for debugging/tests). Settles
    whatever is queued first, as {!output} and {!output_int} do, so it
    is valid at any time. *)

val settle : t -> unit
(** Re-evaluate the queued slots (see above) without advancing the
    clock; visits only those slots and their changed fan-out. *)

val step : t -> unit
(** Settle, then advance one clock edge: registers and synchronous reads
    latch, memory writes commit. It does not settle afterwards; what the
    edge changed stays queued until the next {!settle}, {!output},
    {!output_int}, {!peek} or {!step}. *)

val cycle : t -> int
(** Number of clock edges so far. *)

val read_memory : t -> Signal.Mem.mem -> int -> Bits.t
val write_memory : t -> Signal.Mem.mem -> int -> Bits.t -> unit
(** Backdoor memory access for test benches. *)
