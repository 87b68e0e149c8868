(** RTL cores inside the simulated SoC.

    This is the paper's primary developer surface: the user writes only
    the Core's RTL (Fig. 2) against Beethoven's command and memory-stream
    interfaces, and the composer supplies everything around it. Here the
    Core is an {!Hw.Circuit} following the port convention below; this
    module bridges it — cycle by cycle, through the compiled
    {!Hw.Compile} simulator — to the transaction-level command fabric
    and Reader/Writer models, so the RTL's own datapath computes the
    results while the memory system provides the timing.

    {2 Per-cycle cost}

    Each core resolves every port to a {!Hw.Compile} handle once, at its
    first command; a cycle looks up no name. The bridge drives the
    request ports only when the beat at the head of the command changes,
    re-reads a data beat or a scratchpad row into a fresh [Bits] value
    only when its bytes differ from the ones the port holds (a row is
    compared in place, {!Soc.Scratchpad.load_row}), and builds no closure
    per cycle. A cycle allocates only the event that schedules the next
    one and the [Bits] of a data beat or row whose bytes changed.

    {2 Port convention (the [BeethovenIO] equivalent)}

    Command side (inputs unless noted):
    - [req_valid]:1, [req_funct]:7, [req_p1]:64, [req_p2]:64;
      output [req_ready]:1 — one RoCC beat per fire.
    - output [resp_valid]:1, output [resp_data]:64; input [resp_ready]:1.

    Per read channel [c] (declared in the configuration):
    - outputs [c_req_valid]:1, [c_req_addr]:64, [c_req_len]:32 (bytes);
      input [c_req_ready]:1.
    - inputs [c_data_valid]:1, [c_data]:8*data_bytes;
      output [c_data_ready]:1.

    Per write channel [c]:
    - outputs [c_req_valid]:1, [c_req_addr]:64, [c_req_len]:32;
      input [c_req_ready]:1.
    - outputs [c_data_valid]:1, [c_data]:8*data_bytes;
      input [c_data_ready]:1.

    The bridge asserts [resp_ready] permanently and completes the command
    when the core raises [resp_valid] *and* every write transaction it
    opened has received its final write response. *)

val behavior : Soc.behavior
(** A {!Soc.behavior} that simulates its system's declared
    [kernel_circuit] — the netlist {!Check} linted and timed, the
    floorplan placed and {!Elaborate.verilog} emits — on the compiled
    backend ({!Hw.Compile}), clocked at the fabric rate while a command
    is active.

    Applied to a core's [ctx] (once, at boot, by {!Soc.create}), it
    keeps the core's bridge in its closure: built at the core's first
    command, it lives exactly as long as the SoC. A behavior that sends
    some commands here must apply it once per core too: applied per
    command, it builds a new simulator every time.

    Raises [Failure] at the first command if the system declares no
    kernel circuit (the message names the system) or if the circuit is
    missing a required output port (the message names it). A data port
    whose width disagrees with its channel or scratchpad raises
    [Invalid_argument] at the first command too. *)
