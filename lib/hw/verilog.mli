(** Verilog-2001 emission for a {!Circuit} — the composer's hand-off artifact
    to FPGA/ASIC tool flows. One module per circuit, single clock [clk]. *)

val of_circuit : Circuit.t -> string
(** Signal names are canonical: an unnamed signal is [s_<i>] and a named
    one [<name>_<i>], where [i] is the signal's index in
    {!Circuit.signals_in_topo_order}; an input keeps its port name.
    Memories are declared in the order of their first read in that
    order. A memory keeps the name given to {!Signal.Mem.create}; an
    unnamed one is [mem_<k>], [k] counting up in that order past every
    name already declared (ports, signals, named memories). So the text
    is a function of the design alone: two builds of one design in one
    process emit the same Verilog. *)
