(** Multi-pass netlist linter.

    The composer promises that a per-core netlist plugged into a generated
    SoC is well-formed; this module is the static half of that promise. It
    runs a rule catalog over a {!Circuit.t} (or, via {!graph}, over a raw
    output list so structural breakage is reported as diagnostics rather
    than an exception) and emits {!Diag.t} values with stable rule ids.

    Rule catalog (see {!rules} for the machine-readable form):

    - [undriven-wire] (error) — a wire without a driver, reported with the
      first consumer that references it ({!graph} only; {!Circuit.create}
      raises on the hard path).
    - [comb-loop] (error) — combinational cycle, reported with the full
      cycle path (signal names + kinds) ({!graph} only).
    - [dup-output-port], [no-outputs], [input-width-conflict] (error) —
      structural port problems ({!graph} only).
    - [dead-logic] (warning) — tracked signals (see {!Signal.tracking})
      that cannot reach any circuit output.
    - [mux-sel-wide] (warning) — a mux selector wider than its case count
      needs; the out-of-range encodings silently clamp to the last case.
      (The opposite defect — a selector too narrow to reach every case —
      is rejected at construction by {!Signal.mux}.)
    - [async-read-mapping] (warning) — a memory with an asynchronous read
      port whose size exceeds the distributed-RAM budget: BRAM/URAM cells
      only provide synchronous reads, so the mapping cannot use them.
    - [mem-addr-wide] (warning) — a memory port address wider than the
      memory depth needs; the excess encodings are range-checked at
      simulation time only. (Too-narrow addresses are rejected at
      construction by {!Signal.Mem}.)
    - [write-port-overlap] (warning) — multiple write ports whose enables
      are not provably mutually exclusive and whose addresses may collide.
    - [unnamed-state] (info) — unnamed registers / auto-named memories,
      which degrade VCD and generated-Verilog readability.
    - [const-foldable] (info) — constant folding ({!Opt.constant_fold})
      would shrink the netlist.

    Value-aware rules, computed by {!Dataflow}'s abstract interpretation
    over the {!Levelize}d netlist:

    - [read-before-init] (warning) — an uninitialized memory read (X
      under 4-state semantics) may reach an output or a write enable.
    - [const-output] (warning) — an output that is not syntactically a
      constant is provably constant on every cycle for every input.
    - [dead-mux-arm] (warning) — a mux selector is provably constant, so
      every other arm is unreachable logic.
    - [redundant-reset] (info) — a register's data input provably equals
      its reset value, making the clear term a no-op.
    - [dataflow-opt-divergence] (error) — {!Opt.constant_fold} and
      {!Dataflow} disagree about a constant output; never fires on a
      correct build (it is a differential soundness check of the two
      analyses, kept in the catalog so a regression in either is loud). *)

val rules : (string * Diag.severity * string) list
(** (rule id, default severity, one-line rationale) for every rule this
    module can emit. *)

val circuit :
  ?lutram_max_bits:int -> folded:Circuit.t -> Levelize.t -> Diag.t list
(** Lint a well-formed circuit, given as its levelization so a caller
    that also times it ({!Sta.analyze}) levelizes once. [folded] is
    {!Opt.constant_fold} of the circuit, folded once by the caller (which
    also sizes the kernel from it): [const-foldable] and the
    [dataflow-opt-divergence] cross-check share that fold.
    [lutram_max_bits] is the largest memory (in bits) the target can
    realize as distributed RAM with asynchronous reads; defaults to 1024
    (the composer's LUTRAM threshold). Pass the platform's own figure to
    cross-check against its memory cells. *)

val graph :
  ?lutram_max_bits:int ->
  ?tracked:Signal.t list ->
  name:string ->
  (string * Signal.t) list ->
  Diag.t list
(** Lint a raw output list. Structural problems (undriven wires,
    combinational loops, port clashes) come back as error diagnostics
    instead of raising; when the graph is structurally sound the full
    {!circuit} catalog runs, plus [dead-logic] over [tracked] (signals
    recorded with {!Signal.tracking} that never reach an output). *)
