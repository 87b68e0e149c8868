(** Forward abstract interpretation over a {!Levelize}d circuit.

    Two lattices run to fixpoint across cycle boundaries:

    - {b Constant propagation} ([Bot < Const _ < Top]): a node is
      [Const b] when it provably holds [b] on {e every} cycle, for all
      input valuations. Register and sync-read state is seeded from its
      reset value (register [init]; sync reads start at zero, matching
      {!Cyclesim}) and joined with every value the boundary may latch, so
      the result is a statement over all reachable cycles, not just
      cycle 0. The transfer functions subsume every fold {!Opt} performs
      (including the zero identities and constant-selector mux clamping),
      which {!crosscheck} verifies differentially.

    - {b 3-valued X-propagation}: a node is marked X when an
      uninitialized value may reach it under 4-state semantics. The only
      X sources in this DSL are memories (registers always carry an
      [init]): a read is X when the memory has no write port at all (the
      circuit can never initialize it — a ROM filled by a simulator
      backdoor, say), or when some write port's data, address or enable
      is itself X. A node whose constant value is [Const _] is never X —
      [x & 0] is 0 no matter what [x] is. The model is flow-insensitive
      about write-before-read ordering: a memory with a defined write
      port is assumed initialized by it.

    The analysis powers the value-aware {!Lint} rules
    ([read-before-init], [const-output], [dead-mux-arm],
    [redundant-reset]) and the [dataflow-opt-divergence] soundness
    cross-check against {!Opt.constant_fold}. *)

type aval = Bot | Const of Bits.t | Top

type t

val run : Levelize.t -> t
(** Run both fixpoints. Cost is a small constant number of passes over
    the levelized array (each register can only climb the lattice twice). *)

val value_of : t -> Signal.t -> aval
(** Raises [Not_found] for signals outside the circuit. *)

val is_x : t -> Signal.t -> bool

(** {1 Lint rules} *)

val lint : t -> Diag.t list
(** The four value-aware rules: [read-before-init] (warning — an X value
    reaches an output or a memory write enable), [const-output] (warning
    — an output not syntactically a constant is provably constant on
    every cycle), [dead-mux-arm] (warning — a mux selector is provably
    constant so the other arms are unreachable), [redundant-reset] (info
    — a register's data input provably always equals its reset value, so
    the clear term is redundant). *)

val crosscheck : t -> folded:Circuit.t -> Diag.t list
(** Differential soundness check: every output [folded] (the
    {!Opt.constant_fold} of the analysed circuit, which the caller
    computes once and may share) reduces to a constant must be [Const]
    of the same bits here. Any divergence is an error-severity
    [dataflow-opt-divergence] diagnostic — it means one of the two
    passes mis-evaluated a node. *)
