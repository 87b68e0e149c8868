(** Static elaboration: configuration + platform → the generated system.

    Produces everything Beethoven hands to the downstream tool flow —
    floorplan and constraints, the command and memory interconnect
    structure, the resource report (the Table II breakdown), C++ host
    bindings, Verilog for RTL-DSL kernels, and ASIC SRAM compilation plans
    when the platform is an ASIC target. *)

type t = {
  config : Config.t;
  platform : Platform.Device.t;
  diagnostics : Hw.Diag.t list;
      (** the warnings and infos {!Check.run} reported (a design with
          errors does not elaborate) *)
  floorplan : Floorplan.t;
  cmd_noc : Noc.t;
  mem_noc : Noc.t;
  mem_endpoints : ((string * int * string) * int) list;
      (** (system, core, channel-name) → memory NoC endpoint id *)
  interconnect : Platform.Resources.t;
  frontend : Platform.Resources.t;
  beethoven_total : Platform.Resources.t;  (** everything except the shell *)
  grand_total : Platform.Resources.t;  (** including the shell *)
  sram_plans : (string * Platform.Sram.plan) list;  (** ASIC targets *)
  sta : (string * Hw.Sta.report) list;
      (** per-system static timing reports for RTL-DSL kernels
          ({!Check.sta}) *)
}

val elaborate : Config.t -> Platform.Device.t -> t
(** Runs {!Check.run} first and raises [Failure] with the rendered error
    diagnostics when any rule at error severity fires — a configuration
    that cannot map to the platform never reaches the downstream flow.
    Warnings and infos are retained in [diagnostics]. The floorplan is
    the one {!Check.run} placed: an elaboration places its design once. *)

(** Elaboration cache.

    The expensive slice of elaboration is per-system and
    placement-independent: linting the kernel netlist, timing it
    ({!Hw.Sta}) and sizing its folded netlist
    ({!Check.analyze_kernel}). That analysis reads only the system's
    name and its kernel circuit, so the cache keys it on exactly those
    two: the name, and the circuit compared physically ([==]). A delta
    in any other knob (channels, scratchpads, commands, core count,
    platform) is a hit for every system; a freshly built circuit is a
    miss for its system only. Systems without a kernel circuit always
    hit after their first lookup. Global artifacts (floorplan, NoCs,
    resource totals) are rebuilt on every call: they depend on the whole
    config. Their cost is the one placement, whose logic estimate for an
    RTL-DSL kernel reads the folded node count and register bits the
    kernel analysis recorded, so a cached elaboration makes no pass over
    a kernel circuit.

    {!elaborate} through a cache is byte-equivalent to a fresh
    {!Elaborate.elaborate}: identical diagnostics, floorplan and STA
    reports (the qcheck property in [test/test_tune.ml]). The
    tuner ([Tune]) passes one cache to every {!Dse.fit} pre-filter call,
    so a search over knob deltas analyzes each distinct (name, circuit)
    once. *)
module Cache : sig
  type cache

  val create : unit -> cache

  val elaborate : cache -> Config.t -> Platform.Device.t -> t
  (** Like {!Elaborate.elaborate}, but per-system kernel analyses are
      looked up by (system name, kernel circuit) and memoized.
      Raises exactly when the fresh elaboration would. *)

  val hits : cache -> int
  val misses : cache -> int
  val entries : cache -> int

  val last_lookups : cache -> (string * bool) list
  (** Per-system (name, was-hit) of the most recent {!elaborate} call, in
      config order — the evidence the cache hit-rate regression test
      checks. *)
end

val cmd_endpoint : t -> system:string -> core:int -> int

val channel_instance : string -> string
(** The instance name of a named Reader or Writer, [name[0]]: its
    memory-NoC endpoint key and its trace track suffix. *)

val mem_endpoint : t -> system:string -> core:int -> channel:string -> int

val resource_table : t -> string
(** Rendered utilization table in the shape of Table II. *)

val cpp_header : t -> string
val cpp_stubs : t -> string
val constraints : t -> string
val verilog : t -> (string * string) list
(** (system name, Verilog source) for systems whose kernel is an RTL-DSL
    circuit. *)

val summary : t -> string
