(** The §III-A MemCpy microbenchmark, in the four methodologies the paper
    compares. All four share the same datapath (read beats, forward to the
    writer); they differ only in memory-protocol policy — burst length,
    AXI-ID usage, and outstanding-transaction depth — exactly the knobs the
    paper isolates:

    - [Pure_hdl]: 64-beat bursts, single AXI ID, one transaction in flight
      per direction (the hand-written Chisel described in the paper).
    - [Beethoven]: 64-beat bursts, transaction-level parallelism (distinct
      IDs, several in flight).
    - [Beethoven_no_tlp]: same, but all transactions on one ID.
    - [Beethoven_16beat]: 16-beat bursts with TLP — the configuration the
      paper compiled to show the HLS slowdown is not just burst length.
    - [Hls]: 16-beat bursts on a single ID (what Vitis HLS actually
      emitted despite the 64-beat annotation), several in flight. *)

type impl = Pure_hdl | Beethoven | Beethoven_no_tlp | Beethoven_16beat | Hls

val impl_name : impl -> string
val all_impls : impl list

val command : Beethoven.Cmd_spec.command
val config : impl -> Beethoven.Config.t
val behavior : Beethoven.Soc.behavior

val system : n_cores:int -> Beethoven.Config.system
(** The well-tuned [Beethoven] memcpy system at a chosen core count — the
    building block the fault campaign and the serving layer compose into
    their SoCs (possibly next to other systems). *)

type result = {
  bytes : int;
  wall_ps : int;  (** command arrival at core → final write response *)
  bandwidth_gbs : float;  (** copied bytes / wall (counts each byte once) *)
  verified : bool;
}

val run :
  ?tracer:Trace.t ->
  ?seed:int ->
  impl:impl ->
  bytes:int ->
  platform:Platform.Device.t ->
  unit ->
  result
(** Copy [bytes] (device-resident) and verify contents. Wall time excludes
    host DMA and runtime overhead so the figure isolates the memory path,
    as the paper's microbenchmark does. [tracer] threads the structured
    tracer through the whole stack (see {!Beethoven.Soc.create}); [seed]
    selects a deterministic PRNG source fill so two runs with the same
    seed are byte-identical (the default fill is a fixed multiplicative
    pattern, also deterministic). *)

val burst_beats : impl -> int

type tuning_point = {
  tp_burst_beats : int;
  tp_in_flight : int;
  tp_tlp : bool;
  tp_bandwidth_gbs : float;
}

val tune :
  ?bytes:int -> platform:Platform.Device.t -> unit -> tuning_point list
(** Grid-search the Reader/Writer knobs (burst length, outstanding
    transactions, AXI-ID policy) by short simulation — the device-specific
    tuning §II-B says Beethoven performs for each platform. Sorted best
    first. *)
