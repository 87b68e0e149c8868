(** The complete A³ core as a single RTL netlist, runnable inside the
    composed SoC through {!Beethoven.Rtl_core}.

    All three Fig. 7 stages plus control: the 64-lane dot-product unit
    with running max (stage 1), the exp-LUT softmax with the weight-sum
    reduction (stage 2), the 64-lane weighted value accumulation
    (stage 3), and normalization through a shared sequential
    {!Hw.Divider} — every arithmetic result in the output is computed by
    this netlist, bit-exact with {!A3.attend_fixed}. The core processes
    one query at a time (the un-pipelined "low-effort" variant; the
    pipelined TLM model in {!Accel} is the throughput design point).

    Commands: funct 0 = {!Accel.load_kv_command} (scratchpad fill through
    the composer's Scratchpad machinery, serviced by {!Accel.behavior});
    funct 1 = [attend] with
    payload1 = query address, payload2 = output address (32 b) |
    n_queries << 32. *)

val attend_command : Beethoven.Cmd_spec.command
val circuit : unit -> Hw.Circuit.t
val config : ?n_cores:int -> unit -> Beethoven.Config.t

val behavior : Beethoven.Soc.behavior
(** Dispatches funct 0 to {!Accel.behavior} (its [load_kv] scratchpad
    fill) and funct 1 into the netlist, through the one
    {!Beethoven.Rtl_core.behavior} bridge each core keeps. *)

type result = {
  verified : bool;  (** outputs bit-exact vs {!A3.attend_fixed} *)
  n_queries : int;
  wall_ps : int;
  cycles_per_query : float;
}

val run :
  ?n_queries:int ->
  ?n_cores:int ->
  platform:Platform.Device.t ->
  unit ->
  result
