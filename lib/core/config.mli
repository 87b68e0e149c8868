(** Accelerator configuration — the [AcceleratorConfig] of Fig. 3.

    A configuration declares, without touching the core's functional
    description: the memory channels each core owns (Readers / Writers /
    Scratchpads and their tuning knobs), the number of identical cores in a
    System, the command formats, and an estimate of the kernel's resource
    footprint (taken from an {!Hw.Circuit} when the core is written in the
    RTL DSL, or supplied directly for transaction-level core models). *)

type read_channel = {
  rc_name : string;
  rc_data_bytes : int;  (** port width the core consumes, e.g. 4 *)
  rc_burst_beats : int;  (** AXI beats per emitted transaction *)
  rc_max_in_flight : int;  (** concurrent transactions (prefetch depth) *)
  rc_use_tlp : bool;  (** distinct AXI IDs per transaction *)
  rc_buffer_beats : int;  (** prefetch buffer capacity, AXI beats *)
}

type write_channel = {
  wc_name : string;
  wc_data_bytes : int;
  wc_burst_beats : int;
  wc_max_in_flight : int;
  wc_use_tlp : bool;
  wc_buffer_beats : int;
}

type scratchpad = {
  sp_name : string;
  sp_data_bits : int;
  sp_n_datas : int;
  sp_init_from_memory : bool;  (** fill via a built-in Reader on command *)
}

type intra_core_port = {
  ic_name : string;
  ic_to_system : string;
  ic_to_scratchpad : string;
}

type system = {
  sys_name : string;
  n_cores : int;
  read_channels : read_channel list;
  write_channels : write_channel list;
  scratchpads : scratchpad list;
  intra_core_ports : intra_core_port list;
  commands : Cmd_spec.command list;
  kernel_resources : Platform.Resources.t;
      (** per-core cost of the user's kernel logic, excluding the
          Beethoven-managed primitives (estimated separately) *)
  kernel_circuit : Hw.Circuit.t option;
}

type t = { acc_name : string; systems : system list }

val read_channel :
  ?burst_beats:int ->
  ?max_in_flight:int ->
  ?use_tlp:bool ->
  ?buffer_beats:int ->
  name:string ->
  data_bytes:int ->
  unit ->
  read_channel
(** Defaults: 64-beat bursts, 4 in flight, TLP on, 256-beat buffer — the
    platform tuning the paper describes for the F1 target. Each named
    channel is one Reader (or Writer) instance per core; a core that
    wants two streams declares two names. *)

val write_channel :
  ?burst_beats:int ->
  ?max_in_flight:int ->
  ?use_tlp:bool ->
  ?buffer_beats:int ->
  name:string ->
  data_bytes:int ->
  unit ->
  write_channel

val scratchpad :
  ?init_from_memory:bool ->
  name:string ->
  data_bits:int ->
  n_datas:int ->
  unit ->
  scratchpad

val system :
  ?read_channels:read_channel list ->
  ?write_channels:write_channel list ->
  ?scratchpads:scratchpad list ->
  ?intra_core_ports:intra_core_port list ->
  ?commands:Cmd_spec.command list ->
  ?kernel_resources:Platform.Resources.t ->
  ?kernel_circuit:Hw.Circuit.t ->
  name:string ->
  n_cores:int ->
  unit ->
  system

val make : name:string -> system list -> t
(** Validates: unique system names, unique channel/scratchpad names within
    a system, unique functs, positive core counts. *)

val total_cores : t -> int
