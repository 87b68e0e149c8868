(** The MachSuite subset of Table I, as Beethoven multi-core accelerators
    plus functional references and baseline (Vitis HLS / Spatial)
    performance models.

    Each kernel has: a pure-OCaml reference used for correctness checking;
    a Beethoven core behavior whose timing follows the paper's low-effort
    methodology (1 inner-loop iteration per cycle, except GeMM's
    medium-effort x8 MAC parallelism), with real memory traffic through
    Readers/Writers; and analytic baseline models encoding the documented
    limits of the HLS/Spatial implementations (initiation intervals under
    loop-carried dependences, unroll factors, clock selection). Baselines
    are models, not vendor-tool runs — see DESIGN.md §4. *)

type kernel = Gemm | Nw | Stencil2d | Stencil3d | Md_knn

val all : kernel list
val name : kernel -> string
val description : kernel -> string
val data_size : kernel -> int (** the N of Table I *)

val parallelism : kernel -> string (** High / Medium / None, per Table I *)

val beethoven_cycles : kernel -> int
(** Fabric cycles of compute for one invocation on one core (excludes
    memory streaming, which is simulated). *)

val hls_ops_per_sec : kernel -> float
(** Modeled Vitis HLS single-kernel throughput (invocations/s). *)

val spatial_ops_per_sec : kernel -> float

val config : kernel -> n_cores:int -> Beethoven.Config.t
val behavior : kernel -> Beethoven.Soc.behavior

val auto_cores : kernel -> Platform.Device.t -> int
(** Largest core count that still floorplans on the platform (capped at
    48) — how the multi-core sizes of Fig. 6 are chosen. *)

(** {1 The launch path}

    Everything a MachSuite kernel here shares, so that a kernel module
    keeps only its sizes, cycle model, reference and input fill.
    {!Machsuite_extra} launches through it too. *)
module Launch : sig
  type kernel = {
    system : string;  (** the system a launch is sent to *)
    cycles : int;  (** modelled compute cycles of one invocation *)
    in1_bytes : int;
    in2_bytes : int;  (** [0]: the kernel reads no second input *)
    out_bytes : int;
    fill : seed:int -> Bytes.t -> Bytes.t -> unit;
        (** seeded host fill of one core's in1/in2 buffers *)
    expected : Bytes.t -> Bytes.t -> Bytes.t;
        (** the reference out image for given in1/in2 images: the host
            checks with it, and the core computes with it *)
  }

  val command : Beethoven.Cmd_spec.command
  (** ["launch"], funct 0: [in1]/[in2]/[out] buffer addresses. *)

  val behavior : kernel -> Beethoven.Soc.behavior
  (** The core side: bulk-read [in1] (and [in2] when [in2_bytes > 0]),
      model [cycles] of compute, copy the in1/in2 images out of device
      memory and write their [expected] image to [out], bulk-write
      [out], then respond [1L]. *)

  type host = {
    handle : Runtime.Handle.t;
    send : int -> Runtime.Handle.response_handle;
        (** launch once on a core, on that core's buffers *)
    verify : unit -> bool;
        (** DMA every core's [out] back and compare it with [expected] *)
  }

  val host :
    kernel ->
    Beethoven.Config.t ->
    n_cores:int ->
    platform:Platform.Device.t ->
    host
  (** The host side: elaborate the config, boot an SoC with room for
      every core's buffers (64 MB at least), give each core its own
      in1/in2/out buffers filled with seed [core * 7919], and DMA the
      inputs in. Launch timing is left to the caller. *)
end

type run_result = {
  n_cores : int;
  wall_ps : int;
  measured_ops_per_sec : float;
  single_latency_ps : int;  (** one invocation on one core, command to
                                response, runtime included *)
  verified : bool;
}

val run :
  ?rounds:int ->
  kernel ->
  n_cores:int ->
  platform:Platform.Device.t ->
  unit ->
  run_result
(** Simulate [rounds] invocations on each of [n_cores] cores (distinct
    buffers per core), verify every output against the reference, and
    measure steady-state throughput. *)
