(** Four more MachSuite kernels beyond the paper's Fig. 6 subset,
    exercising memory patterns the first five don't: FFT (strided
    butterflies), SpMV (data-dependent irregular reads), KMP string
    search (pure streaming over a long text), and merge sort
    (read-modify-write passes). This module holds only what is specific
    to them: sizes, cycle model, functional reference and input fill. The launch command, the core-side skeleton and the host
    harness are {!Machsuite.Launch}'s. These extend the framework's
    application set; they are not part of the paper's evaluation and the
    benches label them as extensions. *)

type kernel = Fft | Spmv | Kmp | Merge_sort

val all : kernel list
val name : kernel -> string
val description : kernel -> string
val data_size : kernel -> int
val beethoven_cycles : kernel -> int

val config : kernel -> n_cores:int -> Beethoven.Config.t

val system : kernel -> n_cores:int -> Beethoven.Config.system
(** The kernel's system alone, for composing into multi-system SoCs —
    the serving layer deploys ["Sort"] next to memcpy/vecadd so request
    mixes are genuinely heterogeneous. *)

val in1_bytes : kernel -> int
val in2_bytes : kernel -> int
val out_bytes : kernel -> int
(** Exact device-buffer footprints for the kernel's fixed [data_size]
    working set (what a host must allocate to launch it). *)

val behavior : kernel -> Beethoven.Soc.behavior
(** {!Machsuite.Launch.behavior} over this kernel: launched with
    {!Machsuite.Launch.command} (kernels with [in2_bytes k = 0] ignore
    [in2]). *)

type run_result = {
  n_cores : int;
  wall_ps : int;
  measured_ops_per_sec : float;
  verified : bool;
}

val run :
  kernel -> n_cores:int -> platform:Platform.Device.t -> unit -> run_result
(** One launch on each of [n_cores] cores, all in flight, through
    {!Machsuite.Launch.host}; [wall_ps] spans first send to last
    response. *)

(** Functional references, exposed for direct unit testing. *)
module Ref : sig
  val fft : float array -> float array -> unit
  (** In-place radix-2 DIT FFT over (re, im); length must be a power of
      two. *)

  val spmv :
    values:float array ->
    col_idx:int array ->
    row_ptr:int array ->
    x:float array ->
    float array

  val kmp : pattern:Bytes.t -> text:Bytes.t -> int
  (** Number of (possibly overlapping) matches. *)

  val merge_sort : int array -> int array
end
