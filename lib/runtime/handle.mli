(** [fpga_handle_t] — the host-side entry point (Fig. 3c).

    Wraps a simulated {!Beethoven.Soc} with the services of the Beethoven
    software stack: the device-memory allocator, host↔device DMA (or
    shared-address-space mapping on embedded platforms), and the
    command/response path through the FPGA management runtime — a
    userspace server that serializes access to the MMIO bus. Every command
    submission and response collection occupies the server for a fixed
    service time, so many short-latency commands contend on the server
    lock; this is the effect behind the ideal-vs-measured gap in Fig. 6. *)

type t

type remote_ptr = { rp_addr : int; rp_bytes : int; rp_gen : int }
(** [rp_gen] is the allocation generation of the base address; a pointer
    kept across [mfree]/[malloc] of the same base is detected as stale. *)

exception Stale_pointer of { addr : int; bytes : int }
(** Raised when a [remote_ptr] no longer (or not yet again) backs a live
    allocation — freed, or its base reallocated since. *)

val create : ?poison_freed:bool -> Beethoven.Soc.t -> t
(** Every runtime-server MMIO operation takes 1.5 µs (a syscall + a
    handful of MMIO accesses) and holds the server's one lock.
    [poison_freed] — debug aid: on [mfree], fill the freed host staging
    buffer with [0xDE] so use-after-free through a stale [Bytes.t] shows
    up as poisoned data instead of silently aliasing. *)

val soc : t -> Beethoven.Soc.t
val engine : t -> Desim.Engine.t

val tracer : t -> Trace.t option
(** The SoC's structured tracer, if one was given to
    {!Beethoven.Soc.create}. When present, every {!send} mints a fresh
    transaction id and records a root ["command"] span that the server
    ops, NoC hops, core execution, and memory-system spans parent under;
    {!copy_to_fpga}/{!copy_from_fpga} record ["dma"] spans under their
    own transactions. Watchdog timeouts become instants and
    quarantine/DMA-failure ledger ids are attached as span args. *)

(** {1 Memory} *)

val malloc : t -> int -> remote_ptr
(** Raises [Failure] when device memory is exhausted. *)

val mfree : t -> remote_ptr -> unit
(** Release an allocation. Raises {!Stale_pointer} if the base was
    reallocated since this pointer was minted, {!Alloc.Invalid_free}
    (carrying the base address) on a double-free or a pointer that never
    came from {!malloc}. *)

val host_bytes : t -> remote_ptr -> Bytes.t
(** The host-side staging buffer backing this allocation ([getHostAddr]).
    On embedded platforms this aliases device memory semantics: copies
    are free but still explicit in the API. Raises {!Stale_pointer} on a
    freed or reallocated pointer. *)

val copy_to_fpga : t -> remote_ptr -> on_done:(unit -> unit) -> unit
(** DMA host → device. Timing: setup + bytes / link bandwidth on discrete
    platforms; a cache-maintenance-scale constant on embedded ones. *)

val copy_from_fpga : t -> remote_ptr -> on_done:(unit -> unit) -> unit

val copy_all_to_fpga : t -> remote_ptr list -> unit
(** Blocking DMA: start a {!copy_to_fpga} of every pointer in list
    order, then run the engine until it drains. Raises [Failure] if a
    transfer never finished. Only for set-up and tear-down phases: the
    drain also runs every other queued event to completion. *)

val copy_all_from_fpga : t -> remote_ptr list -> unit
(** The {!copy_from_fpga} counterpart of {!copy_all_to_fpga}. *)

(** {1 Commands}

    {2 The multi-outstanding invariant}

    Any number of commands may be in flight concurrently, including
    several on one core. This is safe because:

    - the beats of one {!send} occupy {e consecutive} server slots,
      reserved atomically at submission (or ride one batch occupancy in
      submission order), so the beats of two multi-beat commands never
      interleave on their way to a core — reassembly at the core always
      sees whole commands;
    - the command NoC preserves per-route ordering (even under injected
      delays), so per-core arrival order equals submission order;
    - cores execute one command at a time and queue the rest, and
      responses resolve their handles idempotently (a duplicate response
      from a watchdog resend is dropped at the handle).

    The one obligation on the client: the watchdog deadline
    ({!Fault.Policy.default}'s [cmd_timeout_ps]) covers queueing {e at the core}, so a
    client keeping many commands outstanding on one core must either
    bound per-core occupancy (as [Serve]'s least-outstanding-work
    dispatcher does) or size the deadline above the worst-case queue
    depth times service time — otherwise a merely busy core is resent to,
    and eventually quarantined, as if it had hung. A core is quarantined
    (and its ledger entry logged) exactly once no matter how many
    outstanding commands time out on it. *)

type response_handle

type batch
(** One runtime-server occupancy shared by a coalesced submission: the
    1.5 µs syscall + MMIO cost of a server operation is paid once for the
    whole batch instead of once per beat. *)

val begin_batch : t -> n:int -> batch
(** Reserve one server occupancy for a batch of [n] compatible commands
    about to be {!send}t with [~batch]. The occupancy starts when the
    server frees up and beats enter the fabric when it ends; [n] is
    recorded on the tracer's [server.batched_cmds] counter. *)

val send :
  ?batch:batch ->
  ?queued_at:int ->
  t ->
  system:string ->
  core:int ->
  cmd:Beethoven.Cmd_spec.command ->
  args:(string * int64) list ->
  response_handle
(** Pack the arguments per the command spec and submit all RoCC beats
    through the runtime server. When the SoC carries a fault injector and
    the command expects a response, a watchdog guards the response
    deadline ({!Fault.Policy.default}'s [cmd_timeout_ps]): on timeout the
    command is resent with a doubled deadline, and after [cmd_max_retries]
    resends the core is quarantined and the command rerouted to the next
    healthy core of the system — at-least-once delivery, so kernels are
    assumed idempotent. With every core of the system quarantined the handle
    fails and {!await} raises.

    [batch] submits this command on a shared server occupancy from
    {!begin_batch} (watchdog resends pay their own server operations).
    [queued_at] tells the tracer when the request was enqueued upstream:
    the root command span then opens at that time with a ["queue-wait"]
    child span covering enqueue → submission, under the command's
    transaction id. *)

val try_get : response_handle -> int64 option

type collect = Pending | Done of int64 | Failed of string

val try_collect : response_handle -> collect
(** Non-blocking response poll: [Pending] while the command is in flight,
    [Done] once the response was collected, [Failed] when recovery was
    exhausted (every core of the system quarantined). Never advances the
    simulation — the multi-outstanding client drives the engine itself
    and polls, or registers {!on_settled}.

    Failure is prompt: a command sent to a core already quarantined is
    rerouted (or settled [Failed]) at submission, and a command in flight
    when its core is quarantined — by another command's watchdog or by
    {!quarantine_core} — is rerouted or failed at the quarantine instant
    rather than staying [Pending] until its own (possibly doubled)
    watchdog deadline. A draining dispatcher can therefore poll
    [try_collect] and trust that quarantine-doomed commands settle
    immediately. *)

val response_seen_at : response_handle -> int option
(** Simulated time the raw response reached the MMIO frontend, before
    the serialized collect operation — the service/collect phase boundary
    a latency breakdown needs. [None] until then (or on failure). *)

val on_settled : response_handle -> ((int64, string) result -> unit) -> unit
(** Call [k] exactly once when the handle settles: [Ok data] on the
    (first) response, [Error msg] when recovery is exhausted. *)

val await : t -> response_handle -> int64
(** Run the simulation until the response arrives ([response_handle::get]).
    Raises [Failure] if the simulation drains without a response, or if
    recovery was exhausted (every core of the system quarantined). *)

val await_all : t -> response_handle list -> int64 list

(** {1 Statistics} *)

val command_timeouts : t -> int
(** Response deadlines missed by the watchdog. *)

val command_retries : t -> int
(** Commands resent after a timeout (including reroutes). *)

val is_quarantined : t -> system_id:int -> core_id:int -> bool

val quarantine_core :
  ?cls:Fault.Class.t ->
  t ->
  system_id:int ->
  core_id:int ->
  reason:string ->
  unit
(** Externally imposed quarantine: the caller writes the core off (only
    the tests call it; a cluster that loses a device halts the device's
    lane instead, see {!Cluster}). Marks the
    core failed (future {!send}s reroute around it or settle [Failed]),
    logs a [Quarantined] ledger entry under [cls] (default
    [Core_hang]) when the SoC carries an injector, and promptly settles
    every command currently pending on the core: each is rerouted to the
    next healthy core of its system, or failed when none survives.
    Idempotent; quarantining an already-quarantined core does nothing. *)

val server_busy_ps : t -> int
(** Total time the runtime server spent servicing operations — the
    contention metric. *)

val allocator : t -> Alloc.t
(** The discrete-platform device allocator, for read-only inspection
    (invariant checks, fragmentation accounting in churn tests). On
    embedded platforms ({!Pagemap}-backed) it is present but unused. *)
