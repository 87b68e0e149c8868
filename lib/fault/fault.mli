(** Deterministic, seed-driven fault injection.

    The reliability layer the paper's evaluation assumes away: the
    platforms Beethoven targets (AWS F1 shells, Alveo boards, ChipKIT
    ASICs) live with DRAM bit errors, AXI error responses, and hung
    accelerator cores. This library generates reproducible fault
    campaigns — every injection decision is drawn from a per-class
    splitmix64 stream seeded from the campaign seed, so the same seed
    over the same workload yields bit-identical fault logs and counters
    — and gives the recovery machinery (ECC scrub, bounded retry,
    watchdogs, quarantine) a single place to account for what it
    injected, corrected, recovered, and lost. *)

(** {1 Deterministic PRNG} *)

module Rng : sig
  type t

  val create : seed:int64 -> t
  (** A splitmix64 stream. Equal seeds yield equal streams. *)

  val next : t -> int64
  val float : t -> float  (** Uniform in [0, 1). *)

  val int : t -> bound:int -> int
  (** Uniform in [0, bound). [bound] must be positive. *)
end

val lcg : seed:int -> unit -> int
(** The 30-bit linear congruential stream the bundled kernels draw their
    inputs from: ANSI C [rand]'s multiplier and increment, state masked
    to 30 bits; each call returns the next state. Kernel inputs, and so
    every kernel table, depend on it bit for bit. *)

(** {1 SECDED ECC}

    A real Hamming(72,64) code over 64-bit words: 7 Hamming check bits
    plus an overall parity bit. Any single-bit error in the 72-bit
    codeword is corrected; any double-bit error is detected as
    uncorrectable. The model half ({!Ecc.t}) tracks which device-memory
    words hold a codeword (established lazily, before the first
    corruption) so the DRAM read path can scrub on read. *)

module Ecc : sig
  val encode : int64 -> int
  (** The 8 check bits protecting a 64-bit data word. *)

  type verdict =
    | Ok  (** codeword clean *)
    | Corrected of int64  (** single-bit error; the repaired word *)
    | Uncorrectable  (** double-bit (or worse) error detected *)

  val decode : data:int64 -> check:int -> verdict
  (** Syndrome-decode a possibly corrupted codeword. Single-bit flips
      (in data or check bits) are corrected; double flips detected. *)

  type t

  val create : unit -> t

  (** The functions below reach memory only through [get] and [set],
      which read and write the aligned little-endian 64-bit word at an
      address; [Soc] passes its device-memory accessors. *)

  val inject_flip :
    t ->
    get:(int -> int64) ->
    set:(int -> int64 -> unit) ->
    word_addr:int ->
    bit:int ->
    unit
  (** Corrupt bit [bit] (0..63) of the aligned 8-byte word at
      [word_addr], first latching the word's check bits if this is the
      first corruption since the word was last rewritten. An address out
      of range raises whatever [get] raises. *)

  val note_write : t -> addr:int -> bytes:int -> unit
  (** A write burst landed over [addr, addr+bytes): any latched
      codewords there are stale (the cells hold fresh data). Returns at
      once when nothing is latched. *)

  val scrub :
    t ->
    get:(int -> int64) ->
    set:(int -> int64 -> unit) ->
    addr:int ->
    bytes:int ->
    int * int
  (** Scrub-on-read over a burst window: decode every latched codeword
      in range, repairing single-bit errors in place through [set].
      Returns [(corrected, uncorrectable)] counts for the window, and
      [(0, 0)] at once when nothing is latched. *)

  val corrected : t -> int
  val uncorrectable : t -> int
  (** Running totals. *)
end

(** {1 Fault classes} *)

module Class : sig
  type t =
    | Dram_flip  (** single-bit DRAM error in a word about to be read *)
    | Dram_double_flip  (** double-bit error: detectable, uncorrectable *)
    | Axi_read_error  (** transient SLVERR/DECERR on a read burst *)
    | Axi_write_error  (** transient SLVERR/DECERR on a write burst *)
    | Noc_cmd_drop  (** a command beat lost in the command fabric *)
    | Noc_resp_drop  (** a response message lost on the way back *)
    | Noc_delay  (** a message delayed (ordering preserved per route) *)
    | Core_hang  (** a core stops responding permanently *)
    | Dma_fail  (** transient host<->device DMA failure *)
    | Device_offline  (** a whole device drops off the host link *)
    | Heartbeat_loss  (** a health probe goes unanswered (transient) *)
    | Device_brownout
        (** partial brownout: the device still serves traffic but misses
            health probes for a stretch — the false-positive pressure a
            quarantine state machine must survive *)

  val all : t list
  (* Order note: new classes are appended, never inserted — a class's
     index seeds its decision stream, so the prefix order is frozen for
     digest stability. *)
  val name : t -> string
end

(** {1 Campaign plans} *)

module Plan : sig
  type hang = {
    hang_system : int;  (** system index *)
    hang_core : int;
    hang_after : int;  (** hang on the Nth command dispatched to it (1-based) *)
  }

  type t = {
    seed : int;
    rates : (Class.t * float) list;
    (** Injection probability per opportunity (burst, transaction,
        message, copy). Classes absent from the list never fire. *)
    max_delay_ps : int;  (** upper bound for [Noc_delay] injections *)
    hang : hang option;
  }

  val none : t
  (** No faults (all rates zero) — an injector that only counts. *)

  val default_recoverable : ?seed:int -> unit -> t
  (** The default campaign mix: single-bit DRAM flips, transient AXI
      errors, dropped/delayed NoC messages, dropped responses, transient
      DMA failures — every class the stack recovers without data loss.
      No double-bit flips, no hung cores. *)

  val with_hang : ?after:int -> system:int -> core:int -> t -> t
  val scale : float -> t -> t
  (** Multiply every rate (clamped to 1.0) — the degradation-curve knob. *)
end

(** {1 Recovery policy} *)

module Policy : sig
  type t = {
    axi_max_retries : int;  (** bounded retry per AXI burst *)
    axi_backoff_ps : int;  (** base backoff; attempt k waits base*2^k *)
    cmd_timeout_ps : int;  (** per-command response deadline *)
    cmd_max_retries : int;  (** watchdog retries before quarantine *)
    partial_timeout_ps : int;
        (** command-reassembly watchdog: clear a stale partial
            multi-beat command after this long *)
    dma_max_retries : int;
    dma_backoff_ps : int;
  }

  val default : t
  (** The recovery policy. [Soc]'s AXI retry and reassembly watchdog and
      [Runtime.Handle]'s DMA retry and command watchdog read it
      directly; it is not a per-SoC setting. *)
end

(** {1 The fault log} *)

module Log : sig
  type kind =
    | Injected
    | Corrected  (** repaired in place (ECC scrub) *)
    | Recovered  (** recovered by retry / watchdog / rerouting *)
    | Unrecovered  (** gave up; data loss or failed command *)
    | Quarantined  (** a core was marked failed and taken out of rotation *)

  type entry = { time : int; cls : Class.t; kind : kind; site : string }

  val kind_name : kind -> string
  val render : entry list -> string
end

(** {1 The injector} *)

module Injector : sig
  type t

  val create : Plan.t -> t
  val plan : t -> Plan.t
  val ecc : t -> Ecc.t

  val fork : ?plan:Plan.t -> t -> scope:int -> t
  (** A seeded child injector for an enclosed fault scope (one simulated
      device of a cluster, a shard of a campaign). The child's streams are
      seeded from [(parent plan seed, scope)] only — forking never draws
      from the parent's streams, so single-device campaigns are
      bit-identical whether or not children were forked, and sibling
      scopes are mutually independent. [plan] overrides the child's plan
      (rates, hang spec); the seed is always the derived one. The child
      keeps its own ledger and ECC model. *)

  val scope : t -> int option
  (** The scope this injector was forked for, [None] for a root. *)

  val decide : t -> Class.t -> bool
  (** Draw from the class's stream against its rate. Deterministic in
      the sequence of calls per class. *)

  val draw_delay_ps : t -> int
  (** Extra latency for a [Noc_delay] injection, in
      [1, plan.max_delay_ps]. *)

  val draw_int : t -> bound:int -> int
  (** Auxiliary deterministic draw (victim bit/word selection). *)

  val set_hang : ?after:int -> t -> system:int -> core:int -> unit
  (** Arm (or re-arm) a core hang on a live injector — the scenario
      executor's "inject a hang mid-run" action. Replaces the plan's
      hang spec and restarts the dispatch counter, so the [after]-th
      (default 1) subsequent dispatch to the victim fires. The seeded
      decision streams are untouched: a campaign that never dispatches
      to the victim is bit-identical to one run without this call. *)

  val should_hang : t -> system:int -> core:int -> bool
  (** True exactly once per arming: when the plan's hang spec matches
      this core and its dispatch count reaches [hang_after]. *)

  (** {2 Accounting} *)

  val log : t -> now:int -> cls:Class.t -> kind:Log.kind -> site:string -> unit

  val last_id : t -> int
  (** Ledger id of the most recently logged entry — its index in
      {!entries} order, [-1] before anything is logged. Trace spans
      record this to cross-reference the fault behind a retry, error
      response, or quarantine. *)

  val note_lost : t -> now:int -> cls:Class.t -> key:int -> site:string -> unit
  (** Record an injected lost-message fault (dropped command/response,
      hung core) pending against routing key [key] — resolved when the
      runtime's watchdog recovers or abandons commands on that route. *)

  val resolve_lost : t -> now:int -> key:int -> recovered:bool -> unit
  (** Mark every pending lost-message fault on [key] recovered (the
      retry/reroute produced a response) or unrecovered. *)

  val injected : t -> Class.t -> int
  val recovered : t -> Class.t -> int
  (** [recovered] includes ECC-corrected faults. *)

  val unrecovered : t -> Class.t -> int
  val total_injected : t -> int
  val total_recovered : t -> int
  val total_unrecovered : t -> int
  val pending_lost : t -> int
  (** Lost-message faults not yet resolved either way. *)

  val quarantines : t -> int
  val entries : t -> Log.entry list  (** chronological *)

  val report : t -> string
  (** Per-class injected/recovered/unrecovered table plus the log. *)

  val counters_line : t -> string
  (** One-line machine-comparable digest (for determinism tests). *)
end
