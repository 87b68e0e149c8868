(** Structured, deterministic observability for the whole simulation stack.

    A tracer collects three kinds of data:

    - {b Spans}: timed intervals [(start, stop)] in simulated picoseconds,
      arranged in a tree (a span may name a parent) and correlated across
      layers by a {e transaction id} minted when the runtime issues a host
      command. One host command explodes into a tree: command span → NoC
      hops → core execution → reader/writer streams → AXI bursts → DRAM
      activity.
    - {b Instants}: zero-duration marks (a data beat on a bus, a dropped
      packet, a watchdog timeout).
    - {b Counters}: a registry of named monotonic counters, sampled
      time-series (queue depths, outstanding transactions) and latency
      series/histograms with p50/p95/p99 quantiles via {!Desim.Stats}.

    Everything is recorded in simulated time with no wall-clock input, so
    two runs of the same seeded design produce byte-identical sink output.
    Tracing is strictly opt-in: components take a [t option] (or an
    optional argument) and skip all recording when absent. *)

type t

type arg =
  | Int of int
  | Float of float
  | Str of string

val create : unit -> t

val fresh_txn : t -> int
(** Mint a new transaction id (sequential from 0). *)

(** {1 Spans} *)

val begin_span :
  t ->
  now:int ->
  ?parent:int ->
  ?txn:int ->
  track:string ->
  cat:string ->
  name:string ->
  unit ->
  int
(** Open a span at simulated time [now] (ps) and return its id. [track] is
    the display lane (e.g. ["core Memcpy/0"], ["ddr0 rd id02"]); [cat] is a
    coarse phase used by the profile report (e.g. ["command"], ["noc"],
    ["axi"], ["dram"], ["mem"], ["exec"]). If [txn] is omitted the span
    inherits its parent's transaction id. *)

val end_span : t -> now:int -> int -> unit
(** Close a span. Closing an unknown or already-closed span id is ignored
    (fault paths may race a completion against a retry). *)

val complete_span :
  t ->
  start:int ->
  stop:int ->
  ?parent:int ->
  ?txn:int ->
  track:string ->
  cat:string ->
  name:string ->
  ?args:(string * arg) list ->
  unit ->
  int
(** Record a span whose extent is already known when it is reported — the
    retrospective form for intervals measured by the caller, e.g. the
    queue-wait a request accumulated before the runtime saw it. Equivalent
    to {!begin_span} at [start] immediately closed at [stop]. *)

val add_arg : t -> int -> string -> arg -> unit
(** Attach a key/value to an open or closed span (e.g. the fault-ledger id
    that explains a retry). Unknown ids are ignored. *)

val instant :
  t ->
  now:int ->
  ?parent:int ->
  track:string ->
  cat:string ->
  name:string ->
  ?args:(string * arg) list ->
  unit ->
  unit

(** {1 Counter registry}

    All registry entries are keyed by name and created on first use; names
    are reported in first-registration order. *)

val add : t -> string -> int -> unit
(** Bump a monotonic counter (created at 0 on first use). *)

val counter_value : t -> string -> int
(** Current value of a counter; 0 if never bumped. *)

val sample : t -> now:int -> string -> int -> unit
(** Record an instantaneous level (queue depth, outstanding transactions).
    Feeds both the Chrome counter track and a quantile series. *)

val observe : t -> string -> float -> unit
(** Feed one value into a named series (latencies, sizes). *)

val observe_hist : t -> string -> bucket_width:float -> float -> unit
(** Feed one value into a named histogram (e.g. NoC hop latency). The
    bucket width is fixed by the first call for a given name. *)

(** {1 Structured snapshots}

    Whole-registry accessors, so consumers (the closed-loop tuner, the
    profile sink, tests) read counter values and queue-depth quantiles
    directly instead of re-parsing an emitted JSON/text sink. *)

module Counters : sig
  val snapshot : t -> (string * int) list
  (** Every counter with its current value, in first-registration
      order. *)
end

module Series : sig
  type summary = {
    su_n : int;
    su_mean : float;
    su_p50 : float;
    su_p95 : float;
    su_p99 : float;
    su_max : float;
  }

  val names : t -> string list
  (** Registered series names in first-registration order (including
      empty ones). *)

  val summary : t -> string -> summary option
  (** Sample count, mean and p50/p95/p99/max of a named series; [None]
      if absent or empty. *)

  val snapshot : t -> (string * summary) list
  (** Every non-empty series with its summary, in first-registration
      order. *)
end

(** {1 Well-formedness} *)

val check : ?strict:bool -> t -> string list
(** Structural validation: every span closed, parents exist,
    [stop >= start], and children begin within their parent's lifetime.
    With [strict] (default) children must also {e end} within their
    parent; pass [~strict:false] for traces of fault campaigns, where
    at-least-once delivery lets a duplicate response outlive the command
    span that already resolved. Returns human-readable problems, [[]] if
    clean. *)

val span_count : t -> int

(** {1 Sinks} *)

val to_chrome_json : t -> string
(** Chrome trace-event JSON (load in [chrome://tracing] or Perfetto).
    Timestamps are integer microsecond fractions derived from simulated
    picoseconds ([ts] in us with 6-digit precision); output is fully
    deterministic for a deterministic simulation. *)

val profile : t -> string
(** Plain-text per-kernel profile: wall time, phase breakdown by span
    category, counter table, and per-series quantiles. *)

val axi_timeline : ?time_scale:int -> t -> string
(** ASCII timeline of AXI spans and beats (one lane per AXI track), the
    Fig. 5 view regenerated from recorded spans. [time_scale] is
    picoseconds per column; when omitted it is chosen to fit the whole
    trace in ~120 columns. *)
